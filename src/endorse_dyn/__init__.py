"""Endorsement dynamics on adaptive networks.

Simulation of hierarchy formation driven by score-based endorsement
choices, deterministic analysis of the long-memory limit (drift fields,
critical prestige weights, two-group equilibrium branches), and maximum
likelihood fitting of the model to temporal interaction data.
"""

__version__ = "0.1.0"

from .choice import choice_probabilities, sample_delta, utility
from .core import (
    SCORE_KINDS,
    EndorsementState,
    ModelParams,
    rank_vector,
    sparse_random_initial,
    step,
    uniform_initial,
)
from .data import (
    InteractionSequence,
    aggregate_counts,
    convert_rankings_topk,
    load_edge_list,
    load_rankings,
    restrict_top_placers,
    save_edge_list,
    simulate_sequence,
)
from .errors import ConfigError, DomainError, FormatError, NumericError
from .inference import (
    ComparisonTable,
    CriticalityReport,
    FitResult,
    compare_scores,
    criticality_report,
    fit,
    grad_beta,
    halflife,
    log_likelihood,
)
from .scores import (
    in_degree,
    out_degree,
    pagerank_score,
    root_degree_score,
    score,
    springrank_score,
)
from .sim import Trajectory, mean_gamma, rank_variance, run, variance_sweep
from .stability import (
    Equilibrium,
    critical_beta1,
    dgamma_ds,
    egalitarian_root,
    f_degree,
    f_drift,
    f_pagerank_root_system,
    finite_memory_drift,
    fixed_point_jacobian,
    jacobian_egalitarian,
    state_rank_vector,
    two_group_equilibria,
)

__all__ = [
    "__version__",
    # errors
    "ConfigError", "DomainError", "FormatError", "NumericError",
    # core
    "EndorsementState", "ModelParams", "SCORE_KINDS", "step", "rank_vector",
    "uniform_initial", "sparse_random_initial",
    # scores
    "in_degree", "out_degree", "root_degree_score", "pagerank_score",
    "springrank_score", "score",
    # choice
    "utility", "choice_probabilities", "sample_delta",
    # sim
    "Trajectory", "run", "rank_variance", "mean_gamma", "variance_sweep",
    # stability
    "Equilibrium", "critical_beta1", "dgamma_ds", "egalitarian_root",
    "f_degree", "f_drift", "f_pagerank_root_system",
    "finite_memory_drift", "fixed_point_jacobian", "jacobian_egalitarian",
    "state_rank_vector", "two_group_equilibria",
    # data
    "InteractionSequence", "load_edge_list", "load_rankings", "save_edge_list",
    "convert_rankings_topk", "restrict_top_placers", "aggregate_counts",
    "simulate_sequence",
    # inference
    "FitResult", "ComparisonTable", "CriticalityReport", "log_likelihood",
    "grad_beta", "fit", "compare_scores", "criticality_report", "halflife",
]
