"""The package namespace: every exported name resolves, removed names stay gone,
and every function the benchmark traces by name still exists."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import endorse_dyn

# Public names deleted with the plug-in generality no caller used: custom
# feature maps, the score registry, the rate matrix helper, the log-space
# choice probabilities.
REMOVED = (
    "FeatureMap",
    "PRESTIGE",
    "PROXIMITY",
    "CANONICAL_FEATURES",
    "log_choice_probabilities",
    "SCORE_FUNCTIONS",
    "rate_matrix",
    "Branch",
    "pagerank_alternating_solve",
    "f_springrank",
)


@pytest.mark.parametrize("name", endorse_dyn.__all__)
def test_exported_name_resolves(name):
    assert hasattr(endorse_dyn, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_absent(name):
    assert name not in endorse_dyn.__all__
    assert not hasattr(endorse_dyn, name)
    for module in (endorse_dyn.choice, endorse_dyn.core, endorse_dyn.scores,
                   endorse_dyn.stability):
        assert not hasattr(module, name)


@pytest.mark.parametrize("fn, removed, required", [
    (endorse_dyn.pagerank_score, ("tol", "max_iter"), ()),
    (endorse_dyn.simulate_sequence, ("node_labels", "period_labels"), ()),
    (endorse_dyn.run, (), ("a0",)),
    (endorse_dyn.fit, ("exclude_self",), ()),
    (endorse_dyn.compare_scores, ("exclude_self",), ()),
    (endorse_dyn.log_likelihood, ("exclude_self",), ()),
    (endorse_dyn.grad_beta, ("exclude_self",), ()),
    (endorse_dyn.choice_probabilities, ("exclude_self",), ()),
    # the long-memory functions that take params read the kind from them
    (endorse_dyn.stability.state_of, ("score_kind",), ("params",)),
    (endorse_dyn.finite_memory_drift, ("score_kind", "lam"), ("params",)),
    (endorse_dyn.jacobian_egalitarian, ("score_kind",), ("params",)),
    (endorse_dyn.fixed_point_jacobian, ("score_kind",), ("params",)),
    (endorse_dyn.two_group_equilibria, ("score_kind",), ("params",)),
    (endorse_dyn.stability._full_residual, ("score_kind",), ("params",)),
    (endorse_dyn.stability._newton_two_group, ("score_kind",), ("params",)),
    (endorse_dyn.stability._classify, ("score_kind",), ("params",)),
])
def test_removed_parameters_and_defaults_stay_gone(fn, removed, required):
    params = inspect.signature(fn).parameters
    assert not set(removed) & set(params)
    assert all(params[name].default is inspect.Parameter.empty for name in required)


def test_damping_defaults_have_one_home():
    """Every public alpha_p / alpha_s default is core.ALPHA_P / core.ALPHA_S."""
    defaults = {"alpha_p": endorse_dyn.core.ALPHA_P, "alpha_s": endorse_dyn.core.ALPHA_S}
    seen = set()
    for name in endorse_dyn.__all__:
        obj = getattr(endorse_dyn, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.name in defaults and param.default is not param.empty:
                assert param.default is defaults[param.name], (name, param.name)
                seen.add(name)
    assert seen == {"ModelParams", "pagerank_score", "springrank_score", "critical_beta1",
                    "log_likelihood", "grad_beta", "fit", "compare_scores"}


def test_model_params_has_no_exclude_self():
    # one endorsement model, the paper's: an endorser may choose itself
    assert "exclude_self" not in endorse_dyn.ModelParams.__dataclass_fields__


def test_trajectory_fields():
    fields = endorse_dyn.Trajectory.__dataclass_fields__
    assert list(fields) == ["gamma_t", "a_final", "params"]



def test_every_traced_function_exists():
    """The benchmark traces functions by module and name (perfbench/spans.py,
    read here, never edited), and a name that is gone reads as an absent
    layer there; renaming one needs a benchmark change."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not path.exists():
        pytest.skip("no perfbench/ next to the tests")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"endorse_dyn.{layer}"), name, None))
    ]
    assert absent == []
