"""Trajectory engine: score -> utilities -> probabilities -> sample -> update.

One run iterates the full loop for a fixed number of steps, recording the
rank vector gamma(t) (the probability that the next endorsement lands on
each node) at every step.  Runs are bit-reproducible: the update matrix at
step t is drawn from a generator seeded with the pair (seed, t), so any
single step can be replayed in isolation.

One kernel, `_steps`, runs every simulation.  Once per run, `_initial`
validates A(0) and the kernel reads the settings a run cannot change: the
kind's score core with alpha_p and the PageRank solver for n, or alpha_s,
and beta, m, lam and the seed.  Each step then calls the private cores of
`scores` and `choice` without their input checks.  The checks that stay
every step are the utilities' finiteness, PageRank's uniform row for a row
with zero out-degree, and the SpringRank factorization with its condition
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import choice, scores
from .core import EndorsementState, ModelParams, check_count, uniform_initial
from .errors import DomainError, NumericError
from .parallel import parallel_map


@dataclass(frozen=True)
class Trajectory:
    gamma_t: np.ndarray  # steps x n rank-vector history
    a_final: np.ndarray  # adjacency after the last update
    params: ModelParams

    @property
    def steps(self) -> int:
        return self.gamma_t.shape[0]


def _step_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(t)))


def _initial(a0) -> np.ndarray:
    """A(0), validated once, as a private array `_steps` may update in place."""
    return EndorsementState(a=np.asarray(a0, dtype=float)).a.copy()


def _steps(params: ModelParams, a: np.ndarray, steps: int, unit: str = "step"):
    """The simulation kernel: yield (gamma, delta) for each step t.

    `a` comes from `_initial` and holds A(t); each step overwrites it with
    A(t+1) = lam A(t) + (1 - lam) delta(t), the float operations of
    `core.step`.  gamma is the rank vector of A(t), the column mean of its
    choice matrix, and delta is drawn from the generator seeded with
    (seed, t).  Errors name the step, called `unit` in their messages; an
    overflowing utility raises DomainError without numpy's overflow warning.

    The run's settings are read on the first step, so a PAGERANK_DIRECT_MAX_N
    set before it takes effect.
    """
    n = a.shape[0]
    score = scores._score_core(params, n)
    b1, b2 = params.beta
    lam, m, seed = params.lam, params.m, params.seed
    fresh = 1.0 - lam
    for t in range(steps):
        try:
            s = score(a)
        except NumericError as exc:
            raise NumericError(f"score failed at {unit} {t}: {exc}", exc.diagnostics) from exc
        with np.errstate(over="ignore", invalid="ignore"):
            u = choice._utility(s, b1, b2)
        try:
            p = choice._softmax(u)
        except DomainError as exc:
            raise DomainError(f"{unit} {t}: {exc}") from exc
        delta = choice.sample_delta(p, m, _step_rng(seed, t))
        a *= lam
        a += fresh * delta
        yield p.sum(axis=0) / n, delta


def run(params: ModelParams, a0: np.ndarray, steps: int = 2000) -> Trajectory:
    """Simulate `steps` updates from a0 (for example `uniform_initial(n, m)`).

    gamma(t) is recorded from the state *before* update t, so row t of the
    history describes A(t) for t = 0..steps-1 and a_final is A(steps).
    """
    check_count("steps", steps, 0)
    a = _initial(a0)
    gamma_hist = np.empty((steps, a.shape[0]))
    for t, (gamma, _) in enumerate(_steps(params, a, steps)):
        gamma_hist[t] = gamma
    return Trajectory(gamma_t=gamma_hist, a_final=a, params=params)


def rank_variance(traj: Trajectory, window: int = 500) -> float:
    """Population variance of gamma entries pooled over the final window.

    Zero for a constant egalitarian trajectory; larger values mean a more
    concentrated (more strongly hierarchical) endorsement flow.
    """
    check_count("window", window, 1, traj.steps)
    tail = traj.gamma_t[-window:]
    return float(np.var(tail))


def mean_gamma(traj: Trajectory, window: int = 500) -> np.ndarray:
    """Time-averaged rank vector over the final window."""
    check_count("window", window, 1, traj.steps)
    return traj.gamma_t[-window:].mean(axis=0)


def _cell_seed(base_seed: int, index: int) -> int:
    # Deterministic per-cell stream, independent of sweep evaluation order.
    return int(np.random.SeedSequence((int(base_seed), int(index))).generate_state(1)[0])


def simulate_cells(params: ModelParams, n: int, betas, steps: int = 2000,
                   window: int = 500) -> list[tuple[np.ndarray, float]]:
    """(mean_gamma, rank_variance) over the final window of one run per
    (beta1, beta2) cell, in grid order, from the thread pool.  Cell i runs
    from uniform_initial(n, m) with seed _cell_seed(seed, i)."""
    check_count("window", window, 1, steps)
    a0 = uniform_initial(n, params.m)

    def one(item):
        index, beta = item
        traj = run(params.with_(beta=beta, seed=_cell_seed(params.seed, index)),
                   a0=a0, steps=steps)
        return mean_gamma(traj, window), rank_variance(traj, window)

    return parallel_map(one, enumerate(betas))


def variance_sweep(params: ModelParams, n: int, beta1_values, beta2_values,
                   steps: int = 2000, window: int = 500) -> list[tuple[float, float, float]]:
    """Grid of long-run rank variances over (beta1, beta2).

    Returns long-format rows (beta1, beta2, variance), ordered by the grid.
    """
    grid = [(float(b1), float(b2)) for b1 in beta1_values for b2 in beta2_values]
    cells = simulate_cells(params, n, grid, steps, window)
    return [(b1, b2, var) for (b1, b2), (_, var) in zip(grid, cells)]
