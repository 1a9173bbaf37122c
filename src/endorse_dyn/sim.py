"""Trajectory engine: score -> utilities -> probabilities -> sample -> update.

One run iterates the full loop for a fixed number of steps, recording the
rank vector gamma(t) (the probability that the next endorsement lands on
each node) at every step.  Runs are bit-reproducible: the update matrix at
step t is drawn from a generator seeded with the pair (seed, t), so any
single step can be replayed in isolation.

One kernel, `_steps`, runs every simulation.  It steps a stack of cells
in lockstep: each has its own A(t), beta and seed, and they share lam, m
and the score kind.  `run` and `data.simulate_sequence` step one cell;
`simulate_cells` (under `variance_sweep` and `bifurcate --overlay`) cuts
its grid into chunks of consecutive cells holding at most
LOCKSTEP_MAX_ENTRIES state entries (cells x n^2), steps each chunk as one
stack, and maps the chunks on the thread pool.  At small n a step's cost
is numpy's per-call overhead, which one stack pays once for all its cells
where threads, serialized by the GIL, would pay it once per cell; at large
n each cell is its own chunk and the pool's threads overlap its array
work.  Every cell draws from its own (seed, t) generators and gets the
bits of its run alone.

Once per run, `_initial` validates A(0) and the kernel reads the settings
a run cannot change: the kind's score core with alpha_p and the PageRank
solver for n, or alpha_s, and the cells' beta and seeds, m and lam.  Each
step then calls the private cores of `scores` and `choice` without their
input checks.  The checks that stay every step are the utilities'
finiteness, PageRank's uniform row for a row with zero out-degree, each
cell's SpringRank factorization with its condition estimate, and
`choice.sample_delta`'s `check_m`, once per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import choice, scores
from .core import EndorsementState, ModelParams, check_count, uniform_initial
from .errors import DomainError, NumericError
from .parallel import parallel_map

# The most state entries (cells x n^2) that `simulate_cells` steps in one
# lockstep chunk, at least one cell.  Measured on 2 vCPU with 2 threads
# (m=n, lambda=0.99, the 3 kinds), two cells in lockstep took 0.70x the
# time of one cell per chunk at n=8, 0.44x at n=16, 0.54x at n=32 and
# 0.90-0.93x at n=64 (8192 entries), but 1.1-1.3x at n=80 (12,800
# entries); four cells at n=256 took 1.44x.
LOCKSTEP_MAX_ENTRIES = 8192


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


def _steps(params: ModelParams, a: np.ndarray, steps: int, unit: str = "step", cells=None):
    """The simulation kernel: yield (gamma, delta) for each step t.

    `a` is a (C, n, n) stack of C cells' A(t), each slice from `_initial`;
    `cells` holds one (beta, seed) pair per cell, by default params' own
    for C = 1.  The cells share lam, m, the score kind and its settings.
    Each step overwrites `a` with A(t+1) = lam A(t) + (1 - lam) delta(t),
    the float operations of `core.step`.  gamma (C, n) holds each cell's
    rank vector of A(t), the column mean of its choice matrix, and delta
    (C, n, n) each cell's draw from the generator seeded with (its seed,
    t), so every cell gets the bits of its run alone.  A beta coefficient
    that is zero in every cell drops its term, decided once per run; one
    that is zero in some cells adds exact zeros there (see
    `choice._utility`).  Errors name the step, called `unit` in their
    messages, at which the first cell fails; an overflowing utility raises
    DomainError without numpy's overflow warning.  When `cells` is given,
    an overflow, a failed SpringRank factorization and an unconverged
    PageRank power iteration also name the first failing cell's beta.

    The run's settings are read on the first step, so a PAGERANK_DIRECT_MAX_N
    set before it takes effect.
    """
    n = a.shape[-1]
    score = scores._score_core(params, n, slices=True)
    beta, seeds = zip(*(cells or [(params.beta, params.seed)]))
    b1, b2 = (b[:, None, None] if b.any() else None for b in np.array(beta).T)
    lam, m = params.lam, params.m
    fresh = 1.0 - lam
    for t in range(steps):
        try:
            s = score(a)
        except NumericError as exc:  # a failed slice carries its index
            index = getattr(exc, "index", None) if cells else None
            cell = "" if index is None else f" in the cell at beta {beta[index]}"
            raise NumericError(f"score failed at {unit} {t}: {exc}{cell}", exc.diagnostics) from exc
        with np.errstate(over="ignore", invalid="ignore"):
            u = choice._utility(s, b1, b2)
        try:
            p = choice._softmax(u)
        except DomainError as exc:
            bad = np.flatnonzero(~np.isfinite(u).all(axis=(1, 2)))
            cell = f" in the cell at beta {beta[bad[0]]}" if cells else ""
            raise DomainError(f"{unit} {t}: {exc}{cell}") from exc
        draws = [choice.sample_delta(pc, m, _step_rng(seed, t)) for pc, seed in zip(p, seeds)]
        # one cell steps with its own draw: no copy of an n x n matrix per step
        delta = draws[0][None] if len(draws) == 1 else np.stack(draws)
        a *= lam
        a += fresh * delta
        yield p.sum(axis=-2) / n, delta


def run(params: ModelParams, a0: np.ndarray, steps: int = 2000) -> Trajectory:
    """Simulate `steps` updates from a0 (for example `uniform_initial(n, m)`).

    gamma(t) is recorded from the state *before* update t, so row t of the
    history describes A(t) for t = 0..steps-1 and a_final is A(steps).
    """
    check_count("steps", steps, 0)
    a = _initial(a0)
    gamma_hist = np.empty((steps, a.shape[0]))
    for t, (gamma, _) in enumerate(_steps(params, a[None], steps)):
        gamma_hist[t] = gamma[0]
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
    (beta1, beta2) cell, in grid order.  Cell i runs from
    uniform_initial(n, m) with seed _cell_seed(seed, i), and gets the bits
    of that run alone.  Consecutive cells step in lockstep chunks of at
    most LOCKSTEP_MAX_ENTRIES state entries, and the thread pool maps the
    chunks."""
    check_count("window", window, 1, steps)
    check_count("steps", steps, 0)
    a0 = _initial(uniform_initial(n, params.m))
    cells = [params.with_(beta=beta, seed=_cell_seed(params.seed, index))
             for index, beta in enumerate(betas)]
    size = max(1, LOCKSTEP_MAX_ENTRIES // n**2)

    def chunk(part):
        a = np.repeat(a0[None], len(part), axis=0)
        tail = np.empty((len(part), window, n))  # each cell's final window of gamma
        kernel = _steps(params, a, steps, cells=[(c.beta, c.seed) for c in part])
        for t, (gamma, _) in enumerate(kernel):
            if t >= steps - window:
                tail[:, t - (steps - window)] = gamma
        return [(g.mean(axis=0), float(np.var(g))) for g in tail]

    chunks = parallel_map(chunk, (cells[i:i + size] for i in range(0, len(cells), size)))
    return [cell for done in chunks for cell in done]


def variance_sweep(params: ModelParams, n: int, beta1_values, beta2_values,
                   steps: int = 2000, window: int = 500) -> list[tuple[float, float, float]]:
    """Grid of long-run rank variances over (beta1, beta2).

    Returns long-format rows (beta1, beta2, variance), ordered by the grid.
    """
    grid = [(float(b1), float(b2)) for b1 in beta1_values for b2 in beta2_values]
    cells = simulate_cells(params, n, grid, steps, window)
    return [(b1, b2, var) for (b1, b2), (_, var) in zip(grid, cells)]
