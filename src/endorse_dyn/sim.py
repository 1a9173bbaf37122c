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
bits of its run alone.  A SpringRank run holds scipy's OpenBLAS at one
thread from its first step to its last (`scores._one_blas_thread`), so the
pool's threads start no BLAS threads on each other's CPUs, and each cell's
factorizations round the same at any pool size and any OpenBLAS thread
count.

The kernel does not build `_step_rng(seed, t)` = default_rng((seed, t))
each step.  `_seed_hasher` reads the cells' seed words once per run and
then hashes (seed, t) as SeedSequence does for every cell and a block of
steps in one pass of array arithmetic (an algorithm numpy keeps fixed
across versions), and each cell's draw hands its words to numpy's PCG64,
which seeds from them as default_rng does.  A block holds at most
_SEED_BLOCK_PAIRS (cell, step) pairs and starts at a multiple of its
length, a power of two.  Each cell's draw is `choice.sample_delta`'s, one
multinomial of m over its n^2 rates p/n, normalized for the whole stack
at once; `_step_rng` and `sample_delta` stay as the oracles the tests
replay runs through.

Once per run, `_initial` validates A(0) and the kernel reads the settings
a run cannot change: the kind's score core with alpha_p and the PageRank
solver for n, or alpha_s, and the cells' beta and seeds, m (checked by
`ModelParams`) and lam.  Each step then calls the private cores of
`scores` and `choice` without their input checks.  The checks that stay
every step are the utilities' finiteness, PageRank's uniform row for a
row with zero out-degree, and each cell's SpringRank factorization with
its condition estimate.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import choice, scores
from .core import EndorsementState, ModelParams, check_beta, check_count, uniform_initial
from .errors import DomainError, NumericError
from .parallel import parallel_map

# The most state entries (cells x n^2) that `simulate_cells` steps in one
# lockstep chunk, at least one cell.  Measured on 2 vCPU with 2 threads
# (m=n, lambda=0.99, the 3 kinds), two cells in lockstep took 0.70x the
# time of one cell per chunk at n=8, 0.44x at n=16, 0.54x at n=32 and
# 0.90-0.93x at n=64 (8192 entries), but 1.1-1.3x at n=80 (12,800
# entries); four cells at n=256 took 1.44x.
LOCKSTEP_MAX_ENTRIES = 8192

# The most (cell, step) pairs whose seed words `_steps` computes in one
# call of its `_seed_hasher`.  Measured on 2 vCPU, a call for two cells
# took about 0.15 ms plus 0.1 us per pair and held about 105 bytes per
# pair at its peak (145 for 128 cells).  At 512 pairs that is 0.4-0.9 us
# per pair and a 53-72 KB peak, where one block for two cells' 1000 steps
# peaks at 200 KB; blocks that size raised a sweep's peak RSS.
_SEED_BLOCK_PAIRS = 512

# SeedSequence's hash constants and pool size (numpy.random.bit_generator):
# a fixed algorithm, stable across numpy versions (NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_U32 = 2**32 - 1


@dataclass(frozen=True)
class Trajectory:
    gamma_t: np.ndarray  # steps x n rank-vector history
    a_final: np.ndarray  # adjacency after the last update
    params: ModelParams

    @property
    def steps(self) -> int:
        return self.gamma_t.shape[0]


def _step_rng(seed: int, t: int) -> np.random.Generator:
    """The generator of step t of the run seeded with `seed`.  The kernel
    seeds the same PCG64 streams from `_seed_hasher`; tests hold them equal."""
    return np.random.default_rng((int(seed), int(t)))


def _words(x: int) -> list[int]:
    """x's 32-bit words, least significant first, as SeedSequence reads an
    integer (0 is one word)."""
    out = [x & _U32]
    while x := x >> 32:
        out.append(x & _U32)
    return out


def _seed_hasher(seeds):
    """A function of (t0, count) that returns
    `SeedSequence((seed, t)).generate_state(4, np.uint64)` for each seed
    and t0 <= t < t0 + count, shaped (count, cells, 4).

    SeedSequence hashes the entropy words (the seed's, then t's) into a
    pool of 4 uint32 with constants that do not depend on the data, so
    uint32 array arithmetic hashes every (t, cell) in one pass.  The seeds'
    words do not depend on t, so they are read once here, as the rows of
    entropy each call starts from.  The steps must not straddle a multiple
    of 2**32: then they share t's high words, and their low word is t0's
    plus an offset.  A seed's words past the pool each mix into it once
    more, so a cell whose entropy is shorter keeps its pool there.
    """
    seed_words = [_words(int(seed)) for seed in seeds]
    seed_lengths = np.array([len(w) for w in seed_words])
    seed_rows = np.zeros((seed_lengths.max(), 1, len(seeds)), dtype=np.uint32)
    for cell, w in enumerate(seed_words):
        seed_rows[:len(w), 0, cell] = w
    cells = np.arange(len(seeds))

    def hashed(t0: int, count: int) -> np.ndarray:
        high = _words(t0 >> 32) if t0 >> 32 else []
        t_words = [np.arange(count, dtype=np.uint32) + np.uint32(t0 & _U32)]
        t_words += [np.full(count, w, dtype=np.uint32) for w in high]
        lengths = seed_lengths + len(t_words)
        entropy = np.zeros((max(_POOL, lengths.max()), count, len(seeds)), dtype=np.uint32)
        entropy[:len(seed_rows)] = seed_rows
        # t's words follow each seed's own: rows seed_lengths + k of each cell
        for k, word in enumerate(t_words):
            entropy[seed_lengths + k, :, cells] = word
        return _hash_entropy(entropy, lengths)

    return hashed


def _hash_entropy(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """SeedSequence's 4 uint64 state words, shaped (count, cells, 4), for
    each (t, cell) of a (words, count, cells) entropy array whose cells
    hold `lengths` words each."""
    count, cells = entropy.shape[1:]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _U32
        value *= np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]  # missing words hash as 0
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        has = src < lengths
        for dst in range(_POOL):
            pool[dst] = np.where(has, mix(pool[dst], hashmix(entropy[src])), pool[dst])
    # 8 uint32 words, cycling the pool, read as 4 little-endian uint64 as numpy does
    out = np.empty((count, cells, 8), dtype="<u4")
    const = _INIT_B
    for word in range(8):
        value = pool[word % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _U32
        value *= np.uint32(const)
        out[..., word] = value ^ value >> 16
    # native uint64 in a fresh C-contiguous array: PCG64 reads each row's memory
    return out.view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that generates one cell's `_seed_hasher` row: PCG64
    reads its 4 uint64 words from the row's memory, so the row must be
    C-contiguous native uint64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def _draws(words: np.ndarray, p: np.ndarray, m) -> np.ndarray:
    """`choice.sample_delta`'s draw for each (n, n) choice matrix of the
    stack p, each from a PCG64 seeded with its cell's row of `words`, so
    from `_step_rng(seed, t)`'s stream.  The rates g = p/n are normalized
    for the whole stack at once."""
    n = p.shape[-1]
    g = p.reshape(len(p), n * n) / n
    g /= g.sum(axis=-1, keepdims=True)  # exact unit sums for the multinomial sampler
    delta = np.empty_like(g)
    for cell, row in enumerate(words):
        gen = np.random.Generator(np.random.PCG64(_Words(row)))
        delta[cell] = gen.multinomial(m, g[cell])
    return delta.reshape(p.shape)


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
    A SpringRank kernel holds `scores._one_blas_thread` from its first
    step until it ends, raises or is closed; other kinds load no scipy.

    The run's settings are read on the first step, so a PAGERANK_DIRECT_MAX_N
    set before it takes effect.
    """
    n = a.shape[-1]
    score = scores._score_core(params, n, slices=True)
    beta, seeds = zip(*(cells or [(params.beta, params.seed)]))
    b1, b2 = (b[:, None, None] if b.any() else None for b in np.array(beta).T)
    lam, m = params.lam, params.m
    fresh = 1.0 - lam
    # the steps whose words one seed_words call holds: a power of two
    # (so no block straddles t = 2**32) with at most _SEED_BLOCK_PAIRS
    # (cell, t) pairs
    block = 1 << (max(1, _SEED_BLOCK_PAIRS // len(seeds)).bit_length() - 1)
    seed_words = _seed_hasher(seeds)
    springrank = params.score_kind == "springrank"
    with scores._one_blas_thread() if springrank else nullcontext():
        for t in range(steps):
            if t % block == 0:
                words = seed_words(t, min(block, steps - t))
            try:
                s = score(a)
            except NumericError as exc:  # a failed slice carries its index
                index = getattr(exc, "index", None) if cells else None
                cell = "" if index is None else f" in the cell at beta {beta[index]}"
                raise NumericError(f"score failed at {unit} {t}: {exc}{cell}",
                                   exc.diagnostics) from exc
            with np.errstate(over="ignore", invalid="ignore"):
                u = choice._utility(s, b1, b2)
            try:
                p = choice._softmax(u)
            except DomainError as exc:
                bad = np.flatnonzero(~np.isfinite(u).all(axis=(1, 2)))
                cell = f" in the cell at beta {beta[bad[0]]}" if cells else ""
                raise DomainError(f"{unit} {t}: {exc}{cell}") from exc
            delta = _draws(words[t % block], p, m)
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
    _check_window(window, traj.steps)
    tail = traj.gamma_t[-window:]
    return float(np.var(tail))


def mean_gamma(traj: Trajectory, window: int = 500) -> np.ndarray:
    """Time-averaged rank vector over the final window."""
    _check_window(window, traj.steps)
    return traj.gamma_t[-window:].mean(axis=0)


def _check_window(window: int, steps: int) -> None:
    """A final window of gamma needs at least one step, and fits in the steps."""
    check_count("steps", steps, 1)
    check_count("window", window, 1, steps)


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
    _check_window(window, steps)
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
    """Grid of long-run rank variances over (beta1, beta2), each pair
    checked by the beta rule before any cell steps.

    Returns long-format rows (beta1, beta2, variance), ordered by the grid.
    """
    grid = [check_beta((b1, b2)) for b1 in beta1_values for b2 in beta2_values]
    cells = simulate_cells(params, n, grid, steps, window)
    return [(b1, b2, var) for (b1, b2), (_, var) in zip(grid, cells)]
