"""The benchmark's workloads: inputs made from a seed, CLI calls, and checks.

A workload is a list of inputs; an input is a list of CLI calls
(`endorse-dyn` arguments without ``--out``) plus the number of work units
one pass over them completes.  An op counts results the user asked for
(a simulated step of one cell, a fitted (sequence, kind) pair, a resolved
(kind, beta1) point), never work the implementation chooses to do, so an
algorithmic saving shows up as more ops per second.

Each call's check reads the call's output directory and returns how many
of its items (sweep cells, fitted pairs, beta1 points) failed.  The
thresholds are written next to each check with the reason for them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("rootdegree", "pagerank", "springrank")
ALPHA_P = 0.85  # the package defaults the CLI runs with
ALPHA_S = 1e-8


def critical_beta1(kind: str, n: int, m: float) -> float:
    """Closed-form thresholds, written out here so checks do not trust the program."""
    return {
        "rootdegree": 2.0 * math.sqrt(n / m),
        "pagerank": 1.0 / ALPHA_P,
        "springrank": 2.0 + ALPHA_S * n / m,
    }[kind]


@dataclass
class Call:
    args: list
    items: int
    check: Callable[[Path], int]


@dataclass
class Input:
    calls: list
    ops: int


@dataclass
class Workload:
    name: str
    op_unit: str
    make: Callable  # (seed, workdir) -> list[Input]; run in set-up
    warmup: Callable  # (workdir) -> list of CLI argument lists at tiny size


def _read_csv(path: Path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"{path.name}: expected header {header}")
    return rows[1:]


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {text}")
    return x


# ---------------------------------------------------------------------------
# sweep: long-run rank variance on both sides of the threshold
# ---------------------------------------------------------------------------

# Checks compare a cell's pooled rank-vector variance with the variance of
# the full-monopoly state, (n-1)/n^2, where one node receives every
# endorsement.  Below beta1_c a cell must stay near egalitarian (under 1%
# of that).  Above it the cell must sit an order of magnitude above the
# below-threshold cell of the same sweep: the egalitarian root is unstable
# there, so the variance grows out of the noise floor.  The unstable mode
# grows at rate (beta1/beta1_c - 1)(1 - lambda) per step; when a run spans
# at least FORMED_EFOLDS of that growth, the above cell must also have left
# the near-egalitarian band, since noise amplified without feedback can
# reach the 10x ratio at small n but not the band edge.
NEAR_EGALITARIAN = 0.01
ABOVE_FACTOR = 10.0
FORMED_EFOLDS = 2.0


def check_sweep(outdir: Path, n: int, beta1_c: float, grid: tuple, formed: bool) -> int:
    try:
        rows = _read_csv(outdir / "variance.csv", "beta1,beta2,variance")
        cells = [(_finite(b1), _finite(b2), _finite(v)) for b1, b2, v in rows]
    except (OSError, ValueError):
        return len(grid)
    if [c[0] for c in cells] != list(grid) or any(c[1] != 0.0 or c[2] < 0 for c in cells):
        return len(grid)
    band = NEAR_EGALITARIAN * (n - 1) / n**2
    below = [v for b1, _, v in cells if b1 < beta1_c]
    floor = max(below, default=0.0)
    failed = 0
    for b1, _, v in cells:
        if b1 < beta1_c:
            failed += v >= band
        else:
            failed += not (below and v >= ABOVE_FACTOR * floor and (v >= band or not formed))
    return failed


def sweep_workload(name: str, n: int, m: int, lam: float, steps: int, window: int) -> Workload:
    formed = (1.5 - 1.0) * (1.0 - lam) * steps >= FORMED_EFOLDS

    def make(seed: int, workdir: Path) -> list[Input]:
        calls = []
        for kind in KINDS:
            bc = critical_beta1(kind, n, m)
            grid = (0.5 * bc, 1.5 * bc)  # repr() round-trips through the CLI exactly
            args = ["sweep", "--score", kind, "--n", str(n), "--m", str(m),
                    "--lambda", repr(lam), "--grid-beta1", f"{grid[0]!r}:{grid[1]!r}:2",
                    "--grid-beta2", "0:0:1", "--steps", str(steps),
                    "--window", str(window), "--seed", str(seed)]
            calls.append(Call(args, len(grid),
                              lambda d, bc=bc, grid=grid: check_sweep(d, n, bc, grid, formed)))
        return [Input(calls, ops=len(KINDS) * 2 * steps)]

    def warmup(workdir: Path) -> list:
        return [["sweep", "--score", kind, "--n", "4", "--m", "1", "--lambda", "0.9",
                 "--grid-beta1", "1:2:2", "--steps", "5", "--window", "2"]
                for kind in KINDS]

    return Workload(name, "one simulated step of one sweep cell", make, warmup)


# ---------------------------------------------------------------------------
# fit-compare: model comparison on simulated springrank data
# ---------------------------------------------------------------------------

FIT_N, FIT_T, FIT_M, FIT_LAM, FIT_BETA = 16, 200, 20, 0.9, (2.5, -1.0)
FIT_SEQUENCES = 3


def write_sequence(seed: int, path: Path, a0_path: Path, n=FIT_N, periods=FIT_T) -> None:
    """Simulate springrank data; write its periods and its A(0) as edge lists.

    A(0) is FIT_M whole endorsements scattered at random, so it can be
    written as one period of counts and passed with --warm-start: the CLI
    then fits the model that generated the data.
    """
    from endorse_dyn import (InteractionSequence, ModelParams, save_edge_list,
                             simulate_sequence, sparse_random_initial)

    truth = ModelParams(lam=FIT_LAM, beta=FIT_BETA, m=FIT_M,
                        score_kind="springrank", seed=seed)
    a0 = sparse_random_initial(n, FIT_M, np.random.default_rng(seed))
    seq = simulate_sequence(truth, a0, periods=periods)
    save_edge_list(seq, path)
    save_edge_list(InteractionSequence(deltas=(a0,), node_labels=seq.node_labels,
                                       period_labels=("a0",)), a0_path)


TABLE1 = "dataset,score,lambda,se_lambda,beta1,se_beta1,beta2,se_beta2,loglik"


def check_compare(outdir: Path) -> int:
    """springrank selected, every SE finite and positive, table1.csv parses.

    Recovery of the true parameters is not checked: it holds only in
    probability, so a check on every run would fail by chance.
    """
    try:
        payload = json.loads((outdir / "compare.json").read_text(encoding="utf-8"))
        rows = _read_csv(outdir / "table1.csv", TABLE1)
    except (OSError, ValueError):
        return len(KINDS)
    if payload.get("best") != "springrank" or payload.get("errors"):
        return len(KINDS)
    table = {}
    for row in rows:
        if len(row) == 9:
            try:
                table[row[1]] = [_finite(x) for x in row[2:]]
            except ValueError:
                pass
    failed = 0
    results = {r["score_kind"]: r for r in payload.get("results", [])}
    for kind in KINDS:
        r = results.get(kind)
        ok = (
            r is not None
            and r["se"] is not None
            and all(math.isfinite(x) and x > 0 for x in r["se"])
            and table.get(kind) == [r["lambda_hat"], r["se"][0], r["beta_hat"][0],
                                    r["se"][1], r["beta_hat"][1], r["se"][2], r["loglik"]]
        )
        failed += not ok
    return failed


def fit_compare_workload(name: str = "fit-compare", sequences: int = FIT_SEQUENCES,
                         n: int = FIT_N, periods: int = FIT_T) -> Workload:
    def make(seed: int, workdir: Path) -> list[Input]:
        inputs = []
        for j in range(sequences):
            path, a0_path = workdir / f"obs{j}.csv", workdir / f"obs{j}-a0.csv"
            write_sequence(int(np.random.SeedSequence((seed, j)).generate_state(1)[0]),
                           path, a0_path, n, periods)
            args = ["compare", "--data", str(path), "--warm-start", str(a0_path)]
            inputs.append(Input([Call(args, len(KINDS), check_compare)], ops=len(KINDS)))
        return inputs

    def warmup(workdir: Path) -> list:
        path, a0_path = workdir / "warmup.csv", workdir / "warmup-a0.csv"
        write_sequence(0, path, a0_path, n=4, periods=6)
        return [["compare", "--data", str(path), "--warm-start", str(a0_path),
                 "--restarts", "1"]]

    return Workload(name, "one fitted (sequence, score kind) pair", make, warmup)


# ---------------------------------------------------------------------------
# bifurcate: two-group equilibria straddling the threshold
# ---------------------------------------------------------------------------

# A reported root must make its kind's residual vanish.  Newton stops at
# 1e-11 on the reduced system, and f_degree and f_pagerank_root_system are
# well conditioned, so 1e-8 leaves three orders of slack.  f_drift for
# springrank solves with L_alpha = L + alpha_s I, whose condition number is
# at most (2m + alpha_s) / alpha_s, so its rounding floor is machine epsilon
# times that times the score scale; the check allows ten times that floor.
ROOT_TOL = 1e-8


def root_tolerance(kind: str, s: np.ndarray, m: int) -> float:
    if kind != "springrank":
        return ROOT_TOL
    cond = (2.0 * m + ALPHA_S) / ALPHA_S
    return ROOT_TOL + 10.0 * np.finfo(float).eps * cond * (1.0 + np.abs(s).max())


def root_residual(kind: str, s: np.ndarray, params) -> float:
    from endorse_dyn import f_degree, f_drift, f_pagerank_root_system

    if kind == "rootdegree":
        r = f_degree(s, params)
    elif kind == "pagerank":
        r = f_pagerank_root_system(s, params)
    else:
        r = f_drift("springrank", s, None, params)
    return float(np.abs(r).max())


def check_bifurcate(outdir: Path, kind: str, n: int, m: int, grid: tuple) -> int:
    from endorse_dyn import DomainError, ModelParams

    try:
        rows = _read_csv(outdir / "branches.csv", "beta1,k_elite,a,b,stable,max_eig_real")
        parsed = [(_finite(b1), int(k), _finite(a), _finite(b), st, _finite(e))
                  for b1, k, a, b, st, e in rows]
    except (OSError, ValueError):
        return len(grid)
    # the CLI rounds beta1 to 12 decimals when it groups roots
    def point(b1):
        return next((g for g in grid if abs(b1 - g) <= 1e-9 * abs(g)), None)

    if any(point(r[0]) is None for r in parsed):
        return len(grid)
    bc = critical_beta1(kind, n, m)

    def point_ok(b1, here) -> bool:
        egalitarian = [r for r in here if r[1] == 0]
        if (not any(r[4] == "true" for r in here) or len(egalitarian) != 1
                or (egalitarian[0][4] == "true") != (b1 < bc)):
            return False
        params = ModelParams(lam=0.9995, beta=(b1, 0.0), m=m, score_kind=kind)
        for _, k, a, b, stable, _ in here:
            if stable not in ("true", "false") or not 0 <= k < n:
                return False
            s = np.full(n, b)
            s[:k] = a
            try:
                if root_residual(kind, s, params) > root_tolerance(kind, s, m):
                    return False
            except DomainError:
                return False
        return True

    return sum(not point_ok(b1, [r for r in parsed if point(r[0]) == b1]) for b1 in grid)


def bifurcate_workload(name: str = "bifurcate", n: int = 16, points: int = 4) -> Workload:
    m = 1

    def make(seed: int, workdir: Path) -> list[Input]:
        rng = np.random.default_rng(seed)
        calls = []
        for kind in KINDS:
            bc = critical_beta1(kind, n, m)
            # 0.7..1.3 beta1_c shifted by at most 0.05: the nearest points stay
            # at least 5% from the threshold, where stability is unambiguous
            shift = float(rng.uniform(-0.05, 0.05))
            lo, hi = (0.7 + shift) * bc, (1.3 + shift) * bc
            grid = tuple(float(x) for x in np.linspace(lo, hi, points))
            if any(abs(g / bc - 1.0) <= 0.01 for g in grid):
                raise ValueError(f"{kind}: a grid point lies within 1% of beta1_c")
            args = ["bifurcate", "--score", kind, "--n", str(n), "--m", str(m),
                    "--grid-beta1", f"{lo!r}:{hi!r}:{points}", "--seed", str(seed)]
            calls.append(Call(args, points,
                              lambda d, kind=kind, grid=grid: check_bifurcate(d, kind, n, m, grid)))
        return [Input(calls, ops=len(KINDS) * points)]

    def warmup(workdir: Path) -> list:
        return [["bifurcate", "--score", kind, "--n", "4", "--grid-beta1", "1:3:2"]
                for kind in KINDS]

    return Workload(name, "one resolved (score kind, beta1) point over all elite sizes",
                    make, warmup)


WORKLOADS = {
    w.name: w
    for w in (
        sweep_workload("sweep-small", n=8, m=1, lam=0.995, steps=1000, window=250),
        sweep_workload("sweep-large", n=256, m=256, lam=0.99, steps=160, window=40),
        fit_compare_workload(),
        bifurcate_workload(),
    )
}
