"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Each test states its tolerance inline and fails loudly
rather than loosening it.  The final test is conditional on empirical data
being present (none is bundled); when it skips, tests 1-10 constitute the
full acceptance run.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from endorse_dyn.core import ModelParams, uniform_initial
from endorse_dyn.data import InteractionSequence, load_edge_list, simulate_sequence
from endorse_dyn.inference import (
    compare_scores,
    criticality_report,
    fit,
    grad_beta,
    halflife,
    log_likelihood,
)
from endorse_dyn.sim import mean_gamma, rank_variance, run
from endorse_dyn.stability import (
    critical_beta1,
    egalitarian_root,
    f_drift,
    finite_memory_drift,
    jacobian_egalitarian,
    state_of,
    state_rank_vector,
    state_rate_matrix,
    two_group_equilibria,
)

KINDS = ("rootdegree", "pagerank", "springrank")
DATASET_DIR = Path(__file__).resolve().parents[1] / "datasets"


def test_criterion_01_critical_values():
    """Closed-form thresholds, exact to 1e-9."""
    assert abs(critical_beta1("pagerank", 8, 1, alpha_p=0.85) - 1 / 0.85) <= 1e-9
    assert abs(critical_beta1("rootdegree", 70, 150) - 2 * np.sqrt(70 / 150)) <= 1e-9
    for n, m in [(8, 1), (24, 232.5)]:
        expect = 2.0 + 1e-8 * n / m
        assert abs(critical_beta1("springrank", n, m, alpha_s=1e-8) - expect) <= 1e-12


def test_criterion_02_egalitarian_roots_are_exact():
    """The drift vanishes at the uniform state for every kind, residual
    <= 1e-10, in under a second."""
    t0 = time.perf_counter()
    n = 8
    for kind in KINDS:
        for m in (1, 3):
            p = ModelParams(lam=0.999, beta=(1.2, -0.7), m=m, score_kind=kind)
            s0 = egalitarian_root(kind, n, m)
            a0 = m * state_rate_matrix(kind, s0, p.beta)
            f = f_drift(kind, s0, a0, p)
            assert np.abs(f).max() <= 1e-10, (kind, m)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_stability_flips_at_threshold():
    """At n = 8, m = 1 the egalitarian root's leading eigenvalue changes
    sign within 0.1% of the critical beta1; the Jacobian is invariant to
    beta2 in {0, -5} entrywise to 1e-12."""
    n, m = 8, 1
    for kind in KINDS:
        bc = critical_beta1(kind, n, m)
        for shift, expect_sign in [(-1e-3, -1), (1e-3, 1)]:
            b1 = bc * (1.0 + shift)
            jac_by_beta2 = []
            for b2 in (0.0, -5.0):
                p = ModelParams(lam=0.999, beta=(b1, b2), m=m, score_kind=kind)
                jac, eigs = jacobian_egalitarian(p, n)
                assert np.sign(eigs.real.max()) == expect_sign, (kind, shift, b2)
                jac_by_beta2.append(jac)
            assert np.abs(jac_by_beta2[0] - jac_by_beta2[1]).max() <= 1e-12, kind


def test_criterion_04_closed_form_drift_matches_defining_limit():
    """Closed-form f agrees with the finite-memory quotient at
    lambda = 1 - 1e-6 on 20 random states per kind, to 1e-4."""
    rng = np.random.default_rng(2024)
    n, m = 8, 3
    for kind in KINDS:
        for _ in range(20):
            beta = (rng.uniform(-1, 3), rng.uniform(-2, 1))
            p = ModelParams(lam=0.999, beta=beta, m=m, score_kind=kind)
            a = rng.random((n, n)) * 2 + 0.05
            if kind == "rootdegree":
                d = rng.random(n) * 2 + 0.1
                a = a * (d / a.sum(axis=0))[None, :]
                s = d
            else:
                s = state_of(a, p)
            closed = f_drift(kind, s, a, p)
            oracle = finite_memory_drift(s, a, p.with_(lam=1 - 1e-6))
            assert np.abs(closed - oracle).max() <= 1e-4, (kind, beta)


def _stable_branch_rank_vectors(kind, b1, beta2, n, m):
    base = ModelParams(lam=0.999, beta=(0.0, beta2), m=m, score_kind=kind)
    return [
        np.sort(state_rank_vector(kind, eq.s_star, (b1, beta2)))
        for _, eq in two_group_equilibria(base, n, [b1])
        if eq.stable
    ]


def test_criterion_05_simulations_settle_on_stable_branches():
    """n = 8, lambda = 0.9995, 5e4 steps, beta2 = 0: the simulated long-run
    rank vector lands within 0.05 (max-norm, sorted) of a stable analytic
    branch at 0.5 and 1.5 times the critical beta1; root-degree and
    pagerank additionally show a bistable window below the threshold.
    Budget: 10 minutes per kind."""
    n, m, lam, steps, window, seed = 8, 1, 0.9995, 50_000, 500, 11
    for kind in KINDS:
        t0 = time.perf_counter()
        bc = critical_beta1(kind, n, m)
        for ratio in (0.5, 1.5):
            b1 = ratio * bc
            p = ModelParams(lam=lam, beta=(b1, 0.0), m=m, score_kind=kind, seed=seed)
            traj = run(p, a0=uniform_initial(n, m), steps=steps)
            observed = np.sort(mean_gamma(traj, window))
            candidates = _stable_branch_rank_vectors(kind, b1, 0.0, n, m)
            assert candidates, (kind, ratio)
            dist = min(np.abs(observed - c).max() for c in candidates)
            assert dist <= 0.05, (kind, ratio, dist)
        if kind in ("rootdegree", "pagerank"):
            base = ModelParams(lam=0.999, beta=(0.0, 0.0), m=m, score_kind=kind)
            bistable = False
            for frac in (0.85, 0.90):
                roots = two_group_equilibria(base, n, [frac * bc])
                stable_ks = {eq.k_elite for _, eq in roots if eq.stable}
                if 0 in stable_ks and 1 in stable_ks:
                    bistable = True
                    break
            assert bistable, kind
        assert time.perf_counter() - t0 <= 600.0, kind


def test_criterion_06_regime_map_for_springrank():
    """n = 8, lambda = 0.995, 2000 steps: weak prestige stays egalitarian
    (within 0.05 of uniform), strong prestige concentrates (top node above
    0.5), and adding proximity aversion flattens the hierarchy (lower rank
    variance).  Budget: one minute."""
    t0 = time.perf_counter()
    n, m, lam, steps, window, seed = 8, 1, 0.995, 2000, 500, 3
    a0 = uniform_initial(n, m)

    def traj_at(beta):
        p = ModelParams(lam=lam, beta=beta, m=m, score_kind="springrank", seed=seed)
        return run(p, a0=a0, steps=steps)

    flat = traj_at((0.5, 0.0))
    assert np.abs(mean_gamma(flat, window) - 1 / n).max() < 0.05

    steep = traj_at((4.0, 0.0))
    assert mean_gamma(steep, window).max() > 0.5

    damped = traj_at((4.0, -2.0))
    assert rank_variance(damped, window) < rank_variance(steep, window)
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_07_beta_gradient_matches_finite_differences():
    """Analytic beta-gradient vs central differences: relative error
    <= 1e-6 on 10 randomized instances with n <= 10, T <= 20."""
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(3, 11))
        t_len = int(rng.integers(3, 21))
        m = int(rng.integers(1, 9))
        kind = KINDS[trial % 3]
        lam = float(rng.uniform(0.3, 0.97))
        beta = np.array([rng.uniform(-1.5, 2.5), rng.uniform(-2.0, 1.0)])
        deltas = []
        for _ in range(t_len):
            d = np.zeros((n, n))
            for i, j in rng.integers(0, n, size=(m, 2)):
                d[i, j] += 1
            deltas.append(d)
        seq = InteractionSequence(
            tuple(deltas),
            tuple(f"n{i}" for i in range(n)),
            tuple(str(t) for t in range(t_len)),
            a0=rng.random((n, n)),
        )
        g = grad_beta(seq, lam, beta, kind)
        for comp in range(2):
            h = 1e-6 * (1 + abs(beta[comp]))
            bp, bm = beta.copy(), beta.copy()
            bp[comp] += h
            bm[comp] -= h
            fd = (
                log_likelihood(seq, lam, bp, kind)
                - log_likelihood(seq, lam, bm, kind)
            ) / (2 * h)
            assert abs(g[comp] - fd) <= 1e-6 * (1 + abs(fd)), (trial, kind, comp)


def test_criterion_08_parameter_recovery_within_three_se():
    """Generate with springrank at n = 16, T = 200, m = 20, lambda = 0.9,
    beta = (2.5, -1.0); the fit recovers every parameter within 3 standard
    errors and reports positive finite SEs.  Budget: 5 minutes."""
    t0 = time.perf_counter()
    truth = ModelParams(
        lam=0.9, beta=(2.5, -1.0), m=20, score_kind="springrank", seed=123
    )
    seq = simulate_sequence(truth, uniform_initial(16, 20), periods=200)
    res = fit(seq, "springrank", restarts=5)
    assert res.se is not None, res.warnings
    assert all(np.isfinite(s) and s > 0 for s in res.se)
    target = (0.9, 2.5, -1.0)
    estimate = (res.lambda_hat, *res.beta_hat)
    for est, tru, se in zip(estimate, target, res.se):
        assert abs(est - tru) <= 3.0 * se, (estimate, res.se)
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_09_model_selection_recovers_generator():
    """compare_scores picks springrank on at least 18 of 20 sequences
    generated by the springrank model.  Budget: 30 minutes."""
    t0 = time.perf_counter()
    wins = 0
    for i in range(20):
        truth = ModelParams(
            lam=0.9, beta=(2.5, -1.0), m=20, score_kind="springrank", seed=1000 + i
        )
        seq = simulate_sequence(truth, uniform_initial(16, 20), periods=200)
        table = compare_scores(seq, restarts=2)
        wins += table.best == "springrank"
    assert wins >= 18, f"springrank selected on {wins}/20 sequences"
    assert time.perf_counter() - t0 <= 1800.0


def test_criterion_10_halflife_values():
    """halflife(0.87) = 4.97 +- 0.01 and halflife(0.5) is exactly 1."""
    assert abs(halflife(0.87) - 4.97) <= 0.01
    assert halflife(0.5) == 1.0


def test_criterion_11_empirical_tables():
    """Conditional: refit any bundled empirical datasets and match the
    reference estimates within 3 standard errors.

    Expects `datasets/<name>.csv` in the interchange format plus
    `datasets/expected_table1.csv` with columns
    dataset,score,lambda,se_lambda,beta1,se_beta1,beta2,se_beta2.
    No data ships with this repository, so the test normally skips, and
    criteria 1-10 above are the complete acceptance run.
    """
    expected = DATASET_DIR / "expected_table1.csv"
    if not expected.is_file():
        pytest.skip(
            "no empirical datasets bundled (datasets/expected_table1.csv missing); "
            "criteria 1-10 constitute the full acceptance run"
        )
    with open(expected, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "expected_table1.csv has no rows"
    for row in rows:
        data_path = DATASET_DIR / f"{row['dataset']}.csv"
        assert data_path.is_file(), f"missing dataset {data_path}"
        seq = load_edge_list(data_path)
        res = fit(seq, row["score"])
        for key, est in [
            ("lambda", res.lambda_hat),
            ("beta1", res.beta_hat[0]),
            ("beta2", res.beta_hat[1]),
        ]:
            ref = float(row[key])
            se = float(row[f"se_{key}"])
            assert abs(est - ref) <= 3.0 * se, (row["dataset"], key, est, ref)
        if res.se is not None:
            rep = criticality_report(res, seq.n, seq.m_bar)
            assert rep.classification in ("above", "below", "indistinguishable")
