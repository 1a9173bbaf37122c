"""Likelihood, gradient, fitting, and model-comparison tests.

`brute_loglik` below is a from-scratch reimplementation of the likelihood
(plain loops, its own score computations via dense linear algebra) used to
pin the vectorized version.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from endorse_dyn import inference, parallel
from endorse_dyn.core import ModelParams, uniform_initial
from endorse_dyn.data import InteractionSequence, simulate_sequence
from endorse_dyn.errors import DomainError
from endorse_dyn.inference import (
    BETA_MAX_HALVINGS,
    BETA_MAX_ITER,
    ComparisonTable,
    FitResult,
    compare_scores,
    criticality_report,
    fit,
    grad_beta,
    halflife,
    log_likelihood,
)

KINDS = ["rootdegree", "pagerank", "springrank"]


def oracle_score(a, kind, alpha_p=0.85, alpha_s=1e-8):
    n = a.shape[0]
    if kind == "rootdegree":
        return np.sqrt(a.sum(axis=0))
    if kind == "pagerank":
        dout = a.sum(axis=1)
        p = np.empty((n, n))
        for i in range(n):
            p[i] = a[i] / dout[i] if dout[i] > 0 else 1.0 / n
        pi = np.linalg.solve(np.eye(n) - alpha_p * p.T, (1 - alpha_p) / n * np.ones(n))
        return n * pi / pi.sum()
    din, dout = a.sum(axis=0), a.sum(axis=1)
    lap = np.diag(din + dout) - (a + a.T) + alpha_s * np.eye(n)
    s = np.linalg.solve(lap, din - dout)
    return s - s.mean()


def brute_loglik(seq, lam, beta, kind, alpha_p=0.85, alpha_s=1e-8):
    if seq.a0 is not None:
        a = np.array(seq.a0, dtype=float)
        used = seq.deltas
    else:
        a = np.array(seq.deltas[0], dtype=float)
        used = seq.deltas[1:]
    n = seq.n
    total = 0.0
    for d in used:
        s = oracle_score(a, kind, alpha_p, alpha_s)
        for i in range(n):
            u = [beta[0] * s[j] + beta[1] * (s[i] - s[j]) ** 2 for j in range(n)]
            mx = max(u)
            z = sum(math.exp(x - mx) for x in u)
            for j in range(n):
                if d[i, j] > 0:
                    logp = (u[j] - mx) - math.log(z)
                    total += d[i, j] * (logp - math.log(n))
        a = lam * a + (1 - lam) * d
    return total


def random_sequence(rng, n=4, t_len=6, m=5, a0=False):
    deltas = []
    for _ in range(t_len):
        d = np.zeros((n, n))
        cells = rng.integers(0, n, size=(m, 2))
        for i, j in cells:
            d[i, j] += 1
        deltas.append(d)
    labels = tuple(f"n{i}" for i in range(n))
    periods = tuple(str(t) for t in range(t_len))
    seq = InteractionSequence(tuple(deltas), labels, periods)
    if a0:
        seq = seq.with_a0(rng.random((n, n)) * 2)
    return seq


def sparse_sequence(rng, n=5, t_len=7, m=5, a0=False):
    """A random sequence whose middle period is empty and whose last node
    never endorses but is endorsed in every other period."""
    deltas = []
    for t in range(t_len):
        d = np.zeros((n, n))
        if t != t_len // 2:
            for i, j in zip(rng.integers(0, n - 1, size=m), rng.integers(0, n, size=m)):
                d[i, j] += 1
            d[0, n - 1] += 1
        deltas.append(d)
    labels = tuple(f"n{i}" for i in range(n))
    periods = tuple(str(t) for t in range(t_len))
    seq = InteractionSequence(tuple(deltas), labels, periods)
    if a0:
        seq = seq.with_a0(rng.random((n, n)) * 2)
    return seq


@st.composite
def _sparse_sequences(draw):
    """Sequences of 2-5 nodes with counts 0-2, some periods empty and some
    nodes silent (they never endorse), with or without a drawn A(0)."""
    n = draw(st.integers(2, 5))
    warm = draw(st.booleans())
    t_len = draw(st.integers(1 if warm else 2, 6))
    silent = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    empty = draw(st.sets(st.integers(0, t_len - 1), max_size=t_len - 1))
    cells = st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)
    deltas = []
    for t in range(t_len):
        d = np.array(draw(cells), dtype=float).reshape(n, n)
        d[silent] = 0.0
        deltas.append(d * (t not in empty))
    seq = InteractionSequence(tuple(deltas), tuple(f"n{i}" for i in range(n)),
                              tuple(map(str, range(t_len))))
    if warm:
        a0 = draw(st.lists(st.floats(0.0, 2.0), min_size=n * n, max_size=n * n))
        seq = seq.with_a0(np.reshape(a0, (n, n)))
    return seq


class TestLogLikelihood:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_brute_force(self, kind, warm):
        rng = np.random.default_rng(3 if warm else 4)
        lam, beta = 0.82, (1.7, -0.9)
        for seq in (random_sequence(rng, a0=warm), sparse_sequence(rng, a0=warm)):
            ll = log_likelihood(seq, lam, beta, kind)
            ref = brute_loglik(seq, lam, beta, kind)
            assert ll == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_finite_and_silent_at_the_ends_of_the_memory_range(self, kind, lam):
        # lambda = 1 scores every period at A(0); lambda = 0 scores period t
        # at the counts of period t - 1 alone
        seq = random_sequence(np.random.default_rng(12), a0=True)
        beta = (1.3, -0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll = log_likelihood(seq, lam, beta, kind)
            g = grad_beta(seq, lam, beta, kind)
        assert np.isfinite(ll) and np.all(np.isfinite(g))
        assert ll == pytest.approx(brute_loglik(seq, lam, beta, kind), rel=1e-10)

    def test_single_endorsement_uniform_case(self):
        # one endorsement under uniform probabilities: L = log(1 / n^2)
        seq = InteractionSequence(
            (np.array([[0, 1], [0, 0]]),), ("a", "b"), ("1",)
        ).with_a0(uniform_initial(2, 1))
        ll = log_likelihood(seq, 0.9, (0.0, 0.0), "springrank")
        assert ll == pytest.approx(np.log(0.25), abs=1e-14)

    def test_additive_over_a_split(self):
        rng = np.random.default_rng(7)
        seq = random_sequence(rng, t_len=8, a0=True)
        lam, beta, kind = 0.88, (1.1, -0.3), "pagerank"
        a_mid = np.array(seq.a0)
        for d in seq.deltas[:5]:
            a_mid = lam * a_mid + (1 - lam) * d
        head = InteractionSequence(seq.deltas[:5], seq.node_labels,
                                   seq.period_labels[:5], seq.a0)
        tail = InteractionSequence(seq.deltas[5:], seq.node_labels,
                                   seq.period_labels[5:], a_mid)
        whole = log_likelihood(seq, lam, beta, kind)
        assert whole == pytest.approx(
            log_likelihood(head, lam, beta, kind) + log_likelihood(tail, lam, beta, kind),
            rel=1e-12,
        )

    def test_needs_two_periods_without_warm_start(self):
        seq = InteractionSequence((np.array([[0, 1], [0, 0]]),), ("a", "b"), ("1",))
        with pytest.raises(DomainError):
            log_likelihood(seq, 0.9, (0.0, 0.0), "rootdegree")

    def test_rejects_malformed_beta(self):
        seq = random_sequence(np.random.default_rng(8), a0=True)
        with pytest.raises(DomainError):
            log_likelihood(seq, 0.9, (1.0,), "rootdegree")
        with pytest.raises(DomainError):
            log_likelihood(seq, 0.9, (np.nan, 0.0), "rootdegree")
        with pytest.raises(DomainError):
            grad_beta(seq, 0.9, 1.0, "rootdegree")


class TestGradient:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(9)
        seq = random_sequence(rng, n=5, t_len=7, m=6, a0=True)
        lam = 0.85
        beta = np.array([0.9, -0.6])
        g = grad_beta(seq, lam, beta, kind)
        for k in range(2):
            h = 1e-6
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            fd = (
                log_likelihood(seq, lam, bp, kind) - log_likelihood(seq, lam, bm, kind)
            ) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_zero_at_symmetric_data_with_equal_scores(self):
        seq = InteractionSequence(
            (np.array([[0, 1], [1, 0]]),), ("a", "b"), ("1",)
        ).with_a0(uniform_initial(2, 1))
        g = grad_beta(seq, 0.9, (0.0, 0.0), "rootdegree")
        assert np.array_equal(g, np.zeros(2))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), lam=st.floats(0.0, 1.0),
           beta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    def test_likelihood_and_gradient_on_sparse_sequences(self, kind, data, lam, beta):
        # empty periods and nodes that never endorse, with and without A(0)
        seq = data.draw(_sparse_sequences())
        ll = log_likelihood(seq, lam, beta, kind)
        assert ll == pytest.approx(brute_loglik(seq, lam, beta, kind), rel=1e-10)
        g = grad_beta(seq, lam, beta, kind)
        for k in range(2):
            h = 1e-6
            bp, bm = np.array(beta), np.array(beta)
            bp[k] += h
            bm[k] -= h
            fd = (log_likelihood(seq, lam, bp, kind) - log_likelihood(seq, lam, bm, kind)) / (2 * h)
            # the difference quotient carries the rounding of ll over 2h
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8 * (1.0 + abs(ll)))

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(10)
        seq = random_sequence(rng, a0=True)
        for _ in range(5):
            b1 = rng.normal(size=2) * 2
            b2 = rng.normal(size=2) * 2
            mid = 0.5 * (b1 + b2)
            lmid = log_likelihood(seq, 0.8, mid, "springrank")
            lavg = 0.5 * (
                log_likelihood(seq, 0.8, b1, "springrank")
                + log_likelihood(seq, 0.8, b2, "springrank")
            )
            assert lmid >= lavg - 1e-9


def _no_self_counts(seq):
    deltas = []
    for d in seq.deltas:
        d = d.copy()
        np.fill_diagonal(d, 0)
        deltas.append(d)
    return InteractionSequence(tuple(deltas), seq.node_labels, seq.period_labels, seq.a0)


def _terms(seq, lam, kind):
    """The likelihood's beta-independent terms at one lambda, from a count table."""
    params = ModelParams(lam=lam, score_kind=kind, alpha_p=0.85, alpha_s=1e-8)
    return inference._terms_at(inference._counts(seq), params)


class TestBetaNewton:
    """The exact beta-Hessian and the Newton solve, each against an oracle."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_hessian_matches_central_differences_of_grad_beta(self, kind):
        rng = np.random.default_rng(21)
        seq = _no_self_counts(random_sequence(rng, n=5, t_len=7, m=6, a0=True))
        lam, beta = 0.8, np.array([0.7, -0.4])
        terms = _terms(seq, lam, kind)
        hess = inference._loglik_and_grad(terms, beta)[2]()
        for k in range(2):
            h = 1e-5 * (1 + abs(beta[k]))
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            fd = (grad_beta(seq, lam, bp, kind) - grad_beta(seq, lam, bm, kind)) / (2 * h)
            assert np.all(np.abs(hess[:, k] - fd) <= 1e-6 * (1 + np.abs(fd))), (hess, k, fd)
        assert hess[0, 1] == hess[1, 0]
        assert np.all(np.linalg.eigvalsh(hess) < 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_newton_matches_a_bfgs_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        kind = KINDS[seed % 3]
        seq = random_sequence(rng, n=int(rng.integers(3, 7)), t_len=8, m=7, a0=True)
        if seed >= 3:
            seq = _no_self_counts(seq)
        lam = float(rng.uniform(0.3, 0.95))
        terms = _terms(seq, lam, kind)

        def neg(b):
            ll, g, _ = inference._loglik_and_grad(terms, b)
            return -ll, -g

        ref = scipy.optimize.minimize(neg, np.zeros(2), jac=True, method="BFGS",
                                      options={"gtol": 1e-10, "maxiter": 1000})
        r = inference._maximize_beta(terms, (0.0, 0.0))
        assert r.ok
        assert np.max(np.abs(r.beta - ref.x)) <= 1e-6, (r.beta, ref.x)
        # no lower, up to the rounding of a sum of this many terms
        assert r.ll >= -ref.fun - 1e-12 * abs(ref.fun)
        assert r.grad_norm <= 1e-6 * (1 + abs(r.ll))


def _separable():
    """Every node endorses node 0 and node 0 endorses node 1, in every period
    and in A(0): the states never move, and the beta MLE does not exist."""
    d = np.zeros((4, 4))
    d[1:, 0] = 1
    d[0, 1] = 1
    return InteractionSequence(tuple(d.copy() for _ in range(6)), tuple("abcd"),
                               tuple(map(str, range(6)))).with_a0(d.copy())


def _flat():
    """Everyone endorses everyone: all scores are equal at every lambda, so the
    likelihood does not depend on beta at all."""
    d = np.ones((4, 4))
    return InteractionSequence(tuple(d.copy() for _ in range(6)), tuple("abcd"),
                               tuple(map(str, range(6)))).with_a0(d.copy())


def _one_chooser():
    """Two nodes and only node 0 endorses, once itself and twice node 1:
    each period has one row with two choices, so the utility difference
    beta1 (s_1 - s_0) + beta2 (s_1 - s_0)^2 is all the data can fix, and the
    beta MLE is a line (a singular observed information)."""
    d = np.array([[1.0, 2.0], [0.0, 0.0]])
    return InteractionSequence(tuple(d.copy() for _ in range(6)), ("a", "b"),
                               tuple(map(str, range(6)))).with_a0(d.copy())


class TestDegenerateBetaProblems:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("make", [_separable, _flat, _one_chooser])
    def test_terminates_within_the_iteration_cap(self, kind, make, monkeypatch):
        seq = make()
        calls = []
        evaluate = inference._loglik_and_grad

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(inference, "_loglik_and_grad", counted)
        for lam in (0.1, 0.5, 0.9):
            terms = _terms(seq, lam, kind)
            calls.clear()
            r = inference._maximize_beta(terms, (0.0, 0.0))
            assert np.isfinite(r.ll) and np.all(np.isfinite(r.beta))
            assert len(calls) <= 1 + BETA_MAX_ITER * BETA_MAX_HALVINGS
        res = fit(seq, kind, restarts=2)
        assert res.se is None
        assert any("observed information is not positive definite" in w
                   for w in res.warnings)

    def test_start_with_a_non_finite_likelihood_is_returned_unconverged(self):
        terms = _terms(_separable(), 0.5, "rootdegree")
        r = inference._maximize_beta(terms, (1e308, 0.0))
        assert not r.ok and r.grad_norm == np.inf and not np.isfinite(r.ll)
        assert np.array_equal(r.beta, [1e308, 0.0])

    def test_saturated_start_raises_the_likelihood(self):
        # at a saturated start the information is tiny (~1e-31) but well
        # conditioned; the undamped Newton step would be ~5e31 long, so the
        # step is damped against the gradient and the solve leaves the start
        terms = _terms(_separable(), 0.5, "rootdegree")
        start = np.array([100.0, 0.0])
        ll0, g0, _ = inference._loglik_and_grad(terms, start)
        r = inference._maximize_beta(terms, start)
        assert np.isfinite(r.ll) and r.ll > ll0 + 100.0
        assert r.grad_norm < 0.5 * np.abs(g0).max()
        assert not r.ok  # the data are separable: there is no maximum to reach

    def test_backtracking_that_runs_out_of_halvings_stops_the_solve(self, monkeypatch):
        # a likelihood that falls everywhere off the start, so no halving of
        # the ascent step passes Armijo's test
        terms = _terms(random_sequence(np.random.default_rng(31), a0=True), 0.5, "springrank")
        evaluate = inference._loglik_and_grad
        ll0 = evaluate(terms, np.zeros(2))[0]
        calls = []

        def falls(terms, beta):
            calls.append(1)
            ll, g, h = evaluate(terms, beta)
            return (ll if not np.any(beta) else ll0 - 1.0), g, h

        monkeypatch.setattr(inference, "_loglik_and_grad", falls)
        r = inference._maximize_beta(terms, (0.0, 0.0))
        assert len(calls) == 1 + BETA_MAX_HALVINGS
        assert not r.ok and r.ll == ll0
        assert np.array_equal(r.beta, [0.0, 0.0])

    @pytest.mark.parametrize("h", [np.zeros((2, 2)), np.diag([-1.0, 1.0]),
                                   np.array([[-1.0, -1.0], [-1.0, -1.0]])])
    def test_damped_step_ascends_where_the_information_is_not_positive_definite(self, h):
        g = np.array([1.0, -2.0])
        step, mu = inference._newton_step(g, h)
        assert mu > 0
        assert np.all(np.isfinite(step)) and g @ step > 0

    def test_undamped_step_is_the_newton_step(self):
        g, h = np.array([1.0, -2.0]), np.array([[-2.0, 0.5], [0.5, -1.0]])
        step, mu = inference._newton_step(g, h)
        assert mu == 0.0
        assert np.allclose(-h @ step, g, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_flat_likelihood_stays_at_the_start(self, kind):
        terms = _terms(_flat(), 0.5, kind)
        r = inference._maximize_beta(terms, (0.3, -0.2))
        assert r.ok and r.grad_norm == 0.0
        assert np.array_equal(r.beta, [0.3, -0.2])


class TestHalflife:
    def test_exact_values(self):
        assert halflife(0.5) == 1.0
        assert halflife(0.25) == pytest.approx(0.5, abs=1e-12)
        assert halflife(2.0 ** (-1 / 10)) == pytest.approx(10.0, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3, 10**5000):
            with pytest.raises(DomainError):
                halflife(bad)

    @settings(max_examples=50, deadline=None)
    @given(
        lam1=st.floats(0.01, 0.98),
        gap=st.floats(0.001, 0.01),
    )
    def test_monotone_in_lambda(self, lam1, gap):
        assert halflife(lam1) < halflife(lam1 + gap)


class TestFit:
    def _synthetic(self, seed=5):
        truth = ModelParams(
            lam=0.8, beta=(1.5, -0.5), m=10, score_kind="rootdegree", seed=seed
        )
        return simulate_sequence(truth, uniform_initial(6, 10), periods=80)

    def test_converges_and_reports_consistently(self):
        seq = self._synthetic()
        res = fit(seq, "rootdegree", restarts=3)
        assert 1e-6 <= res.lambda_hat <= 1 - 1e-6
        assert res.grad_norm <= 1e-6 * (1 + abs(res.loglik))
        assert res.loglik == pytest.approx(
            log_likelihood(seq, res.lambda_hat, res.beta_hat, "rootdegree"), rel=1e-12
        )
        assert res.halflife == pytest.approx(halflife(res.lambda_hat), rel=1e-12)
        assert res.restarts == 3
        if res.se is not None:
            assert len(res.se) == 3
            assert all(s > 0 and np.isfinite(s) for s in res.se)

    @pytest.mark.parametrize("kind", KINDS)
    def test_standard_errors_match_a_central_difference_hessian(self, kind):
        # oracle: the 3 x 3 Hessian of log_likelihood by central differences
        seq = self._synthetic()
        res = fit(seq, kind, restarts=2)
        theta = np.array([res.lambda_hat, *res.beta_hat])
        steps = 1e-4 * (1 + np.abs(theta))

        def ll(x):
            return log_likelihood(seq, x[0], x[1:], kind)

        hess = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                ei, ej = np.eye(3)[i] * steps[i], np.eye(3)[j] * steps[j]
                hess[i, j] = (ll(theta + ei + ej) - ll(theta + ei - ej)
                              - ll(theta - ei + ej) + ll(theta - ei - ej)) / (
                    4 * steps[i] * steps[j])
        ref = np.sqrt(np.diag(np.linalg.inv(-hess)))
        assert res.se is not None, res.warnings
        assert np.all(np.abs(np.array(res.se) / ref - 1) <= 1e-4), (res.se, ref)

    def test_deterministic(self):
        seq = self._synthetic()
        r1 = fit(seq, "rootdegree", restarts=2)
        r2 = fit(seq, "rootdegree", restarts=2)
        assert r1.lambda_hat == r2.lambda_hat
        assert r1.beta_hat == r2.beta_hat

    def test_single_restart_allowed(self):
        seq = self._synthetic()
        res = fit(seq, "rootdegree", restarts=1)
        assert np.isfinite(res.loglik)

    def test_input_validation(self):
        seq = self._synthetic()
        with pytest.raises(DomainError):
            fit(seq, "rootdegree", restarts=0)
        with pytest.raises(DomainError, match="restarts"):
            fit(seq, "rootdegree", restarts=2.5)
        one = InteractionSequence((np.array([[0, 1], [0, 0]]),), ("a", "b"), ("1",))
        with pytest.raises(DomainError):
            fit(one, "rootdegree")

    def test_refuses_data_in_which_lambda_cannot_enter_the_likelihood(self):
        # the first used period is scored at A(0) whatever lambda is, so two
        # periods without a warm start leave a likelihood flat in lambda
        d1, d2 = np.zeros((3, 3)), np.zeros((3, 3))
        d1[0, 1], d1[1, 2], d1[2, 0] = 2, 1, 1
        d2[0, 2], d2[1, 0], d2[2, 1] = 1, 2, 1
        two = InteractionSequence((d1, d2), tuple("abc"), ("1", "2"))
        empty_tail = InteractionSequence((d1, np.zeros((3, 3))), tuple("abc"),
                                         ("1", "2")).with_a0(np.ones((3, 3)))
        for kind in KINDS:
            assert (log_likelihood(two, 0.2, (1.0, -0.5), kind)
                    == log_likelihood(two, 0.8, (1.0, -0.5), kind))
            for seq in (two, empty_tail):
                with pytest.raises(DomainError, match="lambda is not identified"):
                    fit(seq, kind)
        warm = two.with_a0(np.ones((3, 3)))
        assert (log_likelihood(warm, 0.2, (1.0, -0.5), "rootdegree")
                != log_likelihood(warm, 0.8, (1.0, -0.5), "rootdegree"))
        assert np.isfinite(fit(warm, "rootdegree", restarts=1).loglik)

    def test_no_bound_warning_inside_the_search_range(self):
        res = fit(self._synthetic(), "rootdegree", restarts=3)
        assert not any("search bound" in w for w in res.warnings)

    @pytest.mark.parametrize("memory,kind,bound", [("long", "rootdegree", "LAM_HI"),
                                                   ("short", "springrank", "LAM_LO")])
    def test_warns_when_lambda_hat_sits_on_a_bound(self, memory, kind, bound):
        res = fit(_bound_sequence(memory), kind, restarts=3)
        limit = {"LAM_LO": inference.LAM_LO, "LAM_HI": inference.LAM_HI}[bound]
        assert abs(res.lambda_hat - limit) <= inference.LAM_XATOL
        assert any(f"search bound {bound}" in w for w in res.warnings), res.warnings

    @pytest.mark.parametrize("kind", KINDS)
    def test_tabulates_the_counts_once_and_rolls_once_per_lambda(self, kind, monkeypatch):
        tables, rolled = [], []
        counts, rolled_scores = inference._counts, inference._rolled_scores

        def counted_counts(*args):
            tables.append(1)
            return counts(*args)

        def counted_rolls(c, params):
            rolled.append(params.lam)
            return rolled_scores(c, params)

        monkeypatch.setattr(inference, "_counts", counted_counts)
        monkeypatch.setattr(inference, "_rolled_scores", counted_rolls)
        res = fit(self._synthetic(), kind, restarts=3)
        assert len(tables) == 1
        # the search rolls each lambda it evaluates once; the SEs take
        # lambda_hat's roll from the search and roll one step either side
        search, se = rolled[:-2], rolled[-2:]
        assert len(set(search)) == len(search) >= 3
        assert rolled.count(res.lambda_hat) == 1 and res.lambda_hat in search
        assert se[0] > res.lambda_hat > se[1] and not set(se) & set(search)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_standard_errors_equal_a_fresh_roll_of_lambda_hat(self, kind, restarts):
        # oracle: roll lambda_hat again for ll and the beta-Hessian, and take
        # the lambda row by central differences at the step the fit uses
        seq = self._synthetic()
        res = fit(seq, kind, restarts=restarts)
        lam, beta = res.lambda_hat, np.array(res.beta_hat)
        step = min(1e-4 * (1.0 + lam), 0.5 * (inference.LAM_HI - lam) + 1e-12, 0.5 * lam)
        (ll0, _, h_beta), (ll_up, g_up, _), (ll_dn, g_dn, _) = (
            inference._loglik_and_grad(_terms(seq, x, kind), beta)
            for x in (lam, lam + step, lam - step)
        )
        hess = np.empty((3, 3))
        hess[0, 0] = (ll_up - 2.0 * ll0 + ll_dn) / step**2
        hess[0, 1:] = hess[1:, 0] = (g_up - g_dn) / (2.0 * step)
        hess[1:, 1:] = h_beta()
        assert ll0 == res.loglik
        assert res.se == tuple(float(x) for x in np.sqrt(np.diag(np.linalg.inv(-hess))))

    @pytest.mark.parametrize("kind", KINDS)
    def test_hessians_are_formed_only_where_read(self, kind, monkeypatch):
        # a fit forms one beta-Hessian per Newton step and one for the SEs
        # at lambda_hat; rejected trials, polish steps and the SEs' lambda
        # differences form none
        evaluate, newton = inference._loglik_and_grad, inference._newton_step
        formed, steps = [], []  # per evaluation, the Hessians formed; Newton steps

        def counted(terms, beta):
            ll, g, hess = evaluate(terms, beta)
            index = len(formed)
            formed.append(0)

            def counted_hess():
                formed[index] += 1
                return hess()

            return ll, g, counted_hess

        monkeypatch.setattr(inference, "_loglik_and_grad", counted)
        monkeypatch.setattr(inference, "_newton_step",
                            lambda g, h: steps.append(1) or newton(g, h))
        res = fit(self._synthetic(), kind, restarts=3)
        assert res.se is not None
        assert sum(formed) == len(steps) + 1
        assert formed[-2:] == [0, 0] and 0 in formed[:-2]  # the SEs' differences, a trial

    def test_lambda_search_raises_no_runtime_warning(self):
        # period 2 is empty and nodes a and d never endorse or receive; some
        # lambda's beta solve does not converge, and the search's objective
        # is +inf there
        def period(*edges):
            d = np.zeros((4, 4))
            for i, j, k in edges:
                d["abcd".index(i), "abcd".index(j)] += k
            return d

        seq = InteractionSequence(
            (period(("b", "c", 2)), period(), period(("c", "b", 1)), period(("b", "c", 1))),
            tuple("abcd"), ("1", "2", "3", "4"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(seq, "rootdegree", restarts=2)
        assert np.isfinite(res.loglik)


def _bound_sequence(memory):
    """Data whose likelihood peaks at a lambda bound.

    long: A(0) ranks node 0 on top and every period follows it, plus two
    endorsements of a node that changes each period, so the longest memory
    predicts best.  short: each period's endorsers all pick the node the
    previous period picked, so the last period alone predicts best.
    """
    n, t_len = 4, 12
    deltas = []
    for t in range(t_len):
        d = np.zeros((n, n))
        if memory == "long":
            d[1:, 0] = 1
            d[0, 1] = 1
            d[(t + 1) % n, (t + 2) % n] += 2
        else:
            c = t % n
            d[:, c] = 1
            d[c, c] = 0
            d[c, (t + 1) % n] += 1
        deltas.append(d)
    seq = InteractionSequence(tuple(deltas), tuple("abcd"), tuple(map(str, range(t_len))))
    if memory == "long":
        a0 = np.zeros((n, n))
        a0[1:, 0] = 10
        a0[0, 1] = 10
        seq = seq.with_a0(a0)
    return seq


def _relabelled(seq, perm):
    """seq with its nodes renamed: new node k is old node perm[k]."""
    def permuted(a):
        return a[perm][:, perm]

    return InteractionSequence(tuple(permuted(d) for d in seq.deltas),
                               tuple(seq.node_labels[k] for k in perm),
                               seq.period_labels, permuted(seq.a0))


def _dense_sequence(rng, n=6, t_len=10):
    """A warm-started sequence with every cell of every period and of A(0) positive."""
    deltas = rng.integers(1, 4, size=(t_len, n, n)).astype(float)
    return InteractionSequence(tuple(deltas), tuple(f"n{i}" for i in range(n)),
                               tuple(map(str, range(t_len))),
                               rng.integers(1, 4, size=(n, n)).astype(float))


class TestRelabelling:
    """Renaming the nodes of the data leaves the likelihood and the fit alone."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_likelihood_and_gradient_ignore_node_names(self, kind):
        rng = np.random.default_rng(41)
        seq = _dense_sequence(rng)
        other = _relabelled(seq, rng.permutation(seq.n))
        lam, beta = 0.7, (0.8, -0.3)
        assert log_likelihood(other, lam, beta, kind) == pytest.approx(
            log_likelihood(seq, lam, beta, kind), rel=1e-12)
        assert grad_beta(other, lam, beta, kind) == pytest.approx(
            grad_beta(seq, lam, beta, kind), rel=1e-12)

    @pytest.mark.parametrize("kind", [
        *KINDS,
        pytest.param("springrank-edgeless", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP known defect 3: SpringRank leaves each "
            "component's mean to rounding, so an edgeless node's score depends on "
            "its position")),
    ])
    def test_fit_ignores_node_names(self, kind):
        rng = np.random.default_rng(43)
        seq = _dense_sequence(rng)
        if kind == "springrank-edgeless":
            kind = "springrank"
            keep = np.ones((seq.n, seq.n))
            keep[-1] = keep[:, -1] = 0.0  # the last node never endorses or is endorsed
            seq = InteractionSequence(tuple(d * keep for d in seq.deltas), seq.node_labels,
                                      seq.period_labels, seq.a0 * keep)
        res = fit(seq, kind, restarts=3)
        other = fit(_relabelled(seq, rng.permutation(seq.n)), kind, restarts=3)
        assert abs(other.lambda_hat - res.lambda_hat) <= 1e-8
        assert np.max(np.abs(np.subtract(other.beta_hat, res.beta_hat))) <= 1e-8
        assert other.loglik == pytest.approx(res.loglik, rel=1e-12)


class TestCompareScores:
    def test_orders_by_likelihood_and_is_input_order_invariant(self):
        seq = TestFit()._synthetic(seed=11)
        t1 = compare_scores(seq, ("rootdegree", "springrank"), restarts=2)
        t2 = compare_scores(seq, ("springrank", "rootdegree"), restarts=2)
        assert isinstance(t1, ComparisonTable)
        assert [r.score_kind for r in t1.results] == [r.score_kind for r in t2.results]
        assert t1.best == t1.results[0].score_kind
        lls = [r.loglik for r in t1.results]
        assert lls == sorted(lls, reverse=True)
        assert t1.errors == {}

    @pytest.fixture
    def opened_pools(self, monkeypatch):
        """The max_workers of every thread pool opened, in order."""
        opened = []

        class CountingPool(parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setenv("ENDORSE_DYN_THREADS", "2")
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
        return opened

    def test_pool_only_over_kinds(self, opened_pools):
        # the lambda restarts run inline, so fit opens no pool and compare
        # opens one, over the kinds, and none nests inside it
        seq = TestFit()._synthetic(seed=11)
        fit(seq, "rootdegree", restarts=3)
        assert opened_pools == []
        compare_scores(seq, ("rootdegree", "springrank"), restarts=3)
        assert opened_pools == [2]

    def test_tabulates_the_counts_once_for_every_kind(self, monkeypatch):
        # one thread per kind, switching often: every kind's fit reads the
        # one shared, read-only table and gets the fit it gets alone
        monkeypatch.setenv("ENDORSE_DYN_THREADS", str(len(KINDS)))
        tables, fitted = [], []
        counts, fit_core = inference._counts, inference._fit

        def counted_counts(*args):
            tables.append(counts(*args))
            return tables[-1]

        def recorded_fit(c, params, restarts):
            fitted.append((c, params.score_kind))
            return fit_core(c, params, restarts)

        monkeypatch.setattr(inference, "_counts", counted_counts)
        monkeypatch.setattr(inference, "_fit", recorded_fit)
        seq = TestFit()._synthetic(seed=11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = compare_scores(seq, KINDS, restarts=2)
        finally:
            sys.setswitchinterval(interval)
        assert len(tables) == 1
        assert sorted(kind for _, kind in fitted) == sorted(KINDS)
        assert all(c is tables[0] for c, _ in fitted)
        assert not any(array.flags.writeable for array in tables[0])
        assert {r.score_kind: r for r in table.results} == {
            kind: fit(seq, kind, restarts=2) for kind in KINDS
        }

    def test_rejects_degenerate_kind_sets(self):
        seq = TestFit()._synthetic()
        with pytest.raises(DomainError):
            compare_scores(seq, ("rootdegree",))
        with pytest.raises(DomainError):
            compare_scores(seq, ("rootdegree", "rootdegree"))

    @pytest.mark.parametrize("kinds,restarts,periods,message", [
        (("nope", "springrank"), 2, 80, "unknown score kind 'nope'"),
        (("rootdegree", "springrank"), 0, 80, "restarts must be an integer with restarts >= 1"),
        (("rootdegree", "springrank"), 2, 1, "need a0 or at least 2 periods"),
        (("rootdegree", "springrank"), 2, 2, "lambda is not identified"),
    ], ids=["unknown-kind", "zero-restarts", "one-period", "two-periods"])
    def test_argument_and_data_errors_raise_instead_of_failing_each_kind(
        self, kinds, restarts, periods, message, opened_pools
    ):
        seq = TestFit()._synthetic()
        seq = InteractionSequence(seq.deltas[:periods], seq.node_labels,
                                  seq.period_labels[:periods])
        with pytest.raises(DomainError, match=message):
            compare_scores(seq, kinds, restarts=restarts)
        # raised by the rules before the pool starts
        assert opened_pools == []


def _result(kind, beta1, se1, n_m=(24, 232.0)):
    return FitResult(
        score_kind=kind,
        lambda_hat=0.9,
        beta_hat=(beta1, -1.0),
        se=(0.01, se1, 0.1),
        loglik=-100.0,
        halflife=halflife(0.9),
        grad_norm=0.0,
        restarts=1,
        alpha_p=0.85,
        alpha_s=1e-8,
    )


class TestCriticality:
    def test_above_with_clearance(self):
        rep = criticality_report(_result("springrank", 3.03, 0.16), 24, 232.0)
        assert rep.classification == "above"
        assert rep.significant
        assert rep.beta1_critical == pytest.approx(2.0, abs=1e-6)

    def test_below_with_clearance(self):
        n, m_bar = 70, 4 * 70 / 1.36**2  # critical value 1.36 exactly
        rep = criticality_report(_result("rootdegree", 1.28, 0.02), n, m_bar)
        assert rep.classification == "below"
        assert rep.significant
        assert rep.beta1_critical == pytest.approx(1.36, rel=1e-12)

    def test_indistinguishable_inside_band(self):
        rep = criticality_report(_result("pagerank", 1.18, 0.05), 24, 232.0)
        # critical value 1/0.85 = 1.176..., within two se of 1.18
        assert rep.classification == "indistinguishable"
        assert not rep.significant

    def test_requires_standard_errors(self):
        base = _result("rootdegree", 2.0, 0.1)
        broken = FitResult(**{**base.__dict__, "se": None})
        with pytest.raises(DomainError):
            criticality_report(broken, 10, 10.0)
