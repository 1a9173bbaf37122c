"""Score function tests.

The PageRank and SpringRank cases are checked against values computed
independently: a dense linear solve for PageRank and the pinned spring
system solved by hand for the two node case.
"""

import inspect
import re
import types
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from endorse_dyn import scores
from endorse_dyn.core import ModelParams, rank_vector
from endorse_dyn.errors import DomainError, NumericError
from endorse_dyn.scores import (
    PAGERANK_DIRECT_MAX_N,
    in_degree,
    out_degree,
    pagerank_score,
    root_degree_score,
    score,
    springrank_score,
)
from endorse_dyn.sim import run

nonneg_matrix = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


def pagerank_dense(a, alpha):
    """Independent oracle: solve (I - alpha P^T) pi = (1-alpha)/n * e directly."""
    n = a.shape[0]
    dout = a.sum(axis=1)
    p = np.empty_like(a, dtype=float)
    for i in range(n):
        p[i] = a[i] / dout[i] if dout[i] > 0 else 1.0 / n
    pi = np.linalg.solve(np.eye(n) - alpha * p.T, (1 - alpha) / n * np.ones(n))
    return n * pi / pi.sum()


class TestDegrees:
    def test_direction_convention(self):
        # a[i, j] is weight from i to j: in-degree sums columns
        a = np.array([[0.0, 5.0], [1.0, 0.0]])
        assert np.array_equal(in_degree(a), [1.0, 5.0])
        assert np.array_equal(out_degree(a), [5.0, 1.0])

    def test_root_degree(self):
        a = np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 9.0], [1.0, 0.0, 0.0]])
        assert np.allclose(root_degree_score(a), [1.0, 2.0, 3.0])

    def test_root_degree_zero_column(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        s = root_degree_score(a)
        assert s[0] == 0.0 and s[1] == pytest.approx(np.sqrt(2.0))


class TestPageRank:
    def test_two_node_dangling_oracle(self):
        # one edge 0 -> 1, row 1 dangles and is spread uniformly:
        #   pi_0 = (1-b)/2 + b*pi_1/2,  pi_1 = (1-b)/2 + b*(pi_0 + pi_1/2)
        # with b = 0.85 gives s = n*pi = (40/57, 74/57)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = pagerank_score(a, alpha_p=0.85)
        assert np.allclose(s, [40 / 57, 74 / 57], rtol=0, atol=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.random((6, 6)) * (rng.random((6, 6)) < 0.6)
            s = pagerank_score(a, alpha_p=0.85)
            expect = pagerank_dense(a, 0.85)
            assert np.allclose(s, expect, atol=1e-9)

    def test_sums_to_n(self):
        rng = np.random.default_rng(8)
        a = rng.random((9, 9))
        assert pagerank_score(a, 0.7).sum() == pytest.approx(9.0, abs=1e-10)

    def test_uniform_on_complete_graph(self):
        a = np.ones((5, 5))
        assert np.allclose(pagerank_score(a, 0.85), np.ones(5), atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.random((5, 5))
        assert np.allclose(pagerank_score(a, 0.85), pagerank_score(17.0 * a, 0.85), atol=1e-12)

    def test_nonconvergence_raises(self, monkeypatch):
        # PAGERANK_TOL and PAGERANK_MAX_ITER govern only the power iteration,
        # above the crossover
        monkeypatch.setattr(scores, "PAGERANK_MAX_ITER", 2)
        n = PAGERANK_DIRECT_MAX_N + 1
        a = np.ones((n, n))
        a[0, 1] = 100.0
        with pytest.raises(NumericError) as exc:
            pagerank_score(a, 0.85)
        assert "iterations" in exc.value.diagnostics

    @pytest.mark.parametrize("alpha_p", [1.0, 0.0, -0.5, np.nan, np.inf])
    def test_rejects_bad_alpha(self, alpha_p):
        with pytest.raises(DomainError, match="alpha_p"):
            pagerank_score(np.ones((3, 3)), alpha_p=alpha_p)

    @pytest.mark.parametrize("n", [PAGERANK_DIRECT_MAX_N, PAGERANK_DIRECT_MAX_N + 1])
    def test_direct_and_power_agree_at_crossover(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        a[0] = 0.0
        alpha, tol = 0.85, scores.PAGERANK_TOL
        s = pagerank_score(a, alpha)
        # up to the crossover the score is the dense solve, bit for bit
        direct = pagerank_dense(a, alpha)
        monkeypatch.setattr(scores, "PAGERANK_DIRECT_MAX_N", 0)
        power = pagerank_score(a, alpha)
        assert np.array_equal(s, direct if n <= PAGERANK_DIRECT_MAX_N else power)
        # power iteration stops when its L1 step is <= tol, which leaves pi
        # within alpha / (1 - alpha) * tol of the fixed point; s = n pi
        assert np.abs(direct - power).sum() <= n * alpha / (1 - alpha) * tol


class TestSpringRank:
    def test_two_node_oracle(self):
        # single edge 0 -> 1: displacement solves 2s1 + eps*s1 = 1 after
        # centering, so s = (-1, 1)/(2 + eps) with the default eps = 1e-8
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = springrank_score(a)
        assert np.allclose(s, [-0.5, 0.5], atol=1e-8)
        assert abs(s.sum()) < 1e-12

    def test_linear_system_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.random((7, 7)) * 3
            s = springrank_score(a, alpha_s=1e-8)
            din, dout = a.sum(axis=0), a.sum(axis=1)
            lap = np.diag(din + dout) - (a + a.T) + 1e-8 * np.eye(7)
            rhs = din - dout
            # s is the centered solution; the raw solution differs from it
            # by a multiple of e that the eps term pins near zero
            res = lap @ s - rhs
            assert np.linalg.norm(res - res.mean(), np.inf) < 1e-8 * (1 + np.abs(rhs).max())

    def test_antisymmetry_under_transpose(self):
        rng = np.random.default_rng(12)
        a = rng.random((6, 6))
        assert np.allclose(springrank_score(a), -springrank_score(a.T), atol=1e-9)

    def test_zero_matrix_gives_zero_scores(self):
        assert np.allclose(springrank_score(np.zeros((4, 4))), 0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(a=nonneg_matrix)
    def test_always_centered(self, a):
        s = springrank_score(a)
        assert abs(s.mean()) < 1e-9 * (1 + np.abs(s).max())

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64, 100, 256])
    def test_single_matrix_equals_scipy_solve_exactly(self, n):
        # the oracle is the wrapper the LAPACK calls replaced
        rng = np.random.default_rng(40 + n)
        counts = np.round(rng.random((n, n)) * 4 * (rng.random((n, n)) < 0.5)).astype(int)
        cases = [counts, rng.random((n, n))]
        for edit in ("dangling row", "zero column", "isolated node"):
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            if edit != "zero column":
                a[n - 1] = 0.0
            if edit != "dangling row":
                a[:, n - 1] = 0.0
            cases.append(a)
        for a in cases:
            af = np.asarray(a, dtype=float)
            din, dout = af.sum(axis=0), af.sum(axis=1)
            lap = np.diag(din + dout) - (af + af.T) + 1e-8 * np.eye(n)
            x = scipy.linalg.solve(lap, din - dout, assume_a="pos")
            assert np.array_equal(springrank_score(a), x - x.mean())

    def test_ill_conditioned_system_warns(self):
        a = np.round(np.random.default_rng(1).random((8, 8)) * 4)
        with pytest.warns(scipy.linalg.LinAlgWarning) as record:
            call = inspect.currentframe().f_lineno + 1
            s = springrank_score(a, alpha_s=1e-14)
        assert np.all(np.isfinite(s))
        # the warning names the first frame outside the package: this line
        assert [(w.filename, w.lineno) for w in record] == [(__file__, call)]
        p = ModelParams(lam=0.9, m=8, score_kind="springrank", seed=1, alpha_s=1e-14)
        with pytest.warns(scipy.linalg.LinAlgWarning) as record:
            call = inspect.currentframe().f_lineno + 1
            run(p, a, steps=1)
        assert [(w.filename, w.lineno) for w in record] == [(__file__, call)]
        din, dout = a.sum(axis=0), a.sum(axis=1)
        lap = np.diag(din + dout) - (a + a.T) + 1e-14 * np.eye(8)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            scipy.linalg.solve(lap, din - dout, assume_a="pos")

    def test_singular_system_raises(self):
        # 1 + 1e-300 == 1, so the Laplacian of one edge stays singular
        with pytest.raises(NumericError, match=r"^springrank solve failed: the system is not "
                                               r"positive definite \(leading minor 2\)$"):
            springrank_score(np.array([[0.0, 1.0], [0.0, 0.0]]), alpha_s=1e-300)


    @pytest.mark.parametrize("alpha_s", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_rejects_alpha_s_outside_the_positive_reals(self, alpha_s, stacked):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DomainError, match="alpha_s"):
            springrank_score(np.stack([a, a]) if stacked else a, alpha_s=alpha_s)

    def test_shared_laplacian_has_the_bits_of_the_textbook_form(self):
        # the builder springrank_score and the springrank drift share,
        # against diag(d_in + d_out) - (A + A^T), then + alpha_s on the diagonal
        rng = np.random.default_rng(17)
        for n in (2, 5, 16, 64):
            for a in (rng.random((n, n)) * 3, np.round(rng.random((n, n)) * 4)):
                want = np.diag(a.sum(axis=0) + a.sum(axis=1)) - (a + a.T)
                want[np.diag_indices(n)] += 1e-8
                lap, rhs = scores._spring_system(a, 1e-8)
                assert np.array_equal(lap, want)
                assert np.array_equal(rhs, a.sum(axis=0) - a.sum(axis=1))


class TestDispatch:
    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(13)
        a = rng.random((5, 5))
        p = ModelParams(lam=0.9)
        assert np.array_equal(score(a, p.with_(score_kind="rootdegree")), root_degree_score(a))
        assert np.array_equal(score(a, p), springrank_score(a, p.alpha_s))

    def test_score_uses_params(self):
        rng = np.random.default_rng(14)
        a = rng.random((5, 5))
        p = ModelParams(lam=0.9, score_kind="pagerank", alpha_p=0.6)
        assert np.array_equal(score(a, p), pagerank_score(a, 0.6))
        p2 = ModelParams(lam=0.9, score_kind="rootdegree")
        assert np.array_equal(score(a, p2), root_degree_score(a))

    def test_unknown_kind_of_a_duck_typed_params_raises(self):
        # ModelParams refuses an unknown kind itself; any other params reaches
        # the kind dispatch with it
        params = types.SimpleNamespace(score_kind="nope", alpha_p=0.85, alpha_s=1e-8)
        with pytest.raises(DomainError, match="unknown score kind 'nope'"):
            score(np.ones((3, 3)), params)


def _stack_with_edge_cases(n, rng):
    """Random sparse count matrices plus an empty one, a dangling row, a node
    nobody endorses and an isolated node (no row, no column)."""
    stack = np.round(rng.random((12, n, n)) * 4 * (rng.random((12, n, n)) < 0.5))
    stack[0] = 0.0
    stack[1, 0] = 0.0
    stack[2, :, n - 1] = 0.0
    stack[3, n - 1] = 0.0
    stack[3, :, n - 1] = 0.0
    stack[4] = rng.random((n, n))
    return stack


class TestStacks:
    """A stack is scored slice by slice as a lone matrix is; the per-slice
    call is the oracle."""

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_rootdegree_stack_equals_slices_exactly(self, n):
        stack = _stack_with_edge_cases(n, np.random.default_rng(n))
        s = root_degree_score(stack)
        assert s.shape == (12, n)
        assert np.array_equal(s, [root_degree_score(a) for a in stack])

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_pagerank_stack_equals_slices_exactly(self, n):
        # each slice stops at the iterate where it would stop alone
        stack = _stack_with_edge_cases(n, np.random.default_rng(10 + n))
        s = pagerank_score(stack, 0.85)
        assert np.array_equal(s, [pagerank_score(a, 0.85) for a in stack])

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_springrank_stack_matches_slices(self, n):
        stack = _stack_with_edge_cases(n, np.random.default_rng(20 + n))
        # a well-conditioned Laplacian: the stacked and single solves agree
        # to rounding
        s = springrank_score(stack, alpha_s=1e-3)
        ref = np.array([springrank_score(a, alpha_s=1e-3) for a in stack])
        assert np.max(np.abs(s - ref)) <= 1e-12
        # At the default alpha_s, the mean of each weakly connected component
        # is fixed only to about eps * |L| / alpha_s (the exact one is 0), so
        # two correct solvers agree on it to that bound; the scores relative
        # to their component's mean agree to rounding.
        s = springrank_score(stack)
        ref = np.array([springrank_score(a) for a in stack])
        several = 0
        for a, st, rt in zip(stack, s, ref):
            k, label = connected_components(a + a.T, directed=False)
            lap = np.diag(a.sum(axis=0) + a.sum(axis=1)) - a - a.T
            bound = 4.0 * np.finfo(float).eps * np.linalg.norm(lap, 2) / 1e-8
            for c in range(k):
                part = label == c
                off, off_ref = st[part].mean(), rt[part].mean()
                assert abs(off) <= bound and abs(off_ref) <= bound
                assert abs(off - off_ref) <= bound
                assert np.max(np.abs((st[part] - off) - (rt[part] - off_ref))) <= 1e-12
            several += 1 < k and lap.any()
        assert n == 2 or several

    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_score_dispatches_stacks(self, kind):
        stack = np.random.default_rng(30).random((3, 2, 4, 4))
        p = ModelParams(lam=0.9, score_kind=kind)
        s = score(stack, p)
        assert s.shape == (3, 2, 4)
        assert np.max(np.abs(s[1, 0] - score(stack[1, 0], p))) <= 1e-12

    def test_stacked_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(scores, "PAGERANK_MAX_ITER", 2)
        n = PAGERANK_DIRECT_MAX_N + 1
        a = np.ones((2, n, n))
        a[1, 0, 1] = 100.0
        with pytest.raises(NumericError) as exc:
            pagerank_score(a, 0.85)
        assert exc.value.diagnostics["iterations"] == 2
        assert exc.value.index == 1  # the uniform slice 0 converged in one step

    def test_stacked_singular_springrank_raises(self):
        # the batched LU solve of a stack: 2 + 1e-300 == 2, so each slice's
        # Laplacian [[2, -2], [-2, 2]] stays exactly singular
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]] * 2)
        with pytest.raises(NumericError, match="^springrank solve failed: Singular matrix$"):
            score(a, ModelParams(lam=0.5, alpha_s=1e-300))

    def test_rejects_non_square_stack(self):
        with pytest.raises(DomainError):
            springrank_score(np.ones((2, 3, 4)))
        with pytest.raises(DomainError):
            pagerank_score(np.ones(3))


class TestRelabelling:
    """Renaming the nodes renames the scores: score(P A P^T) = P score(A)."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_scores_permute_with_the_nodes(self, kind, stacked):
        rng = np.random.default_rng(31)
        stack = rng.integers(0, 5, size=(4, 6, 6)).astype(float)
        perm = rng.permutation(6)  # new node k is old node perm[k]
        relabelled = stack[:, perm][:, :, perm]
        if not stacked:
            stack, relabelled = stack[0], relabelled[0]
        params = ModelParams(lam=0.5, score_kind=kind)
        s = score(stack, params)
        assert np.max(np.abs(score(relabelled, params) - s[..., perm])) <= 1e-12


class TestInputChecks:
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "non-square", "negative"])
    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_rejects_bad_matrix(self, kind, bad, stacked):
        a = np.ones((4, 5) if bad == "non-square" else (4, 4))
        a[1, 2] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}.get(bad, 1.0)
        if stacked:
            a = np.stack([np.ones_like(a), a])
        with pytest.raises(DomainError):
            score(a, ModelParams(lam=0.9, score_kind=kind))

    def test_power_path_rejects_nan_before_iterating(self):
        a = np.ones((PAGERANK_DIRECT_MAX_N + 1,) * 2)
        a[0, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            pagerank_score(a)

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_rejects_negative_entry_with_positive_degrees(self, kind, stacked):
        # every in- and out-degree is positive; only the entry is negative
        a = np.array([[0.0, -1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        if stacked:
            a = np.stack([np.ones_like(a), a])
        with pytest.raises(DomainError, match="negative"):
            score(a, ModelParams(lam=0.9, score_kind=kind))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
    @pytest.mark.parametrize("entry", [
        root_degree_score, pagerank_score, springrank_score, rank_vector,
        *(partial(score, params=ModelParams(lam=0.9, score_kind=kind))
          for kind in ("rootdegree", "pagerank", "springrank"))],
        ids=["root_degree_score", "pagerank_score", "springrank_score", "rank_vector",
             "score-rootdegree", "score-pagerank", "score-springrank"])
    def test_zero_nodes_is_a_domain_error(self, entry, shape, capfd):
        # before the rule: ZeroDivisionError, LAPACK's complaint on stderr,
        # RuntimeWarnings or an empty score vector
        with pytest.raises(DomainError, match=re.escape(f"at least one node, got shape {shape}")):
            entry(np.zeros(shape))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_empty_stack_scores_to_no_rows(self, kind):
        assert score(np.zeros((0, 3, 3)), ModelParams(lam=0.9, score_kind=kind)).shape == (0, 3)

    def test_power_path_rejects_negative_entry(self):
        a = np.ones((PAGERANK_DIRECT_MAX_N + 1,) * 2)
        a[0, 1] = -0.5
        with pytest.raises(DomainError, match="negative"):
            pagerank_score(a)
