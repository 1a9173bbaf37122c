"""Long-memory drift, Jacobian, and equilibrium-continuation tests.

The deepest check here compares the reduced fixed-point Jacobian against a
finite-difference linearization of the full n^2-dimensional affinity flow
a' = m G(sigma(a)) - a: the reduced spectrum must reappear inside the full
spectrum, with every remaining eigenvalue equal to -1.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from endorse_dyn import stability
from endorse_dyn.choice import choice_probabilities
from endorse_dyn.core import N_MAX, SCORE_KINDS, ModelParams
from endorse_dyn.errors import DomainError
from endorse_dyn.stability import (
    _KINDS,
    _canonical,
    _classify,
    _full_residual,
    _newton_two_group,
    _two_group_vector,
    dgamma_ds,
    dprob_tensor,
    egalitarian_root,
    f_degree,
    f_drift,
    f_pagerank_root_system,
    finite_memory_drift,
    fixed_point_jacobian,
    jacobian_egalitarian,
    critical_beta1,
    state_of,
    state_probabilities,
    state_rank_vector,
    state_rate_matrix,
    two_group_equilibria,
)

KINDS = ["rootdegree", "pagerank", "springrank"]


def params_for(kind, beta1, beta2=0.0, m=1, n=None):
    return ModelParams(lam=0.999, beta=(beta1, beta2), m=m, score_kind=kind)


def random_state(kind, n, rng):
    """A point in the kind's state space (positive degrees / positive scores
    summing to n / centered scores)."""
    if kind == "rootdegree":
        return rng.random(n) * 2 + 0.1
    if kind == "pagerank":
        s = rng.random(n) + 0.2
        return s * n / s.sum()
    s = rng.normal(size=n)
    return s - s.mean()


class TestKindRecords:
    def test_one_record_per_score_kind(self):
        assert tuple(_KINDS) == SCORE_KINDS

    @pytest.mark.parametrize(
        "call",
        [
            lambda: egalitarian_root("nope", 5, 1),
            lambda: state_of(np.ones((3, 3)), ModelParams(lam=0.9, score_kind="nope")),
            lambda: state_probabilities("nope", np.ones(3), (1.0, 0.0)),
            lambda: state_rate_matrix("nope", np.ones(3), (1.0, 0.0)),
            lambda: state_rank_vector("nope", np.ones(3), (1.0, 0.0)),
            lambda: dgamma_ds("nope", np.ones(3), (1.0, 0.0)),
            lambda: f_drift("nope", np.ones(3), np.ones((3, 3)), ModelParams(lam=0.9)),
            lambda: finite_memory_drift(np.ones(3), np.ones((3, 3)),
                                        ModelParams(lam=0.9, score_kind="nope")),
            lambda: critical_beta1("nope", 5, 1),
            lambda: jacobian_egalitarian(ModelParams(lam=0.9, score_kind="nope"), 5),
            lambda: fixed_point_jacobian(np.ones(3), ModelParams(lam=0.9, score_kind="nope")),
            lambda: two_group_equilibria(ModelParams(lam=0.9, score_kind="nope"), 5, [1.0]),
        ],
        ids=[
            "egalitarian_root", "state_of", "state_probabilities", "state_rate_matrix",
            "state_rank_vector", "dgamma_ds", "f_drift", "finite_memory_drift",
            "critical_beta1", "jacobian_egalitarian", "fixed_point_jacobian",
            "two_group_equilibria",
        ],
    )
    def test_unknown_kind_raises(self, call):
        # where a function reads the kind from params, ModelParams raises
        with pytest.raises(DomainError, match="unknown score kind 'nope'"):
            call()


class TestStateMaps:
    def test_egalitarian_roots(self):
        assert np.allclose(egalitarian_root("rootdegree", 8, 3), 3 / 8)
        assert np.allclose(egalitarian_root("pagerank", 5, 2), 1.0)
        assert np.array_equal(egalitarian_root("springrank", 6, 1), np.zeros(6))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_vector_composition(self, kind):
        rng = np.random.default_rng(1)
        s = random_state(kind, 5, rng)
        beta = (1.2, -0.4)
        r = np.sqrt(s) if kind == "rootdegree" else s
        u = beta[0] * r[None, :] + beta[1] * (r[:, None] - r[None, :]) ** 2
        p = choice_probabilities(u)
        assert np.allclose(state_rank_vector(kind, s, beta), p.mean(axis=0), atol=1e-14)
        assert np.allclose(state_rate_matrix(kind, s, beta), p / 5, atol=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dgamma_ds_matches_fd(self, kind):
        rng = np.random.default_rng(2)
        s = random_state(kind, 6, rng)
        beta = (0.9, -0.7)
        m_mat = dgamma_ds(kind, s, beta)
        fd = np.empty((6, 6))
        for k in range(6):
            h = 1e-6 * (1 + abs(s[k]))
            sp, sm = s.copy(), s.copy()
            sp[k] += h
            sm[k] -= h
            fd[:, k] = (
                state_rank_vector(kind, sp, beta) - state_rank_vector(kind, sm, beta)
            ) / (2 * h)
        assert np.allclose(m_mat, fd, atol=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_dgamma_columns_sum_to_zero(self, kind):
        # gamma always sums to one, so every column of dgamma/ds does to zero
        rng = np.random.default_rng(3)
        s = random_state(kind, 7, rng)
        m_mat = dgamma_ds(kind, s, (2.0, -1.5))
        assert np.abs(m_mat.sum(axis=0)).max() < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degree", [0.0, -1.0])
    @pytest.mark.parametrize("call,slope", [
        pytest.param(lambda d: dgamma_ds("rootdegree", d, (1.0, 0.0)), True, id="dgamma_ds"),
        pytest.param(lambda d: fixed_point_jacobian(d, params_for("rootdegree", 1.0)), True,
                     id="fixed_point_jacobian"),
        pytest.param(lambda d: state_rank_vector("rootdegree", d, (1.0, 0.0)), False,
                     id="state_rank_vector"),
        pytest.param(lambda d: f_degree(d, params_for("rootdegree", 1.0)), False,
                     id="f_degree"),
    ])
    def test_rootdegree_state_map_domain(self, call, slope, degree):
        # the score sqrt(d) takes d >= 0 and its slope 1 / (2 sqrt(d)) d > 0;
        # before this rule a zero gave infinite slopes and a negative NaN scores
        d = np.full(3, degree)
        if degree < 0:
            with pytest.raises(DomainError, match="in-degree state must be nonnegative"):
                call(d)
        elif slope:
            with pytest.raises(DomainError, match="slope needs positive in-degrees"):
                call(d)
        else:
            assert np.isfinite(call(d)).all()

    def test_state_of_conventions(self):
        rng = np.random.default_rng(4)
        a = rng.random((5, 5))
        p = {kind: ModelParams(lam=0.9, score_kind=kind) for kind in KINDS}
        assert np.array_equal(state_of(a, p["rootdegree"]), a.sum(axis=0))
        from endorse_dyn.scores import pagerank_score, springrank_score

        assert np.array_equal(state_of(a, p["pagerank"]), pagerank_score(a, p["pagerank"].alpha_p))
        assert np.array_equal(state_of(a, p["springrank"]),
                              springrank_score(a, p["springrank"].alpha_s))


class TestDrifts:
    def test_degree_drift_zero_at_egalitarian(self):
        for n, m in [(8, 1), (7, 3)]:
            p = params_for("rootdegree", 1.0, -2.0, m=m)
            f = f_degree(np.full(n, m / n), p)
            assert np.abs(f).max() < 1e-12

    def test_springrank_drift_zero_at_egalitarian(self):
        # odd n exercises the non dyadic 1/n arithmetic
        for n in (7, 8):
            p = params_for("springrank", 1.5, -0.5, m=2)
            a_egal = 2 * state_rate_matrix("springrank", np.zeros(n), p.beta)
            f = f_drift("springrank", np.zeros(n), a_egal, p)
            assert np.abs(f).max() < 1e-10

    def test_pagerank_drift_zero_at_egalitarian(self):
        p = params_for("pagerank", 0.8, -1.0, m=2)
        e = np.ones(6)
        a_egal = 2 * state_rate_matrix("pagerank", e, p.beta)
        f = f_drift("pagerank", e, a_egal, p)
        assert np.abs(f).max() < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_generic_small_step_limit(self, kind):
        rng = np.random.default_rng(5)
        s = random_state(kind, 5, rng)
        p = params_for(kind, 1.1, -0.6, m=2)
        a = 2 * state_rate_matrix(kind, s, p.beta)  # consistent pair (s, a)
        if kind == "rootdegree":
            a = a * (s / a.sum(axis=0))[None, :]  # force in-degree = s exactly
        s_chk = state_of(a, p)
        if kind != "rootdegree":
            s = s_chk  # re-anchor to the exact state of a
        closed = f_drift(kind, s, a, p)
        oracle = finite_memory_drift(s, a, p.with_(lam=1 - 1e-6))
        assert np.abs(closed - oracle).max() < 1e-4

    def test_pagerank_drift_needs_positive_out_degrees(self):
        a = np.ones((3, 3))
        a[1] = 0.0
        p = params_for("pagerank", 1.1, -0.6, m=2)
        with pytest.raises(DomainError, match="strictly positive out-degrees"):
            f_drift("pagerank", np.ones(3), a, p)

    def test_pagerank_drift_needs_the_adjacency(self):
        # with a = m G(s) the pagerank forcing vanishes at every s
        p = params_for("pagerank", 1.1, -0.6, m=2)
        with pytest.raises(DomainError, match="f_pagerank_root_system"):
            f_drift("pagerank", np.array([1.7, 0.8, 0.5]), None, p)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("kind", ["pagerank", "springrank"])
    def test_drift_rejects_bad_adjacency(self, kind, entry):
        p = params_for(kind, 1.1, -0.6, m=2)
        s = egalitarian_root(kind, 3, 2)
        a = 2 * state_rate_matrix(kind, s, p.beta)
        a[0, 1] = entry
        with pytest.raises(DomainError, match="adjacency"):
            f_drift(kind, s, a, p)

    def test_degree_drift_rejects_negative_degrees(self):
        with pytest.raises(DomainError):
            f_degree(np.array([0.5, -0.1, 0.6]), params_for("rootdegree", 1.0))


class TestPagerankRootSystem:
    def test_root_system_rejects_off_manifold_input(self):
        p = params_for("pagerank", 1.0, 0.0)
        with pytest.raises(DomainError):
            f_pagerank_root_system(np.array([2.0, 2.0, 2.0]), p)  # sums to 6, n = 3
        with pytest.raises(DomainError):
            f_pagerank_root_system(np.array([3.2, -0.1, -0.1]), p)

    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_vanishes_at_the_pagerank_roots_and_gives_their_residual(self, kind, n):
        """At every root two_group_equilibria reports, below and above
        beta1_c, the kind's root system vanishes and its sup norm is the
        root's reported residual; pagerank's is f_pagerank_root_system."""
        p = params_for(kind, 0.0, -0.3)
        bc = critical_beta1(kind, n, 1)
        roots = two_group_equilibria(p, n, [0.9 * bc, 1.5 * bc])
        assert len({eq.k_elite for _, eq in roots}) >= 3
        for beta1, eq in roots:
            pb = p.with_(beta=(beta1, -0.3))
            f = _full_residual(eq.s_star, pb)
            if kind == "pagerank":
                assert np.array_equal(f, f_pagerank_root_system(eq.s_star, pb))
            r = np.abs(f).max()
            assert r <= 1e-12, (beta1, eq.k_elite)
            assert abs(r - eq.residual) <= 1e-14, (beta1, eq.k_elite)


class TestEgalitarianJacobian:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("ratio", [0.5, 1.2])
    def test_leading_eigenvalue_is_beta_ratio_minus_one(self, kind, ratio):
        n, m = 5, 2
        bc = critical_beta1(kind, n, m)
        p = params_for(kind, ratio * bc, -1.0, m=m)
        _, eigs = jacobian_egalitarian(p, n)
        assert eigs.real.max() == pytest.approx(ratio - 1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_beta2_never_enters(self, kind):
        n = 6
        p0 = params_for(kind, 1.3, 0.0, m=2)
        p5 = params_for(kind, 1.3, -5.0, m=2)
        j0, _ = jacobian_egalitarian(p0, n)
        j5, _ = jacobian_egalitarian(p5, n)
        assert np.abs(j0 - j5).max() < 1e-12


def reference_dprob(kind, s, beta):
    """dp_ij/ds_k from the n^3 reference tensor, with the sqrt chain rule."""
    if kind == "rootdegree":
        return dprob_tensor(np.sqrt(s), beta) * (0.5 / np.sqrt(s))[None, None, :]
    return dprob_tensor(s, beta)


def reference_jacobian(kind, s, params):
    """The drift Jacobian assembled from full n^3 tensor contractions."""
    n, m = s.shape[0], params.m
    dp = reference_dprob(kind, s, params.beta)
    m_mat = dp.mean(axis=0)
    if kind == "rootdegree":
        return m * m_mat - np.eye(n)
    g = state_rate_matrix(kind, s, params.beta)
    dg = dp / n
    if kind == "pagerank":
        alpha = params.alpha_p
        w = (n * g).T
        rhs = n * (
            np.einsum("ijk,i->jk", dg, s) - w @ (np.einsum("ijk->ik", dg) * s[:, None])
        )
        return alpha * np.linalg.solve(np.eye(n) - alpha * w, rhs) - np.eye(n)
    gamma = g.sum(axis=0)
    lg = np.diag(gamma) + np.eye(n) / n - (g + g.T)
    dsym = np.einsum("ijk,i->jk", dg, s) + np.einsum("jik,i->jk", dg, s)
    df = params.alpha_s * np.eye(n) + m * (lg + m_mat * s[:, None] - dsym - m_mat)
    y = np.linalg.solve(m * lg + params.alpha_s * np.eye(n), df - df.mean(axis=0))
    return -(y - y.mean(axis=0)) - 1.0 / n


def two_group_state(kind, n, rng):
    k = int(rng.integers(1, n))
    hi, lo = 1.0 + rng.random(), 0.2 + 0.5 * rng.random()
    s = np.where(np.arange(n) < k, hi, lo)
    if kind == "pagerank":
        return s * n / s.sum()
    if kind == "springrank":
        return s - s.mean()
    return s


class TestClosedFormDerivatives:
    def test_reference_tensor_matches_fd(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=5)
        beta = (1.3, -0.8)
        fd = np.empty((5, 5, 5))
        for k in range(5):
            h = 1e-6 * (1 + abs(s[k]))
            sp, sm = s.copy(), s.copy()
            sp[k] += h
            sm[k] -= h
            fd[:, :, k] = (
                state_probabilities("springrank", sp, beta)
                - state_probabilities("springrank", sm, beta)
            ) / (2 * h)
        assert np.allclose(dprob_tensor(s, beta), fd, atol=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("state", ["egalitarian", "two-group"])
    def test_match_the_tensor_reference(self, kind, n, state):
        rng = np.random.default_rng(n)
        beta = tuple(rng.normal(size=2) * 1.5)
        p = params_for(kind, *beta, m=3)
        if state == "egalitarian":
            s = egalitarian_root(kind, n, p.m)
        else:
            s = two_group_state(kind, n, rng)
        ref_m = reference_dprob(kind, s, beta).mean(axis=0)
        ref_j = reference_jacobian(kind, s, p)
        m_mat = dgamma_ds(kind, s, beta)
        jac = fixed_point_jacobian(s, p)
        assert np.abs(m_mat - ref_m).max() <= 1e-12 * max(1.0, np.abs(ref_m).max())
        assert np.abs(jac - ref_j).max() <= 1e-12 * max(1.0, np.abs(ref_j).max())


def affinity_drift(kind, a, params):
    s = state_of(a, params)
    return params.m * state_rate_matrix(kind, s, params.beta) - a


def affinity_jacobian_fd(kind, a_star, params):
    n = a_star.shape[0]
    jac = np.empty((n * n, n * n))
    flat = a_star.ravel()
    for col in range(n * n):
        h = 1e-6 * (1 + abs(flat[col]))
        ap, am = flat.copy(), flat.copy()
        ap[col] += h
        am[col] -= h
        diff = affinity_drift(kind, ap.reshape(n, n), params) - affinity_drift(
            kind, am.reshape(n, n), params
        )
        jac[:, col] = diff.ravel() / (2 * h)
    return jac


class TestFixedPointJacobian:
    def test_degree_jacobian_matches_fd_of_drift(self):
        rng = np.random.default_rng(6)
        s = rng.random(5) * 2 + 0.2
        p = params_for("rootdegree", 3.0, -0.8, m=2)
        jac = fixed_point_jacobian(s, p)
        fd = np.empty((5, 5))
        for k in range(5):
            h = 1e-6 * (1 + s[k])
            sp, sm = s.copy(), s.copy()
            sp[k] += h
            sm[k] -= h
            fd[:, k] = (f_degree(sp, p) - f_degree(sm, p)) / (2 * h)
        assert np.abs(jac - fd).max() < 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_reduced_spectrum_embeds_in_affinity_flow(self, kind):
        """At a hierarchical fixed point the n^2 affinity eigenvalues are the
        n reduced ones plus n^2 - n copies of -1."""
        n, m = 5, 2
        bc = critical_beta1(kind, n, m)
        p = params_for(kind, 1.5 * bc, -0.3, m=m)
        hier = [
            eq
            for _, eq in two_group_equilibria(p, n, [1.5 * bc])
            if eq.k_elite == 1 and eq.stable
        ]
        assert hier, "expected a stable one-elite equilibrium above threshold"
        eq = hier[0]
        a_star = p.m * state_rate_matrix(kind, eq.s_star, p.beta)
        full = np.linalg.eigvals(affinity_jacobian_fd(kind, a_star, p))
        reduced = eq.jacobian_eigs
        expected = np.concatenate([reduced, -np.ones(n * n - n)])
        assert np.allclose(
            np.sort_complex(full), np.sort_complex(expected), atol=1e-5
        )


class TestTwoGroupContinuation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_supercritical_point_has_stable_elite_and_unstable_egalitarian(self, kind):
        n, m = 8, 1
        bc = critical_beta1(kind, n, m)
        p = params_for(kind, 0.0, 0.0, m=m)
        eqs = [eq for _, eq in two_group_equilibria(p, n, [1.5 * bc])]
        egal = [eq for eq in eqs if eq.k_elite == 0]
        hier = [eq for eq in eqs if eq.k_elite == 1]
        assert egal and not egal[0].stable
        assert any(eq.stable and eq.a > eq.b for eq in hier)
        assert all(eq.residual <= 1e-8 for eq in eqs)

    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank"])
    def test_bistable_window_below_threshold(self, kind):
        n, m = 8, 1
        bc = critical_beta1(kind, n, m)
        p = params_for(kind, 0.0, 0.0, m=m)
        eqs = [eq for _, eq in two_group_equilibria(p, n, [0.9 * bc])]
        stable_egal = [eq for eq in eqs if eq.k_elite == 0 and eq.stable]
        stable_hier = [eq for eq in eqs if eq.k_elite == 1 and eq.stable]
        assert stable_egal and stable_hier

    def test_branches_span_grid_and_flip_stability(self):
        n, m = 8, 1
        bc = critical_beta1("rootdegree", n, m)
        grid = np.linspace(0.5 * bc, 1.5 * bc, 5)
        p = params_for("rootdegree", 0.0, 0.0, m=m)
        egal = [(b1, eq) for b1, eq in two_group_equilibria(p, n, grid)
                if eq.k_elite == 0]
        assert np.allclose([b1 for b1, _ in egal], grid)
        stab = [eq.stable for _, eq in egal]
        assert stab[0] and not stab[-1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_fewer_than_two_nodes(self, n):
        p = params_for("rootdegree", 1.0)
        with pytest.raises(DomainError, match="n >= 2"):
            two_group_equilibria(p, n, [1.0])

    def test_rejects_a_fractional_node_count(self):
        p = params_for("rootdegree", 1.0)
        with pytest.raises(DomainError, match="n must be an integer"):
            two_group_equilibria(p, 2.5, [1.0])


def scan_every_k(kind, params, n, grid):
    """Two-group roots by a scan of every k = 1..n-1, as an oracle.

    Each k continues its own roots over the grid from the kind's seeds for
    k only, deduplicates them, and classifies them; roots are then
    deduplicated by value per (beta1, k_elite), the first found kept, and
    sorted like `two_group_equilibria`'s.
    """
    kept = {}
    for k in range(1, n):
        carried = []
        for b1 in grid:
            p = params.with_(beta=(b1, params.beta[1]))
            uniq = []
            for x0 in _KINDS[kind].seeds(n, k, p.m) + carried:
                x = _newton_two_group(p, n, k, x0)
                if x is None:
                    continue
                scale = 1.0 + abs(x[0]) + abs(x[1])
                if not any(np.abs(x - u).max() < 1e-7 * scale for u in uniq):
                    uniq.append(x)
            carried = uniq
            for x in uniq:
                eq = _classify(x, k, n, p)
                group = kept.setdefault((b1, eq.k_elite), [])
                scale = 1.0 + abs(eq.a) + abs(eq.b)
                if not any(abs(eq.a - o.a) + abs(eq.b - o.b) < 1e-6 * scale for o in group):
                    group.append(eq)
    rows = [(b1, eq) for (b1, _), group in kept.items() for eq in group]
    return sorted(rows, key=lambda r: (r[0], r[1].k_elite, r[1].a, r[1].b))


class TestOneScan:
    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_scan_of_every_k(self, kind, n):
        bc = critical_beta1(kind, n, 1)
        grid = [0.6 * bc, 0.9 * bc, 1.1 * bc, 1.6 * bc]
        p = params_for(kind, 0.0, -0.3, m=1)
        got = two_group_equilibria(p, n, grid)
        want = scan_every_k(kind, p, n, grid)
        key = lambda rows: [(b1, eq.k_elite, eq.stable) for b1, eq in rows]
        assert key(got) == key(want)
        for (_, g), (_, w) in zip(got, want):
            if kind == "springrank":
                assert abs(g.a - w.a) <= 1e-8 and abs(g.b - w.b) <= 1e-8
            else:
                assert abs(g.a - w.a) <= 1e-12 * abs(w.a) and abs(g.b - w.b) <= 1e-12 * abs(w.b)
            assert abs(g.max_eig_real - w.max_eig_real) <= 1e-12


class TestScanStarts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_newton_start_at_the_egalitarian_root(self, kind, monkeypatch):
        # the egalitarian root is classified at its closed form; a Newton
        # start there only finds it again
        n = 8
        bc = critical_beta1(kind, n, 1)
        grid = [0.6 * bc, 0.9 * bc, 1.1 * bc, 1.6 * bc]
        starts = {}
        newton = stability._newton_two_group

        def recorded(p, n, k, x0):
            starts.setdefault((k, p.beta[0]), []).append(np.array(x0, dtype=float))
            return newton(p, n, k, x0)

        monkeypatch.setattr(stability, "_newton_two_group", recorded)
        two_group_equilibria(params_for(kind, 0.0, -0.3, m=1), n, grid)
        assert set(starts) == {(k, b1) for k in range(1, n // 2 + 1) for b1 in grid}
        for (k, _), xs in starts.items():
            assert all(_canonical(x, k, n)[2] != 0 for x in xs), (k, xs)
            # the fixed starts, the same at every grid point, come first
            fixed = starts[k, grid[0]]
            assert len(fixed) == 8
            assert all(np.array_equal(x, y) for x, y in zip(xs, fixed))


def missed_pagerank_root():
    """TestOneScan's pagerank setup at n=16 and 0.9 beta1_c, and a stable
    one-elite root there that Newton reaches from a start on e^T s = n."""
    n, k = 16, 1
    bc = critical_beta1("pagerank", n, 1)
    p = params_for("pagerank", 0.0, -0.3, m=1)
    pb = p.with_(beta=(0.9 * bc, -0.3))
    x = _newton_two_group(pb, n, k, np.array([4.0, 0.8]))  # 4 + 15 * 0.8 = n
    assert x is not None
    eq = _classify(x, k, n, pb)
    assert eq.k_elite == 1 and eq.stable and eq.residual <= 1e-12
    assert abs(eq.a - 4.43304) < 1e-5 and abs(eq.b - 0.77113) < 1e-5
    return p, n, [0.6 * bc, 0.9 * bc, 1.1 * bc, 1.6 * bc], eq


class TestMissedBranch:
    def test_the_missed_root_is_a_stable_root(self):
        missed_pagerank_root()

    @pytest.mark.xfail(strict=True, reason="ROADMAP known defect 8: the scan's starts miss "
                       "a stable pagerank branch")
    def test_scan_finds_the_stable_one_elite_pagerank_root(self):
        p, n, grid, eq = missed_pagerank_root()
        rows = two_group_equilibria(p, n, grid)
        assert any(b1 == grid[1] and got.k_elite == 1
                   and abs(got.a - eq.a) + abs(got.b - eq.b) < 1e-6 for b1, got in rows)


class TestCriticalPointCopies:
    @pytest.mark.xfail(strict=True, reason="ROADMAP known defect 7: at beta1_c the scan lists "
                       "near-copies of the egalitarian root as elite rows")
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_elite_row_copies_the_egalitarian_root(self, kind, n):
        # genuine elite roots at beta1_c have a relative gap of at least 0.03
        bc = critical_beta1(kind, n, 1)
        rows = two_group_equilibria(params_for(kind, 0.0), n, [bc])
        gaps = [abs(eq.a - eq.b) / (1.0 + abs(eq.a) + abs(eq.b))
                for _, eq in rows if eq.k_elite > 0]
        assert not [gap for gap in gaps if gap < 1e-3]


# ---------------------------------------------------------------------------
# the two-group quotient against its n-dimensional oracles
# ---------------------------------------------------------------------------

QUOTIENT_CASES = [
    (kind, n, k) for kind in KINDS for n in (5, 8, 16) for k in sorted({1, n // 2, n - 1})
]


def quotient_point(kind, n, k, order):
    """Parameters with beta2 != 0 and a two-group state (a, b) that is no root.

    order: "elite-high" (a > b), "elite-low" (a < b, which `_classify`
    relabels to n - k elite nodes) or "tie" (a = b, k_elite 0).
    """
    rng = np.random.default_rng(1000 * n + 10 * k + KINDS.index(kind))
    p = params_for(kind, 1.0 + 2.0 * rng.random(), -0.2 - rng.random(), m=2)
    hi, lo = 0.6 + rng.random(), 0.1 + 0.4 * rng.random()
    if kind == "springrank":
        hi, lo = hi - 0.5, lo - 0.5
    a, b = {"elite-high": (hi, lo), "elite-low": (lo, hi), "tie": (hi, hi)}[order]
    return p, a, b


class TestTwoGroupQuotient:
    @pytest.mark.parametrize("order", ["elite-high", "elite-low", "tie"])
    @pytest.mark.parametrize("kind,n,k", QUOTIENT_CASES)
    def test_residual_matches_full_root_system(self, kind, n, k, order):
        p, a, b = quotient_point(kind, n, k, order)
        full = _full_residual(_two_group_vector(a, b, k, n), p)[[0, k]]
        (f0, f1), _ = _KINDS[kind].quotient(a, b, k, n, p)
        assert np.abs(np.array([f0, f1]) - full).max() <= 1e-14 * max(1.0, np.abs(full).max())

    @pytest.mark.parametrize("order", ["elite-high", "elite-low", "tie"])
    @pytest.mark.parametrize("kind,n,k", QUOTIENT_CASES)
    def test_jacobian_matches_central_differences(self, kind, n, k, order):
        p, a, b = quotient_point(kind, n, k, order)
        _, jac = _KINDS[kind].quotient(a, b, k, n, p)
        fd = np.empty((2, 2))
        for j in range(2):
            h = 1e-6 * (1.0 + abs((a, b)[j]))
            xp, xm = [a, b], [a, b]
            xp[j] += h
            xm[j] -= h
            fp, _ = _KINDS[kind].quotient(*xp, k, n, p)
            fm, _ = _KINDS[kind].quotient(*xm, k, n, p)
            fd[:, j] = (np.array(fp) - np.array(fm)) / (2.0 * h)
        assert np.abs(np.array(jac) - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())

    @pytest.mark.parametrize("order", ["elite-high", "elite-low", "tie"])
    @pytest.mark.parametrize("kind,n,k", QUOTIENT_CASES)
    def test_classification_matches_full_spectrum(self, kind, n, k, order):
        p, a, b = quotient_point(kind, n, k, order)
        eq = _classify(np.array([a, b]), k, n, p)
        assert eq.k_elite == {"elite-high": k, "elite-low": n - k, "tie": 0}[order]
        assert eq.a >= eq.b
        assert np.array_equal(eq.s_star, _two_group_vector(eq.a, eq.b, eq.k_elite, n))
        full = np.linalg.eigvals(fixed_point_jacobian(eq.s_star, p))
        ref = full.real.max()
        assert abs(eq.max_eig_real - ref) <= 1e-12 * max(1.0, abs(ref))
        # the whole spectrum, multiplicities included
        assert eq.jacobian_eigs.shape == (n,)
        assert np.abs(np.sort_complex(eq.jacobian_eigs) - np.sort_complex(full)).max() < 1e-10
        reported = np.abs(_full_residual(eq.s_star, p)).max()
        assert abs(eq.residual - reported) <= 1e-14 * max(1.0, reported)

    @pytest.mark.parametrize("kind", KINDS)
    def test_roots_at_n256_match_full_oracles(self, kind):
        n, m = 256, 1
        bc = critical_beta1(kind, n, m)
        p = params_for(kind, 0.0, 0.0, m=m)
        # elite sizes 1, 64 and 255 and their canonical partners n - k
        roots = [(b1, eq) for b1, eq in two_group_equilibria(p, n, [0.8 * bc, 1.2 * bc])
                 if eq.k_elite in (1, 64, 192, 255)]
        assert len(roots) >= 3
        for b1, eq in roots:
            pb = p.with_(beta=(b1, 0.0))
            reported = np.abs(_full_residual(eq.s_star, pb)).max()
            assert reported <= 1e-8
            assert abs(eq.residual - reported) <= 1e-12
            ref = np.linalg.eigvals(fixed_point_jacobian(eq.s_star, pb)).real.max()
            # LAPACK resolves the nonsymmetric J's within-group eigenvalue,
            # of multiplicity up to 254 here, only to about 4e-11
            assert abs(eq.max_eig_real - ref) <= 1e-10


    def test_rootdegree_root_with_vanishing_rest_classifies(self):
        # at n=1000 the rest's in-degree at the one-elite root underflows to
        # ~1e-28; Newton keeps it positive, so sqrt's slope stays finite
        n = 1000
        b1 = 0.9 * critical_beta1("rootdegree", n, 1)
        p = params_for("rootdegree", 0.0, 0.0, m=1)
        # the roots a scan at k = 1 alone finds, canonicalized
        eqs = [eq for _, eq in two_group_equilibria(p, n, [b1])
               if eq.k_elite in (0, 1, n - 1)]
        assert any(eq.k_elite == 1 and eq.stable for eq in eqs)
        pb = p.with_(beta=(b1, 0.0))
        for eq in eqs:
            assert np.all(np.isfinite(eq.jacobian_eigs))
            assert eq.b > 0.0
            assert np.abs(f_degree(eq.s_star, pb)).max() <= 1e-8

    def test_roots_hold_no_array_of_length_n(self):
        # two length-n arrays per root would hold about 29 MB for the 915
        # roots of one beta1 here
        n = 2000
        p = params_for("rootdegree", 0.0, 0.0, m=1)
        rows = two_group_equilibria(p, n, [0.9 * critical_beta1("rootdegree", n, 1)])
        assert len(rows) > n // 4
        for _, eq in rows:
            assert all(np.size(getattr(eq, f.name)) <= 2 for f in dataclasses.fields(eq))
        for _, eq in rows[:3] + rows[-3:]:  # the egalitarian root and both ends of k
            assert eq.s_star.shape == eq.jacobian_eigs.shape == (n,)
            assert eq.max_eig_real == eq.jacobian_eigs.real.max()


class TestTypedErrors:
    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_utility_names_kind_k_and_beta1(self, kind):
        p = params_for(kind, 1e308, 0.0, m=1)
        with pytest.raises(DomainError, match=rf"{kind} .*k=2, beta1=1e\+308.*finite"):
            _newton_two_group(p, 6, 2, np.array([9.0, 1.0]))

    def test_newton_gives_up_on_a_non_finite_start(self):
        # the utilities are finite, but alpha_s s overflows in the start's residual
        p = ModelParams(lam=0.9, alpha_s=1e308, score_kind="springrank")
        assert _newton_two_group(p, 4, 2, np.array([10.0, -10.0])) is None

    def test_newton_stops_at_a_singular_jacobian(self):
        # at beta = 0 the springrank quotient is linear; with 0.5 + 1e-300 ==
        # 0.5 its Jacobian [[1, -1], [-1, 1]] / 4 is exactly singular
        p = ModelParams(lam=0.9, alpha_s=1e-300, score_kind="springrank")
        (f0, _), jac = _KINDS["springrank"].quotient(1.0, 0.0, 2, 4, p)
        assert f0 == 0.25 and jac == [(0.25, -0.25), (-0.25, 0.25)]
        assert _newton_two_group(p, 4, 2, np.array([1.0, 0.0])) is None

    def test_sweep_raises_domain_error(self):
        # the egalitarian root s = 1 keeps beta1 s finite; the first seed does not
        p = params_for("pagerank", 0.0, -1.0, m=1)
        with pytest.raises(DomainError, match=r"pagerank .*k=1, beta1=1e\+308"):
            two_group_equilibria(p, 8, [1e308])

    def test_egalitarian_root_names_k_0(self):
        # sqrt(m / n) > 1 at the egalitarian root, so beta1 sqrt(m / n) overflows
        p = params_for("rootdegree", 0.0, 0.0, m=4)
        with pytest.raises(DomainError, match=r"rootdegree .*k=0, beta1=1e\+308.*finite"):
            two_group_equilibria(p, 2, [1e308])


class TestInputRules:
    """The kind, beta and n rules of `core` hold at every entry point here."""

    @pytest.mark.parametrize("call", [
        lambda: critical_beta1(["x"], 8, 1),
        lambda: state_rank_vector(["x"], np.ones(3), (1.0, 0.0)),
        lambda: critical_beta1(10**5000, 8, 1),
        lambda: f_drift(10**5000, np.ones(3), None, ModelParams(lam=0.9)),
        lambda: egalitarian_root(np.str_("nope"), 5, 1),
    ], ids=["unhashable", "unhashable-state-map", "huge-int", "huge-int-drift", "numpy-str"])
    def test_refuses_a_kind_that_is_not_a_kind_name(self, call):
        with pytest.raises(DomainError, match="unknown score kind .*; choose from"):
            call()

    @pytest.mark.parametrize("beta", [(10**400, 0), ("a", "b"), (None, 0), (np.nan, 0), (1.0,)])
    @pytest.mark.parametrize("call", [
        dprob_tensor,
        lambda s, beta: state_rank_vector("pagerank", s, beta),
        lambda s, beta: dgamma_ds("rootdegree", s, beta),
    ], ids=["dprob_tensor", "state_rank_vector", "dgamma_ds"])
    def test_refuses_a_beta_that_is_not_two_finite_reals(self, call, beta):
        with pytest.raises(DomainError, match="beta needs 2 coefficients"):
            call(np.array([0.5, 1.5]), beta)

    @pytest.mark.parametrize("beta1", ["1.5", "x"])
    def test_two_group_equilibria_refuses_a_grid_beta1_before_any_solve(self, beta1,
                                                                        monkeypatch):
        calls = []
        monkeypatch.setattr(stability, "_classify", lambda *a: calls.append(a))
        monkeypatch.setattr(stability, "_newton_two_group", lambda *a: calls.append(a))
        with pytest.raises(DomainError, match="^beta needs 2 coefficients"):
            two_group_equilibria(params_for("rootdegree", 0.0), 5, [0.5, beta1])
        assert calls == []

    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank"])
    def test_f_drift_refuses_a_kind_that_params_does_not_name(self, kind):
        s = egalitarian_root("springrank", 3, 1)
        with pytest.raises(DomainError, match=f"^score kind '{kind}' is not params' kind "
                                              "'springrank'$"):
            f_drift(kind, s, np.ones((3, 3)), params_for("springrank", 1.0))

    # N_MAX + 1 and above fail the rule before anything of their size is built
    @pytest.mark.parametrize("n", [-3, 0, 1, 2.5, 8.0, np.float64(8), N_MAX + 1, 99999999999])
    @pytest.mark.parametrize("call", [
        lambda n: egalitarian_root("rootdegree", n, 1),
        lambda n: jacobian_egalitarian(params_for("pagerank", 1.0), n),
        lambda n: critical_beta1("springrank", n, 1),
        lambda n: two_group_equilibria(params_for("rootdegree", 1.0), n, [1.0]),
    ], ids=["egalitarian_root", "jacobian_egalitarian", "critical_beta1",
            "two_group_equilibria"])
    def test_refuses_an_n_outside_the_rule(self, call, n):
        with pytest.raises(DomainError, match="n must be an integer with n >= 2"):
            call(n)

    @pytest.mark.parametrize("m", ["x", None, 0, -1.0, np.nan, np.inf,
                                   pytest.param(10**5000, id="huge-m")])
    def test_egalitarian_root_refuses_an_m_that_is_not_a_positive_finite_real(self, m):
        with pytest.raises(DomainError, match="m must be positive and finite"):
            egalitarian_root("rootdegree", 4, m)

    def test_egalitarian_root_takes_a_mean_count(self):
        assert np.array_equal(egalitarian_root("rootdegree", 4, 2.5), np.full(4, 0.625))

    def test_finite_memory_drift_refuses_lambda_one(self):
        s = egalitarian_root("springrank", 3, 1)
        p = params_for("springrank", 1.0).with_(lam=1.0)
        with pytest.raises(DomainError, match="lambda < 1"):
            finite_memory_drift(s, np.ones((3, 3)), p)


class TestCriticalValueDomain:
    @pytest.mark.parametrize("kind,n,m,alpha_s", [
        ("springrank", 8, 1, np.nan), ("springrank", 8, 1, np.inf),
        ("rootdegree", 8, np.nan, 1e-8), ("rootdegree", 8, np.inf, 1e-8),
        ("pagerank", 8, np.nan, 1e-8), ("springrank", 8, 0.0, 1e-8),
        ("rootdegree", np.nan, 1, 1e-8), ("rootdegree", 2.5, 1, 1e-8),
        ("springrank", np.inf, 1, 1e-8),
        # numpy would cast the bound to float32, where it is inf
        ("springrank", 8, np.float32(np.inf), 1e-8),
        # a mean count, but a real number
        ("rootdegree", 8, "1", 1e-8), ("pagerank", 8, None, 1e-8),
        # integers too long to print (over 4300 digits) or too large for a float
        pytest.param("rootdegree", 10**5000, 1, 1e-8, id="huge-n"),
        pytest.param("springrank", -10**5000, 1, 1e-8, id="huge-negative-n"),
        pytest.param("springrank", 8, 10**5000, 1e-8, id="huge-m"),
        pytest.param("pagerank", 8, -10**5000, 1e-8, id="huge-negative-m"),
        pytest.param("rootdegree", 10**400, 1, 1e-8, id="n-above-float-range"),
        pytest.param("springrank", 8, 1, 10**5000, id="huge-alpha_s"),
        # the damping rule holds for every kind, also one that ignores it
        ("springrank", 8, 1, 0.0), ("rootdegree", 8, 1, -1.0), ("pagerank", 8, 1, np.nan),
    ])
    def test_rejects_nonfinite_or_nonintegral_arguments(self, kind, n, m, alpha_s):
        with pytest.raises(DomainError):
            critical_beta1(kind, n, m, alpha_s=alpha_s)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("alpha_p", [0.0, 1.0, np.nan])
    def test_rejects_alpha_p_outside_the_unit_interval(self, kind, alpha_p):
        with pytest.raises(DomainError, match="alpha_p"):
            critical_beta1(kind, 8, 1, alpha_p=alpha_p)


class TestOneSpdSolvePath:
    """The stability solves take scores._cholesky_solve, with the bits of
    scipy.linalg.solve(assume_a="pos")."""

    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_springrank_drift_and_jacobian_bits(self, n, monkeypatch):
        import endorse_dyn.stability as stability

        rng = np.random.default_rng(n)
        p = params_for("springrank", 1.7, -0.4, m=3)
        s = random_state("springrank", n, rng)
        a = rng.random((n, n)) * 3
        got = (f_drift("springrank", s, a, p), f_drift("springrank", s, None, p),
               fixed_point_jacobian(s, p))
        monkeypatch.setattr(
            stability, "_cholesky_solve",
            lambda lap, rhs: scipy.linalg.solve(lap, rhs, assume_a="pos"),
        )
        want = (f_drift("springrank", s, a, p), f_drift("springrank", s, None, p),
                fixed_point_jacobian(s, p))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
