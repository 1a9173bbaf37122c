import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from endorse_dyn import choice, scores, sim
from endorse_dyn.core import EndorsementState, ModelParams, rank_vector, step, uniform_initial
from endorse_dyn.data import simulate_sequence
from endorse_dyn.errors import DomainError, NumericError
from endorse_dyn.sim import (
    _SEED_BLOCK_PAIRS,
    LOCKSTEP_MAX_ENTRIES,
    Trajectory,
    _cell_seed,
    _initial,
    _seed_hasher,
    _step_rng,
    _steps,
    _Words,
    mean_gamma,
    rank_variance,
    run,
    simulate_cells,
    variance_sweep,
)
from endorse_dyn.stability import critical_beta1


def tiled_utility(s, beta):
    """u_ij = beta1 s_j + beta2 (s_i - s_j)^2 built from tiled feature
    matrices, skipping zero coefficients: the reference for choice.utility."""
    n = s.shape[0]
    u = np.zeros((n, n))
    if beta[0] != 0.0:
        u += beta[0] * np.tile(s, (n, 1))
    if beta[1] != 0.0:
        u += beta[1] * (s[:, None] - s[None, :]) ** 2
    return u


def public_score(a, params):
    """The public score function of params.score_kind, called by name, so
    that the replay shares no per-run binding with the kernel."""
    if params.score_kind == "rootdegree":
        return scores.root_degree_score(a)
    if params.score_kind == "pagerank":
        return scores.pagerank_score(a, params.alpha_p)
    return scores.springrank_score(a, params.alpha_s)


def manual_run(params, a0, steps):
    """Re-simulate with plain loops through EndorsementState, step and
    rank_vector, no Trajectory plumbing."""
    state = EndorsementState(a=np.asarray(a0, dtype=float))
    hist, deltas = [], []
    for t in range(steps):
        s = public_score(state.a, params)
        p = choice.choice_probabilities(tiled_utility(s, params.beta))
        hist.append(rank_vector(p))
        delta = choice.sample_delta(p, params.m, _step_rng(params.seed, t))
        deltas.append(delta)
        state = step(state, delta, params.lam)
    return np.array(hist), state.a, deltas


# rootdegree scores of this start are (1, 2, 1), so beta1 = 1e308 overflows
OVERFLOW_A0 = [[0.0, 4.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


class TestRun:
    def test_bit_reproducible(self):
        p = ModelParams(lam=0.9, beta=(1.5, -0.5), m=3, score_kind="springrank", seed=42)
        a0 = uniform_initial(5, 3)
        t1 = run(p, a0=a0, steps=60)
        t2 = run(p, a0=a0, steps=60)
        assert np.array_equal(t1.gamma_t, t2.gamma_t)
        assert np.array_equal(t1.a_final, t2.a_final)

    @pytest.mark.parametrize("lam", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_matches_manual_replay(self, kind, lam):
        p = ModelParams(lam=lam, beta=(2.0, -1.0), m=2, score_kind=kind, seed=7)
        a0 = uniform_initial(4, 2)
        traj = run(p, a0=a0, steps=25)
        hist, a_last, _ = manual_run(p, a0, 25)
        assert np.array_equal(traj.gamma_t, hist)
        assert np.array_equal(traj.a_final, a_last)

    @pytest.mark.parametrize("kind", ["rootdegree", "pagerank", "springrank"])
    def test_simulate_sequence_matches_manual_replay(self, kind):
        p = ModelParams(lam=0.8, beta=(2.0, -1.0), m=3, score_kind=kind, seed=9)
        a0 = uniform_initial(5, 3)
        seq = simulate_sequence(p, a0, periods=20)
        _, _, deltas = manual_run(p, a0, 20)
        assert len(seq.deltas) == len(deltas)
        assert all(np.array_equal(d, e) for d, e in zip(seq.deltas, deltas))

    def test_run_does_not_modify_a0(self):
        p = ModelParams(lam=0.5, beta=(1.0, 0.0), m=2, score_kind="rootdegree", seed=2)
        a0 = uniform_initial(4, 2)
        before = a0.copy()
        traj = run(p, a0=a0, steps=5)
        assert np.array_equal(a0, before)
        assert not np.array_equal(traj.a_final, before)

    def test_utility_overflow_names_the_step(self):
        p = ModelParams(lam=0.5, beta=(1e308, 0.0), score_kind="rootdegree", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="step 0: utilities must be finite") as exc:
                run(p, a0=OVERFLOW_A0, steps=3)
        assert str(exc.value) == "step 0: utilities must be finite"  # one cell: no beta

    def test_utility_overflow_names_the_period(self):
        p = ModelParams(lam=0.5, beta=(1e308, 0.0), score_kind="rootdegree", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="period 0: utilities must be finite") as exc:
                simulate_sequence(p, OVERFLOW_A0, periods=3)
        assert str(exc.value) == "period 0: utilities must be finite"  # one cell: no beta

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 3, 2**100 + 7])
    def test_multi_word_seed_matches_manual_replay(self, seed):
        p = ModelParams(lam=0.8, beta=(2.0, -1.0), m=2, score_kind="pagerank", seed=seed)
        assert_replays(p, uniform_initial(4, 2), 25)

    def test_gamma_rows_are_distributions(self):
        p = ModelParams(lam=0.95, beta=(3.0, 0.0), m=1, score_kind="pagerank", seed=1)
        traj = run(p, a0=uniform_initial(6, 1), steps=40)
        assert traj.gamma_t.shape == (40, 6)
        assert np.allclose(traj.gamma_t.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(traj.gamma_t >= 0)

    def test_first_row_uniform_from_uniform_start(self):
        # the uniform state scores every node equally, so gamma(0) = e/n
        p = ModelParams(lam=0.9, beta=(4.0, -2.0), m=2, score_kind="springrank", seed=0)
        traj = run(p, a0=uniform_initial(8, 2), steps=1)
        assert np.allclose(traj.gamma_t[0], 1 / 8, atol=1e-12)

    def test_zero_steps(self):
        p = ModelParams(lam=0.9, seed=0)
        a0 = uniform_initial(3, 1)
        traj = run(p, a0=a0, steps=0)
        assert traj.gamma_t.shape == (0, 3)
        assert np.array_equal(traj.a_final, a0)

    def test_requires_a0(self):
        with pytest.raises(DomainError):
            run(ModelParams(lam=0.9), a0=None, steps=5)

    def test_rejects_negative_steps(self):
        with pytest.raises(DomainError):
            run(ModelParams(lam=0.9), a0=uniform_initial(3, 1), steps=-1)

    def test_rejects_fractional_steps(self):
        with pytest.raises(DomainError, match="steps"):
            run(ModelParams(lam=0.9), a0=uniform_initial(3, 1), steps=2.5)


KINDS = ["rootdegree", "pagerank", "springrank"]
# zero and nonzero beta1 and beta2 in one grid
MIXED_BETAS = [(0.0, 0.0), (3.0, -1.0), (2.5, 0.0), (0.0, -1.5)]
# node 0 endorses nobody; A(0) holds more weight than m
ZERO_ROW_A0 = [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0],
               [0.0, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 0.0]]
# node 0 neither endorses nor is endorsed
ISOLATED_A0 = [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0],
               [0.0, 1.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0]]


# node i endorses node i+1 most; no symmetry maps the nodes onto each other
RELABEL_A0 = [[0.0, 2.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.5, 0.0, 0.5],
              [0.5, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 2.5],
              [1.0, 0.5, 0.0, 0.0, 0.0]]
RELABEL_PERM = [3, 0, 4, 1, 2]  # new node k is old node RELABEL_PERM[k]


class TestRelabelledRun:
    """Relabelling the nodes relabels the law of a run.  The paths differ,
    since `sample_delta` draws the cells in index order, so the test
    compares each node's mean gamma at step T over S independent seeds per
    side, within 4 standard errors of the difference."""

    S, T = 200, 5

    @pytest.mark.parametrize("kind", KINDS)
    def test_mean_gamma_follows_the_nodes(self, kind):
        p = ModelParams(lam=0.8, beta=(1.5, -0.5), m=5, score_kind=kind)
        a0, perm = np.array(RELABEL_A0), RELABEL_PERM
        relabelled = a0[perm][:, perm]

        def gamma_at_t(start, first_seed):
            return np.array([run(p.with_(seed=seed), start, steps=self.T + 1).gamma_t[self.T]
                             for seed in range(first_seed, first_seed + self.S)])

        before = gamma_at_t(a0, 0)
        after = np.empty_like(before)
        after[:, perm] = gamma_at_t(relabelled, self.S)  # back to the old labels
        se = np.sqrt((before.var(axis=0, ddof=1) + after.var(axis=0, ddof=1)) / self.S)
        assert np.all(np.abs(before.mean(axis=0) - after.mean(axis=0)) <= 4 * se)
        # the comparison sees a labelling it was not given
        assert np.any(np.abs(before.mean(axis=0) - after[:, perm].mean(axis=0)) > 4 * se)


def assert_replays(params, a0, steps):
    """run equals manual_run bit for bit: gamma history and final state."""
    traj = run(params, a0=a0, steps=steps)
    hist, a_last, _ = manual_run(params, a0, steps)
    assert np.array_equal(traj.gamma_t, hist)
    assert np.array_equal(traj.a_final, a_last)


def kernel_states(params, a0, steps):
    """A(0), ..., A(steps): the kernel's array before the first step and
    after each one."""
    a = _initial(a0)
    return [a.copy()] + [a.copy() for _ in _steps(params, a[None], steps)]


class TestKernelBranches:
    """The kernel binds a run's settings once; each branch it binds or keeps
    is replayed through the public score, choice_probabilities, rank_vector
    and step."""

    def test_pagerank_rows_emptied_by_underflow(self):
        # lam^4 = 1e-400 underflows to 0, so a node that endorsed nobody in
        # the last few steps has a row of exact zeros: A(0) without a zero
        # row and lam > 0 do not rule out dangling rows
        p = ModelParams(lam=1e-100, beta=(2.0, -1.0), m=1, score_kind="pagerank", seed=3)
        a0 = uniform_initial(6, 1)
        assert any((a.sum(axis=1) == 0.0).any() for a in kernel_states(p, a0, 60))
        assert_replays(p, a0, 60)

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_row_in_a0(self, kind, lam):
        p = ModelParams(lam=lam, beta=(2.0, -1.0), m=2, score_kind=kind, seed=4)
        assert_replays(p, ZERO_ROW_A0, 25)

    @pytest.mark.parametrize("beta", [(0.0, 0.0), (2.5, 0.0), (0.0, -1.5)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_utility_coefficients(self, kind, beta):
        p = ModelParams(lam=0.8, beta=beta, m=2, score_kind=kind, seed=6)
        assert_replays(p, uniform_initial(5, 2), 25)

    def test_pagerank_power_iteration_path(self):
        n = scores.PAGERANK_DIRECT_MAX_N + 1
        p = ModelParams(lam=0.9, beta=(3.0, -1.0), m=n, score_kind="pagerank", seed=5)
        assert_replays(p, uniform_initial(n, n), 4)

    @pytest.mark.parametrize("lam", [0.8, 1.0])
    def test_springrank_isolated_node(self, lam):
        p = ModelParams(lam=lam, beta=(2.0, -1.0), m=2, score_kind="springrank", seed=8)
        assert_replays(p, ISOLATED_A0, 25)


def springrank_outcome(call):
    """The string "fails" if `call` raises NumericError, else the
    categories of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except NumericError:
            return "fails"
    return [w.category for w in caught]


class TestSpringRankErrorParity:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_warns_and_fails_where_springrank_score_does(self, seed):
        """At a tiny alpha_s the system grows ill-conditioned: at every step
        the kernel warns, or fails naming the step, exactly when the public
        springrank_score does on A(t)."""
        p = ModelParams(lam=0.8, beta=(1.0, -0.5), m=2, score_kind="springrank",
                        alpha_s=1e-16, seed=seed)
        a = _initial(uniform_initial(4, 2))
        kernel = _steps(p, a[None], 30)
        seen = []
        for t in range(30):
            want = springrank_outcome(lambda: scores.springrank_score(a.copy(), p.alpha_s))
            seen.append(want)
            if want == "fails":
                with pytest.raises(NumericError, match=f"score failed at step {t}: "):
                    next(kernel)
                break
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                next(kernel)
            assert [w.category for w in caught] == want, t
        assert seen[-1] == "fails" and [LinAlgWarning] in seen

    def test_warns_and_fails_where_springrank_score_does_in_a_chunk(self):
        """Stepped in lockstep, the cells of seeds 0 and 2 warn at every
        step where springrank_score warns on either cell's A(t), in cell
        order, and the chunk fails naming the first step where it fails on
        either."""
        p = ModelParams(lam=0.8, beta=(1.0, -0.5), m=2, score_kind="springrank",
                        alpha_s=1e-16)
        a = np.repeat(_initial(uniform_initial(4, 2))[None], 2, axis=0)
        kernel = _steps(p, a, 30, cells=[(p.beta, 0), (p.beta, 2)])
        seen = []
        for t in range(30):
            want = [springrank_outcome(lambda: scores.springrank_score(cell.copy(), p.alpha_s))
                    for cell in a]
            seen.append(want)
            if "fails" in want:
                with pytest.raises(NumericError, match=f"score failed at step {t}: "):
                    next(kernel)
                break
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                next(kernel)
            assert [w.category for w in caught] == want[0] + want[1], t
        assert "fails" in seen[-1] and any([LinAlgWarning] in want for want in seen)


class TestSummaries:
    def _const_traj(self, gamma_row, steps=20):
        g = np.tile(np.asarray(gamma_row, dtype=float), (steps, 1))
        return Trajectory(
            gamma_t=g,
            a_final=np.zeros((len(gamma_row), len(gamma_row))),
            params=ModelParams(lam=0.9),
        )

    def test_rank_variance_concentrated_oracle(self):
        # constant gamma = (1, 0, ..., 0), n = 8: pooled population variance
        # is 1/8 - 1/64 = 7/64
        traj = self._const_traj([1.0] + [0.0] * 7)
        assert rank_variance(traj, window=20) == pytest.approx(7 / 64, abs=1e-15)

    def test_rank_variance_egalitarian_is_zero(self):
        traj = self._const_traj([0.25] * 4)
        assert rank_variance(traj, window=10) == 0.0

    def test_mean_gamma_window(self):
        g = np.zeros((4, 2))
        g[:2] = [1.0, 0.0]
        g[2:] = [0.0, 1.0]
        traj = Trajectory(
            gamma_t=g, a_final=np.zeros((2, 2)), params=ModelParams(lam=0.9)
        )
        assert np.allclose(mean_gamma(traj, window=2), [0.0, 1.0])
        assert np.allclose(mean_gamma(traj, window=4), [0.5, 0.5])

    def test_window_bounds_checked(self):
        traj = self._const_traj([0.5, 0.5], steps=5)
        with pytest.raises(DomainError):
            rank_variance(traj, window=6)
        with pytest.raises(DomainError):
            mean_gamma(traj, window=0)

    @pytest.mark.parametrize("summary", [rank_variance, mean_gamma])
    def test_a_run_without_steps_has_no_window(self, summary):
        # the message names the run's steps, not a window range [1, 0]
        traj = run(ModelParams(lam=0.9), a0=uniform_initial(3, 1), steps=0)
        with pytest.raises(DomainError, match=r"^steps must be an integer with steps >= 1, got 0$"):
            summary(traj, window=1)

    @pytest.mark.parametrize("steps", [0, -5, 2.5])
    def test_simulate_cells_checks_steps_before_the_window(self, steps):
        want = rf"^steps must be an integer with steps >= 1, got {steps}$"
        with pytest.raises(DomainError, match=want):
            simulate_cells(ModelParams(lam=0.9), 4, [(1.0, 0.0)], steps=steps, window=500)

    @pytest.mark.parametrize("summary", [rank_variance, mean_gamma])
    def test_fractional_window_rejected(self, summary):
        traj = self._const_traj([0.5, 0.5], steps=5)
        with pytest.raises(DomainError, match="window"):
            summary(traj, window=2.5)


class TestVarianceSweep:
    def test_rows_follow_grid_order_and_thread_invariance(self, monkeypatch):
        p = ModelParams(lam=0.97, m=1, score_kind="rootdegree", seed=5)
        rows = []
        for threads in ("1", "3"):
            monkeypatch.setenv("ENDORSE_DYN_THREADS", threads)
            rows.append(variance_sweep(p, n=4, beta1_values=[0.0, 2.0],
                                       beta2_values=[0.0, -1.0], steps=80, window=30))
        assert [(r[0], r[1]) for r in rows[0]] == [
            (0.0, 0.0), (0.0, -1.0), (2.0, 0.0), (2.0, -1.0)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("chunk", ["one cell", "all cells"])
    @pytest.mark.parametrize("kind, n, m, lam, betas, steps, window", [
        *[(kind, 4, 2, 0.97, MIXED_BETAS, 60, 20) for kind in KINDS],
        ("pagerank", scores.PAGERANK_DIRECT_MAX_N + 1, 81, 0.9,
         [(3.0, -1.0), (0.0, 0.0), (1.5, 0.0)], 4, 2),
        # at lam = 0, A(t) = delta(t - 1) holds m = 1 endorsement, so at
        # least n - 2 nodes are isolated at every step after the first
        ("springrank", 5, 1, 0.0, MIXED_BETAS, 30, 10),
    ])
    def test_cells_match_standalone_runs(self, kind, n, m, lam, betas, steps, window,
                                         chunk, monkeypatch):
        """Every cell, alone in its chunk or stepped in lockstep with the
        whole grid, gets the bits of its own run."""
        entries = n**2 if chunk == "one cell" else len(betas) * n**2
        monkeypatch.setattr(sim, "LOCKSTEP_MAX_ENTRIES", entries)
        p = ModelParams(lam=lam, m=m, score_kind=kind, seed=8)
        cells = simulate_cells(p, n, betas, steps=steps, window=window)
        for index, (beta, (gam, var)) in enumerate(zip(betas, cells)):
            traj = run(p.with_(beta=beta, seed=_cell_seed(8, index)),
                       a0=uniform_initial(n, m), steps=steps)
            assert np.array_equal(gam, mean_gamma(traj, window))
            assert var == rank_variance(traj, window)

    def test_failing_cell_names_the_step(self):
        # uniform_initial(4, 16) gives every node root-degree score 2, so
        # the second cell's beta1 = 1e308 overflows at step 0
        p = ModelParams(lam=0.5, m=16, score_kind="rootdegree", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="step 0: utilities must be finite") as exc:
                simulate_cells(p, 4, [(1.0, 0.0), (1e308, 0.0)], steps=3, window=2)
        assert str(exc.value).endswith("in the cell at beta (1e+308, 0.0)")

    @pytest.mark.parametrize("betas,named", [
        ([(1.0, 0.0), (1e308, 0.0), (-1e308, 0.0)], "(1e+308, 0.0)"),
        ([(-1e308, 0.0), (1.0, 0.0), (1e308, 0.0)], "(-1e+308, 0.0)"),
    ])
    def test_failing_cell_names_the_first_failing_beta(self, betas, named):
        p = ModelParams(lam=0.9, m=16, score_kind="rootdegree", seed=0)
        with pytest.raises(DomainError) as exc:
            simulate_cells(p, 4, betas, steps=3, window=1)
        assert str(exc.value) == f"step 0: utilities must be finite in the cell at beta {named}"

    SPRING_FAILED = ("springrank solve failed: the system is not positive definite "
                     "(leading minor 4)")

    def test_failed_springrank_factorization_names_the_first_failing_cell(self):
        # at alpha_s = 1e-300 the Laplacian of a state with edges is singular
        # to rounding, while a zero state's is alpha_s I: only cell 1 fails
        p = ModelParams(lam=0.9, m=1, score_kind="springrank", alpha_s=1e-300)
        a = np.stack([np.zeros((4, 4)), _initial(uniform_initial(4, 1))])
        kernel = _steps(p, a, 1, cells=[((1.0, 0.0), 0), ((2.0, 0.0), 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as exc:
                next(kernel)
        assert str(exc.value) == (f"score failed at step 0: {self.SPRING_FAILED} "
                                  "in the cell at beta (2.0, 0.0)")
        p = p.with_(seed=0)
        with pytest.raises(NumericError) as exc:
            simulate_cells(p, 4, [(1, 0), (2, 0)], steps=5, window=1)
        assert str(exc.value).endswith(f"{self.SPRING_FAILED} in the cell at beta (1.0, 0.0)")

    def test_failed_springrank_factorization_of_one_cell_names_no_cell(self):
        p = ModelParams(lam=0.9, m=1, score_kind="springrank", alpha_s=1e-300)
        for call, unit in [(lambda: run(p, uniform_initial(4, 1), steps=5), "step"),
                           (lambda: simulate_sequence(p, uniform_initial(4, 1), 5), "period")]:
            with pytest.raises(NumericError) as exc:
                call()
            assert str(exc.value) == f"score failed at {unit} 0: {self.SPRING_FAILED}"

    def test_a_grid_of_one_cell_names_it(self):
        p = ModelParams(lam=0.9, m=1, score_kind="springrank", alpha_s=1e-300)
        with pytest.raises(NumericError) as exc:
            simulate_cells(p, 4, [(1, 0)], steps=5, window=1)
        assert str(exc.value) == (f"score failed at step 0: {self.SPRING_FAILED} "
                                  "in the cell at beta (1.0, 0.0)")

    @pytest.mark.parametrize("n", [4, 70])
    def test_overflow_names_the_cell_in_a_chunk_of_any_size(self, n):
        # 8192 // n**2 cells per chunk: both cells in one at n=4, one each at n=70
        p = ModelParams(lam=0.9, m=4 * n, score_kind="rootdegree")
        with pytest.raises(DomainError) as exc:
            simulate_cells(p, n, [(1.0, 0.0), (1e308, 0.0)], steps=3, window=1)
        assert str(exc.value) == ("step 0: utilities must be finite "
                                  "in the cell at beta (1e+308, 0.0)")

    @pytest.mark.parametrize("entries", [2 * 16, 16])
    def test_unconverged_pagerank_power_iteration_names_the_cell(self, entries, monkeypatch):
        # power iteration stopped after one step: every cell's uniform A(0)
        # converges in it, no cell's A(1) does, and the first is named
        monkeypatch.setattr(scores, "PAGERANK_DIRECT_MAX_N", 0)
        monkeypatch.setattr(scores, "PAGERANK_MAX_ITER", 1)
        monkeypatch.setattr(sim, "LOCKSTEP_MAX_ENTRIES", entries)
        p = ModelParams(lam=0.9, m=1, score_kind="pagerank")
        with pytest.raises(NumericError) as exc:
            simulate_cells(p, 4, [(1.0, 0.0), (2.0, 0.0)], steps=3, window=1)
        assert str(exc.value) == ("score failed at step 1: pagerank power iteration did "
                                  "not converge in the cell at beta (1.0, 0.0)")

    def test_cells_use_independent_streams(self):
        p = ModelParams(lam=0.97, m=1, score_kind="rootdegree", seed=5)
        rows = variance_sweep(p, n=4, beta1_values=[1.0, 1.0], beta2_values=[0.0],
                              steps=80, window=30)
        # same parameters, different cell index: different draw stream
        assert rows[0][2] != rows[1][2]

    def test_fractional_window_rejected_before_any_cell_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "_steps", lambda *a, **k: calls.append(a))
        p = ModelParams(lam=0.97, m=1, score_kind="rootdegree", seed=5)
        with pytest.raises(DomainError, match="window"):
            variance_sweep(p, n=4, beta1_values=[1.0, 2.0], beta2_values=[0.0],
                           steps=80, window=2.5)
        assert calls == []

    @pytest.mark.parametrize("beta1, beta2", [("1.5", 0.0), ("x", 0.0), (1.0, "1.5")])
    def test_a_grid_value_that_is_not_a_real_is_refused_before_any_cell_runs(
            self, beta1, beta2, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "_steps", lambda *a, **k: calls.append(a))
        p = ModelParams(lam=0.97, m=1, score_kind="rootdegree", seed=5)
        with pytest.raises(DomainError, match="^beta needs 2 coefficients"):
            variance_sweep(p, n=4, beta1_values=[0.5, beta1], beta2_values=[0.0, beta2],
                           steps=80, window=30)
        assert calls == []


def _pagerank_history(params, n, steps):
    """(gamma, delta) of every step and the final state of one run from
    uniform_initial(n, 1), through the simulation kernel."""
    a = _initial(uniform_initial(n, 1))
    return [(g[0], d[0]) for g, d in _steps(params, a[None], steps)], a


class TestPageRankSolverSwap:
    @pytest.mark.parametrize("n", [8, 16])
    def test_run_matches_power_iteration_replay(self, n, monkeypatch):
        """The direct solve draws the power iteration's realizations.

        The cells are the sweep-small benchmark's: m=1, lambda=0.995, beta1
        at 0.5 and 1.5 times critical, cell seeds from base seeds 1-10.  A
        realization can still part where two nodes tie: numpy's multinomial
        draws cell by cell with binomials that branch at probability 1/2, so
        rounding decides between two tied cells.  Up to that draw the paths
        agree, and the draw's gamma shows the tie.
        """
        assert n <= scores.PAGERANK_DIRECT_MAX_N
        bc = critical_beta1("pagerank", n, 1)
        for seed in range(1, 11):
            for index, factor in enumerate((0.5, 1.5)):
                p = ModelParams(lam=0.995, beta=(factor * bc, 0.0), m=1,
                                score_kind="pagerank", seed=_cell_seed(seed, index))
                direct, a_direct = _pagerank_history(p, n, 200)
                with monkeypatch.context() as patch:
                    patch.setattr(scores, "PAGERANK_DIRECT_MAX_N", 0)
                    power, a_power = _pagerank_history(p, n, 200)
                parted = None
                for t, ((g, d), (g_ref, d_ref)) in enumerate(zip(direct, power)):
                    assert np.max(np.abs(g - g_ref)) <= 1e-12
                    if not np.array_equal(d, d_ref):
                        parted = t
                        break
                if parted is None:
                    assert np.array_equal(a_direct, a_power)
                else:
                    assert np.min(np.diff(np.sort(power[parted][0]))) <= 1e-12


def assert_block_matches_step_rng(seeds, t0, count, check=None):
    """The `_seed_hasher` rows equal SeedSequence((seed, t))'s words, and
    PCG64 seeded from them starts in `_step_rng`'s state, at every t in
    `check` (by default all of t0 .. t0 + count - 1)."""
    rows = _seed_hasher(seeds)(t0, count)
    assert rows.shape == (count, len(seeds), 4) and rows.dtype == np.uint64
    assert rows.flags.c_contiguous and rows.dtype.isnative
    for t in range(t0, t0 + count) if check is None else check:
        for seed, words in zip(seeds, rows[t - t0]):
            expected = np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
            assert np.array_equal(words, expected), (seed, t)
            state = np.random.PCG64(_Words(words)).state
            assert state == _step_rng(seed, t).bit_generator.state, (seed, t)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]


class TestBlockSeeding:
    """The kernel seeds each step's generator from `_seed_hasher`, which
    must give `default_rng((seed, t))`'s states, on every numpy."""

    # the kernel's blocks for one cell and for a 128-cell chunk at n=8
    @pytest.mark.parametrize("block", [_SEED_BLOCK_PAIRS, _SEED_BLOCK_PAIRS // 128])
    def test_block_edges_and_t_below_2_32(self, block):
        for t0 in (0, block, 2**32 - block, 2**32):
            edges = (t0, t0 + 1, t0 + block - 1)
            assert_block_matches_step_rng(SEEDS, t0, block, check=edges)

    def test_a_short_block_and_t_of_several_words(self):
        for t0 in (0, 2**40, 2**64, 2**96):
            assert_block_matches_step_rng(SEEDS, t0, 3)

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=3),
           t=st.integers(0, 2**80), count=st.integers(1, 4))
    def test_equals_default_rng_for_any_seed_and_t(self, seeds, t, count):
        t0 = t - t % 4  # aligned, so the steps share t's high words
        assert_block_matches_step_rng(seeds, t0, count)

    def test_a_full_lockstep_chunk_replays_each_cell(self):
        """128 cells at n=8 (LOCKSTEP_MAX_ENTRIES entries), stepped across
        many blocks of seeds: every cell gets the bits of its own run
        driven through _step_rng and sample_delta."""
        n, cells, steps = 8, LOCKSTEP_MAX_ENTRIES // 64, 130
        assert cells == 128
        p = ModelParams(lam=0.9, m=2, score_kind="rootdegree")
        grid = [((4.0 * i / cells, -0.5 * (i % 2)), _cell_seed(3, i)) for i in range(cells)]
        a = np.repeat(_initial(uniform_initial(n, 2))[None], cells, axis=0)
        history = [(g.copy(), d) for g, d in _steps(p, a, steps, cells=grid)]
        for index, (beta, seed) in enumerate(grid):
            hist, a_last, deltas = manual_run(p.with_(beta=beta, seed=seed),
                                              uniform_initial(n, 2), steps)
            assert np.array_equal(np.array([g[index] for g, _ in history]), hist)
            assert all(np.array_equal(d[index], e) for (_, d), e in zip(history, deltas))
            assert np.array_equal(a[index], a_last)
