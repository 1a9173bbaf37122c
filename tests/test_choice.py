import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from endorse_dyn import choice
from endorse_dyn.choice import choice_probabilities, sample_delta, utility
from endorse_dyn.errors import DomainError

score_vec = arrays(
    np.float64,
    st.integers(2, 6),
    elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


def _bits(x):
    """The exact bits of a float array: np.array_equal counts -0.0 equal to 0.0."""
    return np.ascontiguousarray(x).view(np.uint64).tolist()


class TestUtility:
    def test_hand_example(self):
        # s = (1, 0), beta = (1, -1):
        # u[i, j] = s_j - (s_i - s_j)^2
        u = utility(np.array([1.0, 0.0]), (1.0, -1.0))
        assert np.allclose(u, [[1.0, -1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("s", [[0.3, -0.7, 2.0], [np.inf, 0.5]], ids=["finite", "inf"])
    def test_zero_beta_gives_zero_utility(self, s):
        # a zero coefficient drops its term: no 0 * inf = nan
        u = utility(np.array(s), (0.0, 0.0))
        assert np.array_equal(u, np.zeros((len(s), len(s))))

    def test_rejects_wrong_beta_length(self):
        with pytest.raises(DomainError):
            utility(np.array([1.0, 0.0]), (1.0,))

    @pytest.mark.parametrize("beta", [
        (1.0, 2.0, 3.0), 1.0, (10**400, 0), (0, -10**5000), ("1", 0), (None, 0),
        (1j, 0), (np.nan, 0), (0, np.inf), (np.float32(np.inf), 0),
    ])
    def test_rejects_a_beta_that_is_not_two_finite_reals(self, beta):
        with pytest.raises(DomainError, match="beta needs 2 coefficients"):
            utility(np.array([1.0, 0.0]), beta)

    def test_stack_keeps_each_slice_bits(self):
        """One coefficient pair per slice of a score stack, as the kernel
        passes them: each slice gets the bits of utility on it alone, the
        zero coefficients adding exact zeros."""
        s = np.array([[0.0, 0.5, -1.0], [0.3, -0.7, 2.0], [1.0, 2.0, 4.0], [0.2, 0.0, 1.5]])
        betas = [(0.0, 0.0), (2.5, 0.0), (0.0, -1.5), (2.0, -1.0)]
        b1, b2 = (b[:, None, None] for b in np.array(betas).T)
        u = choice._utility(s, b1, b2)
        for sc, beta, uc in zip(s, betas, u):
            assert _bits(uc) == _bits(utility(sc, beta))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stack_slices_match_their_own_calls(self, data):
        """A stack of finite scores (exact zeros and negatives among them)
        with one coefficient pair per slice from 0.0, -0.0 and nonzero
        values: every slice of the stacked utility, and of its softmax,
        equals its own single-vector call bit for bit."""
        c, n = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
        s = data.draw(arrays(np.float64, (c, n), elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_nan=False))))
        coef = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0, allow_nan=False))
        beta = np.array(data.draw(st.lists(st.tuples(coef, coef), min_size=c, max_size=c)))
        b1, b2 = (b[:, None, None] if b.any() else None for b in beta.T)
        u = choice._utility(s, b1, b2)
        p = choice._softmax(u)
        for sc, bc, uc, pc in zip(s, beta, u, p):
            alone = utility(sc, tuple(bc))
            assert _bits(uc) == _bits(alone)
            assert _bits(pc) == _bits(choice_probabilities(alone))

    def test_nonfinite_utilities_rejected_downstream(self):
        u = utility(np.array([1.0, np.nan]), (1.0, 0.0))
        with pytest.raises(DomainError):
            choice_probabilities(u)


class TestChoiceProbabilities:
    def test_log_two_vs_zero(self):
        u = np.array([[np.log(2.0), 0.0], [0.0, 0.0]])
        p = choice_probabilities(u)
        assert np.allclose(p[0], [2 / 3, 1 / 3], atol=1e-15)
        assert np.allclose(p[1], [0.5, 0.5], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = choice_probabilities(rng.normal(size=(6, 6)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_utilities_stay_finite(self):
        u = np.array([[800.0, 0.0], [-800.0, 0.0]])
        p = choice_probabilities(u)
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        u=arrays(np.float64, (3, 3), elements=st.floats(-20, 20, allow_nan=False)),
        c=st.floats(-50, 50, allow_nan=False),
    )
    def test_row_shift_invariance(self, u, c):
        shifted = u + c
        assert np.allclose(
            choice_probabilities(u), choice_probabilities(shifted), atol=1e-12
        )


class TestSampleDelta:
    def test_total_is_m(self):
        rng = np.random.default_rng(4)
        p = np.full((3, 3), 1 / 3)
        for m in (1, 5, 40):
            d = sample_delta(p, m, rng)
            assert d.sum() == m
            assert d.shape == (3, 3)
            assert np.all(d >= 0)

    def test_deterministic_given_generator_state(self):
        p = np.full((4, 4), 1 / 4)
        d1 = sample_delta(p, 10, np.random.default_rng(5))
        d2 = sample_delta(p, 10, np.random.default_rng(5))
        assert np.array_equal(d1, d2)

    def test_empirical_mean_matches_rates(self):
        # fixed seed, 20000 draws of m=5: per-cell std is below 0.005,
        # so a 0.024 band is 5 sigma
        rng = np.random.default_rng(6)
        probs = choice_probabilities(utility(np.array([0.5, 0.0, -0.5]), (1.0, 0.0)))
        total = np.zeros((3, 3))
        n_draws = 20000
        for _ in range(n_draws):
            total += sample_delta(probs, 5, rng)
        assert np.abs(total / n_draws - 5 * probs / 3).max() < 0.024

    def test_mass_respects_zero_cells(self):
        p = np.zeros((2, 2))
        p[0, 1] = 1.0
        d = sample_delta(p, 7, np.random.default_rng(7))
        assert d[0, 1] == 7 and d.sum() == 7

    def test_rejects_nonpositive_m(self):
        with pytest.raises(DomainError):
            sample_delta(np.full((2, 2), 0.5), 0, np.random.default_rng(8))

    def test_rejects_fractional_m(self):
        with pytest.raises(DomainError, match="m must be a positive integer"):
            sample_delta(np.full((2, 2), 0.5), 2.5, np.random.default_rng(8))
        with pytest.raises(DomainError, match="m must be a positive integer"):
            sample_delta(np.full((2, 2), 0.5), np.nan, np.random.default_rng(8))
        # an integral float m draws what the integer draws
        assert np.array_equal(sample_delta(np.full((2, 2), 0.5), 2.0, np.random.default_rng(8)),
                              sample_delta(np.full((2, 2), 0.5), 2, np.random.default_rng(8)))
