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


class TestUtility:
    def test_hand_example(self):
        # s = (1, 0), beta = (1, -1):
        # u[i, j] = s_j - (s_i - s_j)^2
        u = utility(np.array([1.0, 0.0]), (1.0, -1.0))
        assert np.allclose(u, [[1.0, -1.0], [0.0, 0.0]])

    def test_zero_beta_gives_zero_utility(self):
        u = utility(np.array([0.3, -0.7, 2.0]), (0.0, 0.0))
        assert np.array_equal(u, np.zeros((3, 3)))

    def test_rejects_wrong_beta_length(self):
        with pytest.raises(DomainError):
            utility(np.array([1.0, 0.0]), (1.0,))

    def test_stack_drops_zero_terms_per_slice(self):
        """One coefficient pair per slice of a score stack: each slice gets
        the bits of utility on it alone, so an infinite score under zero
        weights stays out of its slice and the other slices keep their terms."""
        s = np.array([[np.inf, 0.5, -1.0], [0.3, -0.7, 2.0], [1.0, 2.0, 4.0], [0.2, 0.0, 1.5]])
        betas = [(0.0, 0.0), (2.5, 0.0), (0.0, -1.5), (2.0, -1.0)]
        w1, w2 = (choice._weight(b) for b in np.array(betas).T)
        # the masked-out 0 * inf is still computed, as in the kernel
        with np.errstate(invalid="ignore"):
            u = choice._utility(s, w1, w2)
        for sc, beta, uc in zip(s, betas, u):
            assert np.array_equal(uc, utility(sc, beta))

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
