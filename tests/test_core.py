import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endorse_dyn.core import (
    EXACT_MAX,
    FLOAT_MAX,
    N_MAX,
    SCORE_KINDS,
    EndorsementState,
    ModelParams,
    check_alpha_p,
    check_alpha_s,
    check_beta,
    check_count,
    check_lam,
    check_m,
    check_n,
    check_score_kind,
    rank_vector,
    sparse_random_initial,
    step,
    uniform_initial,
)
from endorse_dyn.errors import DomainError


class TestEndorsementState:
    def test_holds_copy_and_time(self):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        st_ = EndorsementState(a=a, t=3)
        a[0, 1] = 99.0
        assert st_.a[0, 1] == 1.0
        assert st_.t == 3
        assert st_.n == 2

    def test_stored_matrix_is_read_only(self):
        st_ = EndorsementState(a=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            st_.a[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 3)),
            np.zeros(4),
            np.array([[0.0, -1.0], [0.0, 0.0]]),
            np.array([[0.0, np.nan], [0.0, 0.0]]),
            np.array([[0.0, np.inf], [0.0, 0.0]]),
            np.zeros((1, 1)),
            np.zeros((2, 2, 2)),
        ],
    )
    def test_rejects_bad_matrices(self, bad):
        with pytest.raises(DomainError):
            EndorsementState(a=bad)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            EndorsementState(a=np.zeros((2, 2)), t=-1)


class TestModelParams:
    def test_defaults_and_override(self):
        p = ModelParams(lam=0.9)
        assert p.beta == (0.0, 0.0)
        assert p.score_kind == "springrank"
        q = p.with_(beta=(1, 2), m=5)
        assert q.beta == (1.0, 2.0)
        assert isinstance(q.beta[0], float)
        assert q.m == 5 and q.lam == 0.9

    @pytest.mark.parametrize(
        "kw",
        [
            {"lam": -0.1},
            {"lam": 1.5},
            {"lam": 0.5, "m": 0},
            {"lam": 0.5, "score_kind": "degree"},
            {"lam": 0.5, "alpha_p": 1.0},
            {"lam": 0.5, "alpha_p": 0.0},
            {"lam": 0.5, "alpha_s": 0.0},
            {"lam": 0.5, "beta": (np.inf, 0.0)},
            {"lam": 0.5, "beta": (1.0, 2.0, 3.0)},
            {"lam": 0.5, "beta": (1.0,)},
            {"lam": 0.5, "beta": 1.0},
            {"lam": 0.5, "beta": ((1.0, 2.0),)},
            {"lam": 0.5, "seed": -1},
            {"lam": 0.5, "seed": 2.5},
            {"lam": 0.5, "seed": 1.0},
            {"lam": 0.5, "m": 2.5},
            {"lam": 0.5, "m": np.nan},
            {"lam": 0.5, "m": np.inf},
            # above 2**53: an int too large for a float, and floats that overflow
            # the long-memory analysis
            {"lam": 0.5, "m": 10**400},
            {"lam": 0.5, "m": 1e308},
            {"lam": 0.5, "m": 2**53 + 1},
            {"lam": 0.5, "alpha_s": np.nan},
            {"lam": 0.5, "alpha_s": np.inf},
            # integers too long for Python to print (over 4300 digits) or
            # too large for a float
            {"lam": 0.5, "m": 10**5000},
            {"lam": 0.5, "seed": -10**5000},
            {"lam": 10**5000},
            {"lam": 0.5, "alpha_p": -10**5000},
            {"lam": 0.5, "alpha_s": 10**5000},
            {"lam": 0.5, "alpha_s": 10**400},
            {"lam": 0.5, "beta": (10**400, 0.0)},
            {"lam": 0.5, "beta": (10**5000,)},
            {"lam": 0.5, "score_kind": 10**5000},
            {"lam": 0.5, "score_kind": ["springrank"]},
            {"lam": 0.5, "beta": ("a", "b")},
            {"lam": 0.5, "beta": (None, 0)},
            {"lam": 0.5, "beta": (1j, 0)},
            {"lam": 0.5, "beta": "ab"},
            # not numbers at all
            {"lam": "0.5"},
            {"lam": None},
            {"lam": 0.5, "alpha_p": None},
            {"lam": 0.5, "m": "2"},
            {"lam": 0.5, "alpha_s": "1"},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(DomainError):
            ModelParams(**kw)

    def test_names_a_huge_integer_by_its_size(self):
        huge = 10**5000  # 16610 bits
        for bad in (lambda: check_count("n", huge, 2, 10), lambda: check_count("n", -huge, 2),
                    lambda: check_m(-huge), lambda: ModelParams(lam=0.5, m=huge)):
            with pytest.raises(DomainError, match="got an integer of 16610 bits"):
                bad()

    def test_accepts_numpy_integer_seed_and_integral_m(self):
        p = ModelParams(lam=0.5, seed=np.int64(3), m=2.0)
        assert p.seed == 3 and p.m == 2.0
        assert ModelParams(lam=0.5, m=2**53).m == ModelParams(lam=0.5, m=2.0**53).m == 2**53


class TestStep:
    def test_update_formula(self):
        a = np.array([[0.0, 2.0], [4.0, 0.0]])
        delta = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = step(EndorsementState(a=a, t=7), delta, lam=0.75)
        assert np.array_equal(out.a, 0.75 * a + 0.25 * delta)
        assert out.t == 8

    def test_lam_one_keeps_state(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = step(EndorsementState(a=a), np.ones((2, 2)), lam=1.0)
        assert np.array_equal(out.a, a)

    def test_rejects_shape_mismatch_and_negative_delta(self):
        s = EndorsementState(a=np.zeros((2, 2)))
        with pytest.raises(DomainError):
            step(s, np.zeros((3, 3)), 0.5)
        with pytest.raises(DomainError):
            step(s, np.array([[0.0, -1.0], [0.0, 0.0]]), 0.5)
        with pytest.raises(DomainError):
            step(s, np.zeros((2, 2)), 1.5)
        with pytest.raises(DomainError, match="delta must be square"):
            step(s, np.zeros((2, 3)), 0.5)
        for bad in (np.inf, np.nan):
            # the error names the delta, not the state it would produce
            with pytest.raises(DomainError, match="delta has non-finite entries"):
                step(s, np.array([[0.0, bad], [0.0, 0.0]]), 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        tot_a=st.floats(0.0, 50.0),
        tot_d=st.floats(0.0, 50.0),
    )
    def test_total_weight_is_affine(self, lam, tot_a, tot_d):
        # sum(a') = lam*sum(a) + (1-lam)*sum(delta), no leakage anywhere
        rng = np.random.default_rng(0)
        a = rng.random((4, 4))
        a *= tot_a / max(a.sum(), 1e-12)
        d = rng.random((4, 4))
        d *= tot_d / max(d.sum(), 1e-12)
        out = step(EndorsementState(a=a), d, lam)
        assert out.a.sum() == pytest.approx(lam * a.sum() + (1 - lam) * d.sum(), abs=1e-9)


class TestRateAndRank:
    def test_rank_vector_is_column_mean(self):
        p = np.array([[0.25, 0.75], [0.5, 0.5]])
        gamma = rank_vector(p)
        assert np.allclose(gamma, [0.375, 0.625])
        assert gamma.sum() == pytest.approx(1.0)

    def test_rank_vector_rejects_non_stochastic(self):
        with pytest.raises(DomainError):
            rank_vector(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(DomainError):
            rank_vector(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(DomainError):
            rank_vector(np.zeros((2, 3)))
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                rank_vector(np.array([[bad, bad], [0.5, 0.5]]))
        with pytest.raises(DomainError):
            rank_vector(np.full((2, 2, 2), 0.5))


class TestInitialStates:
    def test_uniform_initial_total_and_shape(self):
        a0 = uniform_initial(8, 3)
        assert a0.shape == (8, 8)
        assert np.all(a0 == 3 / 64)
        assert a0.sum() == pytest.approx(3.0)
        # an integral float m, as ModelParams keeps it, builds the same start
        assert np.array_equal(uniform_initial(8, ModelParams(lam=0.5, m=3.0).m), a0)

    def test_sparse_random_initial(self):
        a0 = sparse_random_initial(5, 7, np.random.default_rng(1))
        assert a0.shape == (5, 5)
        assert a0.sum() == 7
        assert np.all(a0 >= 0)
        again = sparse_random_initial(5, 7, np.random.default_rng(1))
        assert np.array_equal(a0, again)
        assert np.array_equal(sparse_random_initial(5, 7.0, np.random.default_rng(1)), a0)

    @pytest.mark.parametrize(
        "make",
        [uniform_initial, lambda n, m: sparse_random_initial(n, m, np.random.default_rng(0))],
        ids=["uniform", "sparse"],
    )
    @pytest.mark.parametrize("n,m", [
        (1, 1), (3, 0), (2.5, 1), (3, 2.5), (3, np.nan), (3.0, 1),
        # n x n would hold more than 2**53 cells; the rule refuses n before
        # any allocation
        pytest.param(N_MAX + 1, 1, id="n-above-N_MAX"),
        pytest.param(99999999999, 1, id="n-99999999999"),
        # integers too long for Python to print (over 4300 digits)
        pytest.param(-10**5000, 1, id="huge-negative-n"),
        pytest.param(3, -10**5000, id="huge-negative-m"),
    ])
    def test_rejects_degenerate_sizes(self, make, n, m):
        with pytest.raises(DomainError):
            make(n, m)


# Integers of any size: beyond the float range and beyond Python's 4300-digit
# printing limit as well.
huge_ints = st.builds(lambda digits, sign: sign * 10**digits,
                      st.integers(0, 6000), st.sampled_from([1, -1]))
numpy_scalars = st.one_of(
    st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
reals = st.one_of(st.integers(), huge_ints, st.floats(), numpy_scalars)


class TestRules:
    """Each rule refuses what lies outside it with DomainError, never
    another exception, whatever real number it gets."""

    @pytest.mark.parametrize("rule", [
        check_m, check_lam, check_alpha_p, check_alpha_s, check_n,
        lambda v: check_count("count", v, 1), lambda v: check_count("count", v, 2, 10),
    ], ids=["m", "lam", "alpha_p", "alpha_s", "n", "count", "count-in-range"])
    @settings(max_examples=300, deadline=None)
    @given(value=reals)
    def test_rules_raise_only_domain_error_on_real_numbers(self, rule, value):
        try:
            rule(value)
        except DomainError:
            pass

    @pytest.mark.parametrize("rule", [check_m, check_lam, check_alpha_p, check_alpha_s],
                             ids=["m", "lam", "alpha_p", "alpha_s"])
    @settings(max_examples=100, deadline=None)
    @given(value=st.one_of(
        st.text(), st.none(), st.binary(), st.complex_numbers(),
        st.complex_numbers().map(np.complex128), st.text().map(np.str_),
        st.lists(st.floats(), max_size=2), st.dictionaries(st.text(), st.floats(), max_size=2),
    ))
    def test_rules_refuse_a_value_that_is_not_a_real_number(self, rule, value):
        with pytest.raises(DomainError):
            rule(value)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.one_of(
        st.text().filter(lambda k: k not in SCORE_KINDS),
        st.text().filter(lambda k: k not in SCORE_KINDS).map(np.str_),
        st.sampled_from(SCORE_KINDS).map(str.upper),
        st.sampled_from(SCORE_KINDS).map(str.encode),
        st.sampled_from(SCORE_KINDS).map(lambda k: [k]),
        st.integers(), huge_ints, st.floats(), st.none(),
        st.lists(st.text(), max_size=3),
        st.dictionaries(st.text(), st.integers(), max_size=3),
    ))
    def test_score_kind_rule_refuses_every_other_object(self, kind):
        with pytest.raises(DomainError, match="^unknown score kind .*; choose from"):
            check_score_kind(kind)

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_score_kind_rule_takes_each_kind_by_name(self, kind):
        check_score_kind(kind)
        check_score_kind(np.str_(kind))

    finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-2**1023, 2**1023), numpy_scalars.filter(np.isfinite))
    not_finite_real = st.one_of(
        st.text(), st.none(), st.complex_numbers(), st.complex_numbers().map(np.complex128),
        st.sampled_from([np.nan, np.inf, -np.inf, np.float32(np.nan)]),
        huge_ints.filter(lambda b: abs(b) > FLOAT_MAX),
        st.lists(st.floats(), max_size=2),
    )

    @settings(max_examples=300, deadline=None)
    @given(beta=st.one_of(
        st.tuples(not_finite_real, finite), st.tuples(finite, not_finite_real),
        st.tuples(not_finite_real, not_finite_real),
        st.lists(finite, max_size=5).filter(lambda b: len(b) != 2),
        finite, st.none(), st.text(max_size=4),
    ))
    def test_beta_rule_refuses_anything_but_two_finite_reals(self, beta):
        with pytest.raises(DomainError, match="^beta needs 2 coefficients"):
            check_beta(beta)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.one_of(st.tuples(finite, finite), st.lists(finite, min_size=2, max_size=2)))
    def test_beta_rule_returns_the_pair_as_floats(self, beta):
        pair = check_beta(beta)
        assert pair == (float(beta[0]), float(beta[1]))
        assert all(type(b) is float for b in pair)
        assert check_beta(np.array(pair)) == pair

    def test_a_float32_or_float16_value_meets_the_float_bounds_exactly(self):
        # numpy would cast the bound FLOAT_MAX to the scalar's own type, inf
        with pytest.raises(DomainError, match="alpha_s"):
            check_alpha_s(np.float32(np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_alpha_s(np.float32(1e-8))
            check_m(np.float16(2.0))
            assert check_beta((np.float32(1.5), np.float16(-2.0))) == (1.5, -2.0)

    def test_n_rule_bounds_an_n_x_n_state_at_2_53_cells(self):
        assert N_MAX == math.isqrt(EXACT_MAX) == 94_906_265
        assert N_MAX**2 <= EXACT_MAX < (N_MAX + 1) ** 2
        for n in (2, np.int64(8), N_MAX):
            check_n(n)  # a rule allocates nothing
        for n in (N_MAX + 1, 8.0, np.float64(8), True, "8", None):
            with pytest.raises(DomainError, match="n must be an integer with n >= 2"):
                check_n(n)
