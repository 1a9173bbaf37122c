"""Model state, parameters, and the geometric-memory update rule.

The system is a weighted directed network on ``n`` nodes whose adjacency
matrix ``a`` holds the remembered endorsement weight ``a_ij`` flowing from
``i`` to ``j``.  Each time step collects ``m`` fresh endorsements into an
update matrix ``delta`` and folds them in with memory parameter ``lam``:

    a(t+1) = lam * a(t) + (1 - lam) * delta(t)

so the total remembered weight relaxes geometrically toward ``m``.  Score
functions over ``a`` live in :mod:`endorse_dyn.scores`; utilities, choice
probabilities, and sampling live in :mod:`endorse_dyn.choice`.

Each model input has one rule here (`check_matrix`, `check_n`, `check_m`,
`check_lam`, `check_beta`, `check_score_kind`, `check_alpha_p`,
`check_alpha_s`, `check_count`), which every entry point that takes the
input calls before any work, and each damping constant one default
(`ALPHA_P`, `ALPHA_S`), which every signature that takes it uses.
The simulation kernel in :mod:`endorse_dyn.sim` applies the rules once per
run and `step`'s update in place; its module notes say what runs each step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

SCORE_KINDS = ("rootdegree", "pagerank", "springrank")
ALPHA_P = 0.85  # default PageRank damping alpha_p
ALPHA_S = 1e-8  # default SpringRank regularizer alpha_s
# The largest m and the largest count, rank or summed count the loaders
# take: a float64 holds every integer up to it exactly, and rounds or
# overflows on larger ones.
EXACT_MAX = 2**53
N_MAX = math.isqrt(EXACT_MAX)  # 94,906,265: an n x n state has at most EXACT_MAX cells
FLOAT_MAX = float(np.finfo(float).max)  # float() of a larger int overflows


@dataclass(frozen=True)
class EndorsementState:
    """Remembered endorsement weights at one instant.

    Attributes
    ----------
    a : np.ndarray
        n x n nonnegative real matrix; ``a[i, j]`` is the remembered
        weight of endorsements i -> j.
    t : int
        Time index (number of updates applied).
    """

    a: np.ndarray
    t: int = 0

    def __post_init__(self):
        a = check_matrix(self.a, "state matrix")
        if a.ndim != 2 or a.shape[0] < 2:
            raise DomainError(f"state matrix must be one n x n matrix, n >= 2, got {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if self.t < 0:
            raise DomainError("time index must be nonnegative")

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ModelParams:
    """Everything that pins down one model instance.

    ``beta`` holds the two utility weights of :mod:`endorse_dyn.choice`:
    ``beta[0]`` weights the endorsee's score (prestige) and ``beta[1]`` the
    squared score gap (proximity).
    """

    lam: float
    beta: tuple = (0.0, 0.0)
    m: int = 1
    score_kind: str = "springrank"
    alpha_p: float = ALPHA_P
    alpha_s: float = ALPHA_S
    seed: int = 0

    def __post_init__(self):
        check_lam(self.lam)
        object.__setattr__(self, "beta", check_beta(self.beta))
        check_m(self.m)
        check_score_kind(self.score_kind)
        check_alpha_p(self.alpha_p)
        check_alpha_s(self.alpha_s)
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {_shown(self.seed)}")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)


def _shown(value) -> str:
    """repr(value), or the size of an int too long to print (over 4300 digits)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"an integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def _plain(value):
    """A numpy scalar as the Python number it holds, so that a float bound
    compares exactly: numpy would first cast the bound to a float32 or
    float16 value, where FLOAT_MAX overflows to inf."""
    return value.item() if isinstance(value, np.generic) else value


def check_matrix(a, name: str) -> np.ndarray:
    """`a` as a float array: one square matrix or a stack of them, with
    finite, nonnegative entries.  Each check_* raises DomainError outside its rule."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite entries")
    if a.size and a.min() < 0.0:
        raise DomainError(f"{name} has negative entries")
    return a


def check_n(n) -> None:
    """n nodes: an integer in [2, N_MAX], so an n x n state has at most
    EXACT_MAX cells."""
    if not (isinstance(n, numbers.Integral) and 2 <= n <= N_MAX):
        raise DomainError(f"n must be an integer with n >= 2 and n <= {N_MAX}, got {_shown(n)}")


def check_m(m) -> None:
    """m endorsements per step: a positive integral real of at most
    EXACT_MAX (2.0 passes, 2.5 and "2" do not).  The bound comes first, so
    no float conversion of m can overflow."""
    if not (isinstance(m, numbers.Real) and 1 <= _plain(m) <= EXACT_MAX
            and float(m).is_integer()):
        raise DomainError(f"m must be a positive integer of at most 2**53, got {_shown(m)}")


def check_lam(lam) -> None:
    """The memory parameter lambda is a real in [0, 1]."""
    if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
        raise DomainError(f"lambda must lie in [0, 1], got {_shown(lam)}")


def check_beta(beta) -> tuple[float, float]:
    """The utility weights (prestige, proximity) as two floats: a pair of
    finite reals.  The bounds come before any conversion, so none overflows."""
    try:
        pair = tuple(beta) if len(beta) == 2 else ()
    except TypeError:
        pair = ()
    if not (pair and all(isinstance(b, numbers.Real) and -FLOAT_MAX <= _plain(b) <= FLOAT_MAX
                         for b in pair)):
        raise DomainError("beta needs 2 coefficients (prestige, proximity), each a finite "
                          f"real, got {_shown(beta)}")
    return float(pair[0]), float(pair[1])


def check_score_kind(kind) -> None:
    """The score kind is one of SCORE_KINDS, by name."""
    if not (isinstance(kind, str) and kind in SCORE_KINDS):
        raise DomainError(f"unknown score kind {_shown(kind)}; choose from {SCORE_KINDS}")


def check_alpha_p(alpha_p) -> None:
    """The PageRank damping alpha_p is a real in (0, 1)."""
    if not (isinstance(alpha_p, numbers.Real) and 0.0 < alpha_p < 1.0):
        raise DomainError(f"alpha_p must lie in (0, 1), got {_shown(alpha_p)}")


def check_alpha_s(alpha_s) -> None:
    """The SpringRank regularizer alpha_s is a positive real of at most the largest float."""
    if not (isinstance(alpha_s, numbers.Real) and 0.0 < _plain(alpha_s) <= FLOAT_MAX):
        raise DomainError(f"alpha_s must be positive and finite, got {_shown(alpha_s)}")


def check_count(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise DomainError naming `name` unless `value` is an integer in [lo, hi]
    (no upper bound when `hi` is None)."""
    if not (isinstance(value, numbers.Integral) and lo <= value and (hi is None or value <= hi)):
        if hi is None:
            raise DomainError(f"{name} must be an integer with {name} >= {lo}, got {_shown(value)}")
        raise DomainError(f"{name} must lie in [{lo}, {hi}] and be an integer, got {_shown(value)}")


def step(state: EndorsementState, delta: np.ndarray, lam: float) -> EndorsementState:
    """Apply one memory update: a' = lam*a + (1-lam)*delta, t' = t+1."""
    delta = check_matrix(delta, "delta")
    if delta.shape != state.a.shape:
        raise DomainError(
            f"delta shape {delta.shape} does not match state shape {state.a.shape}"
        )
    check_lam(lam)
    return EndorsementState(a=lam * state.a + (1.0 - lam) * delta, t=state.t + 1)


def rank_vector(p: np.ndarray) -> np.ndarray:
    """gamma_j = n^-1 sum_i p_ij for a row-stochastic p.

    gamma_j is the probability that the next endorsement lands on j.
    """
    p = check_matrix(p, "p")
    if p.ndim != 2 or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise DomainError("p must be one row-stochastic n x n matrix")
    return p.mean(axis=0)


def uniform_initial(n: int, m: int) -> np.ndarray:
    """Default A(0) = (m/n^2) E: uniform weights with stationary total m."""
    check_n(n)
    check_m(m)
    return np.full((n, n), m / n**2)


def sparse_random_initial(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded sparse start: m endorsements scattered uniformly over cells."""
    check_n(n)
    check_m(m)
    counts = rng.multinomial(m, np.full(n * n, 1.0 / (n * n)))
    return counts.reshape(n, n).astype(float)
