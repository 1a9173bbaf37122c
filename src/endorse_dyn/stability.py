"""Long-memory-limit analysis: drift fields, critical values, equilibria.

As the memory parameter approaches 1 the stochastic dynamics slave to a
deterministic drift.  Each score kind has its own natural state space:

* rootdegree: the state is the in-degree vector d and the features see
  the score sqrt(d), with drift f(d) = m*gamma(d) - d;
* pagerank: fixed points solve s = pagerank_score(m G(s)) with e^T s = n;
* springrank: the drift is a linear solve against the regularized
  Laplacian of the current adjacency (closed form below).

Everything that differs between kinds lives in one `_Kind` record per kind
(``_KINDS``); the public functions take the kind's name and look its record
up through `_kind`.

``two_group_equilibria`` continues fixed points with k nodes at one score
value and n-k at another across a beta1 grid and classifies their linear
stability, which is what a bifurcation diagram needs.  Equilibrium a/b
values are reported in each kind's own state space (in-degree units for
rootdegree, score units otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .choice import choice_probabilities, utility
from .core import ModelParams
from .errors import DomainError, NumericError
from .scores import in_degree, out_degree, pagerank_score, springrank_score


@dataclass(frozen=True)
class _Kind:
    """What the long-memory analysis needs to know about one score kind."""

    state_of: Callable  # (a, params) -> the kind's state variable
    to_score: Callable  # state -> the score the features see
    score_slope: Callable  # state -> elementwise d score / d state
    egalitarian: Callable  # (n, m) -> the egalitarian root
    critical: Callable  # (n, m, alpha_p, alpha_s) -> critical beta1
    root_residual: Callable  # (s, params) -> root system, zero at fixed points
    reported_residual: Callable  # (s, params) -> residual reported per root
    drift: Callable  # (s, a or None, params) -> closed-form drift
    jacobian: Callable  # (s*, params) -> drift Jacobian at a fixed point
    seeds: Callable  # (n, k, m) -> fresh two-group Newton starts (a, b)
    nonneg: bool  # the state must stay nonnegative


def _kind(score_kind: str) -> _Kind:
    try:
        return _KINDS[score_kind]
    except KeyError:
        raise DomainError(f"unknown score kind {score_kind!r}") from None


def egalitarian_root(score_kind: str, n: int, m: int) -> np.ndarray:
    return _kind(score_kind).egalitarian(n, m)


def state_of(score_kind: str, a: np.ndarray, params: ModelParams) -> np.ndarray:
    """The kind's state variable for an adjacency (in-degree or score)."""
    return _kind(score_kind).state_of(a, params)


# ---------------------------------------------------------------------------
# probabilities and their derivatives in state space
# ---------------------------------------------------------------------------


def state_probabilities(score_kind: str, s: np.ndarray, beta) -> np.ndarray:
    """Choice matrix p(s): the canonical features on the kind's score of s."""
    return choice_probabilities(utility(_kind(score_kind).to_score(s), beta))


def state_rate_matrix(score_kind: str, s: np.ndarray, beta) -> np.ndarray:
    p = state_probabilities(score_kind, s, beta)
    return p / p.shape[0]


def state_rank_vector(score_kind: str, s: np.ndarray, beta) -> np.ndarray:
    return state_probabilities(score_kind, s, beta).mean(axis=0)


def _logit_derivatives(p: np.ndarray, r: np.ndarray, beta, w: np.ndarray):
    """Weighted contractions of d p_ij / d r_k for the canonical logit.

    With u_ij = beta1 r_j + beta2 (r_i - r_j)^2 and p its row softmax,

        d p_ij / d r_k = delta_jk h_ij + delta_ik e_ij - p_ij h_ik
        h_ij = p_ij (beta1 - 2 beta2 (r_i - r_j))
        e_ij = 2 beta2 p_ij ((r_i - r_j) - sum_j' p_ij' (r_i - r_j'))

    Returns (fwd, bwd) with fwd[j, k] = sum_i w_i d p_ij / d r_k and
    bwd[j, k] = sum_i w_i d p_ji / d r_k, in O(n^2) memory.
    """
    b1, b2 = beta
    diff = r[:, None] - r[None, :]
    h = p * (b1 - 2.0 * b2 * diff)
    e = 2.0 * b2 * p * (diff - (p * diff).sum(axis=1, keepdims=True))
    fwd = np.diag(w @ h) + e.T * w - p.T @ (w[:, None] * h)
    bwd = h * (w - (p @ w)[:, None]) + np.diag(e @ w)
    return fwd, bwd


def dprob_tensor(s: np.ndarray, beta) -> np.ndarray:
    """dP[i,j,k] = d p_ij / d s_k for the canonical logit, as an n^3 array.

    A brute-force reference straight from the logit formula, for tests; the
    solvers use the O(n^2) contractions of `_logit_derivatives`.
    """
    s = np.asarray(s, dtype=float)
    p = choice_probabilities(utility(s, beta))
    eye = np.eye(s.shape[0])
    diff = s[:, None] - s[None, :]
    # du[i, j, k] = d u_ij / d s_k
    du = beta[0] * eye[None, :, :] + 2.0 * beta[1] * diff[:, :, None] * (
        eye[:, None, :] - eye[None, :, :]
    )
    return p[:, :, None] * (du - np.einsum("ij,ijk->ik", p, du)[:, None, :])


def dgamma_ds(score_kind: str, s: np.ndarray, beta) -> np.ndarray:
    """M(s)[j,k] = d gamma_j / d s_k, gamma = column means of p."""
    kind = _kind(score_kind)
    s = np.asarray(s, dtype=float)
    r = kind.to_score(s)
    p = choice_probabilities(utility(r, beta))
    fwd, _ = _logit_derivatives(p, r, beta, np.full(s.shape[0], 1.0 / s.shape[0]))
    return fwd * kind.score_slope(s)


# ---------------------------------------------------------------------------
# drift fields
# ---------------------------------------------------------------------------


def f_degree(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """Drift of the in-degree vector: f(d) = m * gamma(d) - d."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("in-degree state must be nonnegative")
    gamma = state_rank_vector("rootdegree", s, params.beta)
    return params.m * gamma - s


def f_pagerank_root_system(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """Residual of [G^T(s) + a^-1 (1-a) n^-2 E] s - a^-1 n^-1 s, e^T s = n.

    Zero exactly at fixed points of the score-feedback loop.  The bracketed
    operator has constant column sums 1/(a n), so its leading eigenvalue is
    1/(a n) for any s; roots are located with `pagerank_alternating_solve`.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if abs(s.sum() - n) > 1e-8 * n:
        raise DomainError("pagerank root candidates must satisfy e^T s = n")
    if np.any(s <= 0):
        raise DomainError("pagerank root candidates must be strictly positive")
    return _pagerank_residual(s, params)


def _pagerank_residual(s: np.ndarray, params: ModelParams) -> np.ndarray:
    n = s.shape[0]
    a = params.alpha_p
    g = state_rate_matrix("pagerank", s, params.beta)
    return g.T @ s + (1.0 - a) / (a * n * n) * s.sum() - s / (a * n)


def _pagerank_root_residual(s: np.ndarray, params: ModelParams) -> np.ndarray:
    n = s.shape[0]
    a = params.alpha_p
    g = state_rate_matrix("pagerank", s, params.beta)
    return a * n * (g.T @ s) + (1.0 - a) - s


def pagerank_alternating_solve(
    s0: np.ndarray,
    params: ModelParams,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Alternate the leading-eigenvector solve with refreshing G from s.

    Since rows of m G(s) sum to m/n, the eigen step is exactly
    pagerank_score(m G(s)); iterate s <- pagerank_score(m G(s)) to a fixed
    point.
    """
    s = np.asarray(s0, dtype=float).copy()
    for _ in range(max_iter):
        nxt = pagerank_score(params.m * state_rate_matrix("pagerank", s, params.beta),
                             params.alpha_p)
        delta = np.abs(nxt - s).max()
        s = nxt
        if delta <= tol:
            return s
    raise NumericError(
        "pagerank alternating solve did not converge",
        diagnostics={
            "iterations": max_iter,
            "last_step": float(delta),
            "last_residual": float(np.abs(_pagerank_residual(s, params)).max()),
        },
    )


def _springrank_lg(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = gamma.shape[0]
    return np.diag(gamma) + np.eye(n) / n - (g + g.T)


def _springrank_forcing(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """alpha_s s + m (L_G(s) s + (e/n - gamma(s))); zero at fixed points."""
    n = s.shape[0]
    g = state_rate_matrix("springrank", s, params.beta)
    gamma = g.sum(axis=0)
    lg = _springrank_lg(gamma, g)
    return params.alpha_s * s + params.m * (lg @ s + (1.0 / n - gamma))


def _l_alpha(a: np.ndarray, alpha_s: float) -> np.ndarray:
    lap = np.diag(in_degree(a) + out_degree(a)) - (a + a.T)
    lap[np.diag_indices_from(lap)] += alpha_s
    return lap


def _solve_projected(l_alpha: np.ndarray, rhs: np.ndarray, x_mean: float) -> np.ndarray:
    """Solve l_alpha x = rhs given the exact mean of the solution.

    A 2-D rhs is solved column by column, every column with mean x_mean.

    l_alpha has the tiny eigenvalue alpha_s on e, so rounding noise in
    rhs's e-component is amplified by 1/alpha_s.  Solve on the mean-zero
    part and reattach the analytically known mean instead.
    """
    rhs_perp = rhs - rhs.mean(axis=0)
    x = scipy.linalg.solve(l_alpha, rhs_perp, assume_a="pos")
    return x - x.mean(axis=0) + x_mean


def f_springrank(s: np.ndarray, a: np.ndarray, params: ModelParams) -> np.ndarray:
    """Drift of the spring-embedding score at state (s, a) with s = sigma(a).

        f = -L_alpha(a)^-1 [ alpha_s s + m (L_G(s) s + (e/n - gamma(s))) ]
        L_G = diag(gamma) + I/n - (G + G^T)

    e^T of the bracket equals alpha_s e^T s exactly, so the bracket's
    e-component is replaced by that analytic value before the solve; the
    solution's e-component is then -mean(s).
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    forcing = _springrank_forcing(s, params)
    l_alpha = _l_alpha(a, params.alpha_s)
    # exact mean of L_alpha^-1 forcing is mean(s); f negates it
    y = _solve_projected(l_alpha, forcing, s.mean())
    return -y


def _springrank_drift(s: np.ndarray, a: np.ndarray | None, params: ModelParams) -> np.ndarray:
    if a is None:
        a = params.m * state_rate_matrix("springrank", s, params.beta)
    return f_springrank(s, a, params)


def f_drift(score_kind: str, s: np.ndarray, a: np.ndarray | None, params: ModelParams) -> np.ndarray:
    """Unified closed-form drift.

    `a` is required for pagerank; for springrank it defaults to m G(s), and
    rootdegree ignores it.
    """
    return _kind(score_kind).drift(s, a, params)


def _pagerank_drift(s: np.ndarray, a: np.ndarray | None, params: ModelParams) -> np.ndarray:
    """d/d(eps) of pagerank_score(a + eps (mG(s) - a)) at eps = 0."""
    if a is None:
        # at a = m G(s) the direction mG(s) - a is zero, so the drift would
        # read 0 everywhere and hide every non-root
        raise DomainError(
            "pagerank drift needs the adjacency a; for roots without one use "
            "f_pagerank_root_system"
        )
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    n = s.shape[0]
    dout = a.sum(axis=1)
    if np.any(dout <= 0):
        raise DomainError("pagerank drift needs strictly positive out-degrees")
    w = (a / dout[:, None]).T  # P^T
    h = params.m * state_rate_matrix("pagerank", s, params.beta) - a
    v = s / dout
    rhs = h.T @ v - w @ (h.sum(axis=1) * v)
    alpha = params.alpha_p
    return alpha * np.linalg.solve(np.eye(n) - alpha * w, rhs)


def finite_memory_drift(
    score_kind: str,
    s: np.ndarray,
    a: np.ndarray,
    params: ModelParams,
    lam: float = 1.0 - 1e-6,
) -> np.ndarray:
    """Defining-limit oracle: [sigma(lam a + (1-lam) m G(s)) - s] / (1-lam).

    Requires s = sigma(a) in the kind's state space.  Used in tests to pin
    the closed-form drifts; exposed because it is the model-agnostic way to
    attach a drift to a custom score function.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    g = state_rate_matrix(score_kind, s, params.beta)
    a_next = lam * a + (1.0 - lam) * params.m * g
    return (state_of(score_kind, a_next, params) - s) / (1.0 - lam)


# ---------------------------------------------------------------------------
# jacobians and critical values
# ---------------------------------------------------------------------------


def critical_beta1(
    score_kind: str,
    n: int,
    m: float,
    alpha_p: float = 0.85,
    alpha_s: float = 1e-8,
) -> float:
    """Threshold on beta1 where the egalitarian root loses stability."""
    if n < 2 or m <= 0:
        raise DomainError("need n >= 2 and m > 0")
    return _kind(score_kind).critical(n, m, alpha_p, alpha_s)


def _pagerank_critical(n: int, m: float, alpha_p: float, alpha_s: float) -> float:
    if not 0.0 < alpha_p < 1.0:
        raise DomainError("alpha_p must lie in (0, 1)")
    return 1.0 / alpha_p


def _springrank_critical(n: int, m: float, alpha_p: float, alpha_s: float) -> float:
    if alpha_s <= 0:
        raise DomainError("alpha_s must be positive")
    return 2.0 + alpha_s * n / m


def jacobian_egalitarian(score_kind: str, params: ModelParams, n: int):
    """M = dgamma/ds and the assembled drift Jacobian at the egalitarian root.

    Returns (M, J, eigenvalues).  Only beta1 enters: the proximity feature's
    gradient vanishes identically at equal scores, so J is exactly invariant
    to beta2.
    """
    s0 = egalitarian_root(score_kind, n, params.m)
    m_mat = dgamma_ds(score_kind, s0, params.beta)
    jac = fixed_point_jacobian(score_kind, s0, params)
    return m_mat, jac, np.linalg.eigvals(jac)


def fixed_point_jacobian(score_kind: str, s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    """Drift Jacobian at an arbitrary fixed point (egalitarian or not).

    Every kind reduces to J = m * Dsigma[A*] dG/ds - I at the state
    A* = m G(s*); the A-space linearization shares this spectrum apart from
    extra -1 eigenvalues.
    """
    return _kind(score_kind).jacobian(np.asarray(s_star, dtype=float), params)


def _rootdegree_jacobian(d_star: np.ndarray, params: ModelParams) -> np.ndarray:
    m_mat = dgamma_ds("rootdegree", d_star, params.beta)
    return params.m * m_mat - np.eye(d_star.shape[0])


def _pagerank_jacobian(s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    # A* = m G(s*): rows sum to m/n, so P = n G and (D_out)^-1 s = (n/m) s.
    n = s_star.shape[0]
    alpha = params.alpha_p
    p = state_probabilities("pagerank", s_star, params.beta)
    # column k of the resolvent's input is sum_i s_i dp_ij/ds_k; its partner
    # term P^T ((dP_k e) o s) vanishes because every row of p sums to one
    rhs, _ = _logit_derivatives(p, s_star, params.beta, s_star)
    cols = alpha * np.linalg.solve(np.eye(n) - alpha * p.T, rhs)
    return cols - np.eye(n)


def _springrank_jacobian(s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    n = s_star.shape[0]
    beta = params.beta
    alpha_s = params.alpha_s
    m = params.m
    p = state_probabilities("springrank", s_star, beta)
    g = p / n
    lg = _springrank_lg(g.sum(axis=0), g)
    m_mat, _ = _logit_derivatives(p, s_star, beta, np.full(n, 1.0 / n))
    fwd, bwd = _logit_derivatives(p, s_star, beta, s_star)
    # dF/ds columns: alpha_s I + m [L_G + diag(M v) s* - (dG + dG^T) s* - M]
    dsym = (fwd + bwd) / n
    df = alpha_s * np.eye(n) + m * (lg + m_mat * s_star[:, None] - dsym - m_mat)
    # column sums of dF are exactly alpha_s, so every column of
    # L_alpha^-1 dF has mean 1/n: solve the mean-zero part, add 1/n back
    y = _solve_projected(m * lg + alpha_s * np.eye(n), df, 0.0)
    return -y - 1.0 / n


# ---------------------------------------------------------------------------
# one record per score kind
# ---------------------------------------------------------------------------


def _mass_seeds(n: int, k: int, total: float) -> list[np.ndarray]:
    """Egalitarian, perturbed and elite-dominated splits of a fixed total."""
    e0 = total / n
    seeds = [np.array([e0, e0]), np.array([1.3 * e0, e0 * (1 - 0.3 * k / (n - k))])]
    for frac in (0.6, 0.9, 0.99):
        seeds.append(np.array([frac * total / k, (1 - frac) * total / (n - k)]))
    return seeds


def _centered_seeds(n: int, k: int, m: float) -> list[np.ndarray]:
    """Zero-mean splits: egalitarian, then growing elite gaps."""
    seeds = [np.array([0.0, 0.0])]
    for c in (0.2, 1.0, 3.0, 6.0):
        seeds.append(np.array([c * (n - k) / n, -c * k / n]))
    return seeds


_KINDS = {
    "rootdegree": _Kind(
        state_of=lambda a, params: in_degree(a),
        to_score=np.sqrt,
        score_slope=lambda d: 0.5 / np.sqrt(d),
        egalitarian=lambda n, m: np.full(n, m / n),
        critical=lambda n, m, alpha_p, alpha_s: 2.0 * np.sqrt(n / m),
        root_residual=f_degree,
        reported_residual=f_degree,
        drift=lambda s, a, params: f_degree(s, params),
        jacobian=_rootdegree_jacobian,
        seeds=_mass_seeds,
        nonneg=True,
    ),
    "pagerank": _Kind(
        state_of=lambda a, params: pagerank_score(a, params.alpha_p),
        to_score=lambda s: s,
        score_slope=lambda s: 1.0,
        egalitarian=lambda n, m: np.ones(n),
        critical=_pagerank_critical,
        root_residual=_pagerank_root_residual,
        reported_residual=_pagerank_residual,
        drift=_pagerank_drift,
        jacobian=_pagerank_jacobian,
        seeds=lambda n, k, m: _mass_seeds(n, k, n),
        nonneg=False,
    ),
    "springrank": _Kind(
        state_of=lambda a, params: springrank_score(a, params.alpha_s),
        to_score=lambda s: s,
        score_slope=lambda s: 1.0,
        egalitarian=lambda n, m: np.zeros(n),
        critical=_springrank_critical,
        root_residual=_springrank_forcing,
        reported_residual=lambda s, params: _springrank_drift(s, None, params),
        drift=_springrank_drift,
        jacobian=_springrank_jacobian,
        seeds=_centered_seeds,
        nonneg=False,
    ),
}


# ---------------------------------------------------------------------------
# two-group equilibria and continuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equilibrium:
    s_star: np.ndarray
    residual: float
    jacobian_eigs: np.ndarray
    stable: bool
    marginal: bool
    k_elite: int  # 0 marks the egalitarian (degenerate a = b) root
    a: float
    b: float

    @property
    def max_eig_real(self) -> float:
        return float(self.jacobian_eigs.real.max())


@dataclass(frozen=True)
class Branch:
    k_elite: int
    beta1: np.ndarray
    equilibria: tuple


def _full_residual(score_kind: str, s: np.ndarray, params: ModelParams) -> np.ndarray:
    """The n-dimensional root system F(s); zero exactly at fixed points."""
    return _kind(score_kind).root_residual(s, params)


def _two_group_vector(a: float, b: float, k: int, n: int) -> np.ndarray:
    s = np.full(n, b, dtype=float)
    s[:k] = a
    return s


def _newton_two_group(
    score_kind: str,
    params: ModelParams,
    n: int,
    k: int,
    x0: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 80,
) -> np.ndarray | None:
    """Damped Newton on the 2-variable reduced system; None on failure."""

    nonneg = _kind(score_kind).nonneg

    def resid(x):
        s = _two_group_vector(x[0], x[1], k, n)
        full = _full_residual(score_kind, s, params)
        return np.array([full[0], full[k]])

    x = np.asarray(x0, dtype=float).copy()
    if nonneg:
        x = np.maximum(x, 1e-12)
    fx = resid(x)
    norm = np.abs(fx).max()
    best_x, best_norm = x.copy(), norm
    # iterate past `tol` while steps still improve: downstream residual
    # reporting divides by a possibly small spectral gap, so polish to the
    # numerical floor when it is cheap
    for _ in range(max_iter):
        if norm <= 1e-15 * (1.0 + np.abs(x).max()):
            break
        jac = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * (1.0 + abs(x[j]))
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            if nonneg:
                xm[j] = max(xm[j], 0.0)
            jac[:, j] = (resid(xp) - resid(xm)) / (xp[j] - xm[j])
        try:
            dx = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError:
            break
        # backtrack until the residual actually drops (and stays in domain)
        step = 1.0
        improved = False
        for _ in range(40):
            xn = x - step * dx
            if nonneg and np.any(xn < 0):
                step *= 0.5
                continue
            fn = resid(xn)
            if np.abs(fn).max() < norm:
                x, fx = xn, fn
                norm = np.abs(fx).max()
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    return best_x if best_norm <= tol else None


def _classify(score_kind: str, x: np.ndarray, k: int, n: int, params: ModelParams) -> Equilibrium:
    a, b = float(x[0]), float(x[1])
    tie = abs(a - b) < 1e-9 * (1.0 + abs(a) + abs(b))
    if tie:
        mid = 0.5 * (a + b)
        a = b = mid
        k_out = 0
        s = np.full(n, mid)
    elif a > b:
        k_out = k
        s = _two_group_vector(a, b, k, n)
    else:
        # canonical form: elite group = larger score value
        a, b = b, a
        k_out = n - k
        s = _two_group_vector(a, b, k_out, n)
    jac = fixed_point_jacobian(score_kind, s, params)
    eigs = np.linalg.eigvals(jac)
    max_re = float(eigs.real.max())
    return Equilibrium(
        s_star=s,
        residual=float(np.abs(_kind(score_kind).reported_residual(s, params)).max()),
        jacobian_eigs=eigs,
        stable=max_re < 0.0,
        marginal=abs(max_re) < 1e-10,
        k_elite=k_out,
        a=a,
        b=b,
    )


def two_group_equilibria(
    score_kind: str,
    params: ModelParams,
    n: int,
    k_elite: int,
    beta1_grid,
) -> list[Branch]:
    """Continue two-group fixed points over a beta1 grid.

    For each beta1, roots of the reduced system with k_elite nodes at value
    a and n-k_elite at value b are found from fresh seeds plus continuation
    from the previous grid point's roots, deduplicated, canonicalized to
    a >= b, and classified by the full drift-Jacobian spectrum.  A
    root-finder failure at one grid point leaves a gap in the affected
    branch rather than aborting the sweep.
    """
    kind = _kind(score_kind)
    if not 1 <= k_elite < n:
        raise DomainError("need 1 <= k_elite < n")
    beta1_grid = [float(b) for b in beta1_grid]

    per_point: list[list[Equilibrium]] = []
    carried: list[np.ndarray] = []
    for b1 in beta1_grid:
        p = params.with_(beta=(b1,) + params.beta[1:])
        candidates = []
        for x0 in kind.seeds(n, k_elite, p.m) + carried:
            x = _newton_two_group(score_kind, p, n, k_elite, x0)
            if x is not None:
                candidates.append(x)
        uniq: list[np.ndarray] = []
        for x in candidates:
            scale = 1.0 + abs(x[0]) + abs(x[1])
            if not any(np.abs(x - u).max() < 1e-7 * scale for u in uniq):
                uniq.append(x)
        carried = uniq
        per_point.append([_classify(score_kind, x, k_elite, n, p) for x in uniq])

    return _link_branches(beta1_grid, per_point)


def _link_branches(beta1_grid, per_point) -> list[Branch]:
    """Greedy nearest-continuation linking of per-grid-point roots."""
    open_branches: list[dict] = []
    closed: list[dict] = []
    for idx, (b1, eqs) in enumerate(zip(beta1_grid, per_point)):
        still_open = []
        used = set()
        for br in open_branches:
            if br["last_idx"] != idx - 1:
                closed.append(br)
                continue
            last = br["eqs"][-1]
            best_j, best_d = None, np.inf
            for j, eq in enumerate(eqs):
                if j in used or eq.k_elite != br["k"]:
                    continue
                d = abs(eq.a - last.a) + abs(eq.b - last.b)
                if d < best_d:
                    best_j, best_d = j, d
            scale = 1.0 + abs(last.a) + abs(last.b)
            if best_j is not None and best_d < 0.5 * scale:
                br["beta1"].append(b1)
                br["eqs"].append(eqs[best_j])
                br["last_idx"] = idx
                used.add(best_j)
                still_open.append(br)
            else:
                closed.append(br)
        for j, eq in enumerate(eqs):
            if j not in used:
                still_open.append(
                    {"k": eq.k_elite, "beta1": [b1], "eqs": [eq], "last_idx": idx}
                )
        open_branches = still_open
    closed.extend(open_branches)
    return [
        Branch(k_elite=br["k"], beta1=np.array(br["beta1"]), equilibria=tuple(br["eqs"]))
        for br in closed
    ]
