"""Long-memory-limit analysis: drift fields, critical values, equilibria.

As the memory parameter approaches 1 the stochastic dynamics slave to a
deterministic drift.  Each score kind has its own natural state space:

* rootdegree: the state is the in-degree vector d and the features see
  the score sqrt(d), with drift f(d) = m*gamma(d) - d;
* pagerank: fixed points solve s = pagerank_score(m G(s)) with e^T s = n;
* springrank: the drift is a linear solve against the regularized
  Laplacian of the current adjacency (closed form below).

Everything that differs between kinds lives in one `_Kind` record per kind
(``_KINDS``).  A function that takes `params` reads the kind from
``params.score_kind``, which `ModelParams` has checked; the others take the
kind's name and look its record up through `_kind`, which applies `core`'s
kind rule first.  :mod:`endorse_dyn.scores` builds the SpringRank Laplacian
and solves against I - alpha_p P^T.

``two_group_equilibria`` finds every fixed point with k nodes at one score
value and n-k at another across a beta1 grid and classifies its linear
stability, which is what a bifurcation diagram needs.  It solves and
classifies on the two-group quotient, at a cost per root that does not grow
with n.  Newton drives the kind's root system F (``_full_residual``) to
zero, and Equilibrium.residual is its sup norm.  Equilibrium a/b values are
reported in each kind's own state space (in-degree units for rootdegree,
score units otherwise).
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from math import exp, isfinite, sqrt
from typing import Callable

import numpy as np

from .choice import choice_probabilities, utility
from .core import (ALPHA_P, ALPHA_S, FLOAT_MAX, ModelParams, _plain, _shown, check_alpha_p,
                   check_alpha_s, check_matrix, check_n, check_score_kind)
from .errors import DomainError
from .scores import (_cholesky_solve, _pagerank_resolve, _spring_system, in_degree,
                     pagerank_score, springrank_score)


@dataclass(frozen=True)
class _Kind:
    """What the long-memory analysis needs to know about one score kind."""

    state_of: Callable  # (a, params) -> the kind's state variable
    to_score: Callable  # state -> the score the features see
    score_slope: Callable  # state -> elementwise d score / d state
    egalitarian: Callable  # (n, m) -> the egalitarian root
    critical: Callable  # (n, m, alpha_p, alpha_s) -> critical beta1
    root_residual: Callable  # (s, params) -> the root system F, zero at fixed points
    drift: Callable  # (s, a or None, params) -> closed-form drift
    jacobian: Callable  # (s*, params) -> drift Jacobian at a fixed point
    # the two-group quotient (see below) of F and of the drift Jacobian:
    quotient: Callable  # (a, b, k, n, params) -> [F_0, F_k], F's 2x2 Jacobian
    quotient_drift: Callable  # (a, b, k, n, params, F's 2x2 Jacobian) -> J's quotient, lam
    seeds: Callable  # (n, k, m) -> fresh two-group Newton starts (a, b) with a != b
    nonneg: bool  # the state must stay nonnegative


def _kind(score_kind: str) -> _Kind:
    check_score_kind(score_kind)
    return _KINDS[score_kind]


def _check_mean_m(m) -> None:
    """The long-memory analysis takes a mean count m: a positive finite real."""
    if not (isinstance(m, numbers.Real) and 0.0 < _plain(m) <= FLOAT_MAX):
        raise DomainError(f"m must be positive and finite, got {_shown(m)}")


def egalitarian_root(score_kind: str, n: int, m: float) -> np.ndarray:
    """The kind's egalitarian root at n nodes; m may be a mean count."""
    check_n(n)
    _check_mean_m(m)
    return _kind(score_kind).egalitarian(n, m)


def state_of(a: np.ndarray, params: ModelParams) -> np.ndarray:
    """params' kind's state variable for an adjacency (in-degree or score)."""
    return _KINDS[params.score_kind].state_of(a, params)


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
    gamma = state_rank_vector("rootdegree", s, params.beta)
    return params.m * gamma - s


def f_pagerank_root_system(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """Root system alpha_p n G^T(s) s + (1 - alpha_p) - s on e^T s = n: zero
    exactly where s is the PageRank score of A = m G(s), at the fixed points."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if abs(s.sum() - n) > 1e-8 * n:
        raise DomainError("pagerank root candidates must satisfy e^T s = n")
    if np.any(s <= 0):
        raise DomainError("pagerank root candidates must be strictly positive")
    return _pagerank_root_residual(s, params)


def _pagerank_root_residual(s: np.ndarray, params: ModelParams) -> np.ndarray:
    n = s.shape[0]
    a = params.alpha_p
    g = state_rate_matrix("pagerank", s, params.beta)
    return a * n * (g.T @ s) + (1.0 - a) - s


def _springrank_forcing(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """alpha_s s + m (L_G(s) s + (e/n - gamma(s))); zero at fixed points.

    It is L_alpha s - (d_in - d_out) of SpringRank's system for m G(s)."""
    lap, rhs = _spring_system(params.m * state_rate_matrix("springrank", s, params.beta),
                              params.alpha_s)
    return lap @ s - rhs


def _solve_projected(l_alpha: np.ndarray, rhs: np.ndarray, x_mean: float) -> np.ndarray:
    """Solve l_alpha x = rhs given the exact mean of the solution.

    A 2-D rhs is solved column by column, every column with mean x_mean.

    l_alpha has the tiny eigenvalue alpha_s on e, so rounding noise in
    rhs's e-component is amplified by 1/alpha_s.  Solve on the mean-zero
    part and reattach the analytically known mean instead.
    """
    rhs_perp = rhs - rhs.mean(axis=0)
    x = _cholesky_solve(l_alpha, rhs_perp)
    return x - x.mean(axis=0) + x_mean


def _springrank_drift(s: np.ndarray, a: np.ndarray | None, params: ModelParams) -> np.ndarray:
    """Drift of the spring-embedding score at state (s, a) with s = sigma(a).

        f = -L_alpha(a)^-1 [ alpha_s s + m (L_G(s) s + (e/n - gamma(s))) ]
        L_G = diag(gamma) + I/n - (G + G^T)

    `a` defaults to m G(s).  e^T of the bracket equals alpha_s e^T s
    exactly, so the bracket's e-component is replaced by that analytic value
    before the solve; the solution's e-component is then -mean(s).
    """
    s = np.asarray(s, dtype=float)
    if a is None:
        a = params.m * state_rate_matrix("springrank", s, params.beta)
    a = check_matrix(a, "adjacency")
    forcing = _springrank_forcing(s, params)
    l_alpha, _ = _spring_system(a, params.alpha_s)
    # exact mean of L_alpha^-1 forcing is mean(s); f negates it
    y = _solve_projected(l_alpha, forcing, s.mean())
    return -y


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
    a = check_matrix(a, "adjacency")
    dout = a.sum(axis=1)
    if np.any(dout <= 0):
        raise DomainError("pagerank drift needs strictly positive out-degrees")
    p = a / dout[:, None]
    h = params.m * state_rate_matrix("pagerank", s, params.beta) - a
    v = s / dout
    rhs = h.T @ v - p.T @ (h.sum(axis=1) * v)
    return params.alpha_p * _pagerank_resolve(p, params.alpha_p, rhs)


def finite_memory_drift(s: np.ndarray, a: np.ndarray, params: ModelParams) -> np.ndarray:
    """Defining-limit oracle: [sigma(lam a + (1-lam) m G(s)) - s] / (1-lam)
    at lam = params.lam, which must be below 1.

    Requires s = sigma(a) in the state space of params' kind.  The tests
    pin the closed-form drifts of `f_drift` against it at lam = 1 - 1e-6.
    """
    lam = params.lam
    if lam == 1.0:
        raise DomainError("finite_memory_drift needs lambda < 1, got 1")
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    g = state_rate_matrix(params.score_kind, s, params.beta)
    a_next = lam * a + (1.0 - lam) * params.m * g
    return (state_of(a_next, params) - s) / (1.0 - lam)


# ---------------------------------------------------------------------------
# jacobians and critical values
# ---------------------------------------------------------------------------


def critical_beta1(
    score_kind: str,
    n: int,
    m: float,
    alpha_p: float = ALPHA_P,
    alpha_s: float = ALPHA_S,
) -> float:
    """Threshold on beta1 where the egalitarian root loses stability; m may be a mean count."""
    check_n(n)
    _check_mean_m(m)
    check_alpha_p(alpha_p)
    check_alpha_s(alpha_s)
    return _kind(score_kind).critical(n, m, alpha_p, alpha_s)


def jacobian_egalitarian(params: ModelParams, n: int):
    """The drift Jacobian J at the egalitarian root, and its eigenvalues.

    Returns (J, eigenvalues); `dgamma_ds` gives M = dgamma/ds there.  Only
    beta1 enters: the proximity feature's gradient vanishes identically at
    equal scores, so J is exactly invariant to beta2.
    """
    jac = fixed_point_jacobian(egalitarian_root(params.score_kind, n, params.m), params)
    return jac, np.linalg.eigvals(jac)


def fixed_point_jacobian(s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    """Drift Jacobian at an arbitrary fixed point (egalitarian or not).

    Every kind reduces to J = m * Dsigma[A*] dG/ds - I at the state
    A* = m G(s*); the A-space linearization shares this spectrum apart from
    extra -1 eigenvalues.
    """
    return _KINDS[params.score_kind].jacobian(np.asarray(s_star, dtype=float), params)


def _rootdegree_jacobian(d_star: np.ndarray, params: ModelParams) -> np.ndarray:
    m_mat = dgamma_ds("rootdegree", d_star, params.beta)
    return params.m * m_mat - np.eye(d_star.shape[0])


def _pagerank_jacobian(s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    # A* = m G(s*): rows sum to m/n, so P = n G and (D_out)^-1 s = (n/m) s.
    alpha = params.alpha_p
    p = state_probabilities("pagerank", s_star, params.beta)
    # column k of the resolvent's input is sum_i s_i dp_ij/ds_k; its partner
    # term P^T ((dP_k e) o s) vanishes because every row of p sums to one
    rhs, _ = _logit_derivatives(p, s_star, params.beta, s_star)
    return alpha * _pagerank_resolve(p, alpha, rhs) - np.eye(s_star.shape[0])


def _springrank_jacobian(s_star: np.ndarray, params: ModelParams) -> np.ndarray:
    n = s_star.shape[0]
    beta = params.beta
    alpha_s = params.alpha_s
    m = params.m
    p = state_probabilities("springrank", s_star, beta)
    # L_alpha = m L_G + alpha_s I, SpringRank's Laplacian of A* = m G(s*)
    lap, _ = _spring_system(m * (p / n), alpha_s)
    m_mat, _ = _logit_derivatives(p, s_star, beta, np.full(n, 1.0 / n))
    fwd, bwd = _logit_derivatives(p, s_star, beta, s_star)
    # dF/ds columns: L_alpha + m [diag(M v) s* - (dG + dG^T) s* - M]
    dsym = (fwd + bwd) / n
    df = lap + m * (m_mat * s_star[:, None] - dsym - m_mat)
    # column sums of dF are exactly alpha_s, so every column of
    # L_alpha^-1 dF has mean 1/n: solve the mean-zero part, add 1/n back
    y = _solve_projected(lap, df, 0.0)
    return -y - 1.0 / n


# ---------------------------------------------------------------------------
# the two-group quotient
# ---------------------------------------------------------------------------
# A two-group state puts the k elite nodes (group 0) at a and the other n - k
# (group 1) at b.  Permuting nodes within a group leaves the state, and every
# operator built from it, unchanged.  Such an n x n matrix J has one diagonal
# and one off-diagonal value per group and one value per ordered pair of
# groups, so it maps group-constant vectors by the 2x2 quotient
# Q[X, Y] = sum over j in Y of J[i, j] (any i in X), and a vector that lives
# on group X and sums to zero to lam_X times itself, lam_X = J_ii - J_ij
# (i != j, both in X).  Its spectrum is eig(Q), lam_0 (k - 1 times) and
# lam_1 (n - k - 1 times): the equitable-partition quotient (Godsil & Royle,
# Algebraic Graph Theory, 2001, ch. 9) and its isotypic split.  The functions
# below evaluate root systems, their Jacobians and drift spectra there, on
# Python floats, at a cost that does not grow with n; the n-dimensional
# functions above are their test oracles.


def _two_group_logit(r, k: int, n: int, beta):
    """Block choice probabilities at group scores r = (r_0, r_1).

    p[X][Y] is p_ij for i in group X and j in group Y; dp[X][Y][Z] is its
    derivative as every score of group Z moves together,

        dp_XY / dr_Z = p_XY (du_XY / dr_Z - sum_W n_W p_XW du_XW / dr_Z)

    with group sizes n_0 = k and n_1 = n - k.  A non-finite utility raises
    DomainError.
    """
    b1, b2 = beta
    d = r[0] - r[1]
    prox = b2 * (d * d)
    g = 2.0 * b2 * d
    # u[X][Y] = b1 r_Y + b2 (r_X - r_Y)^2 and du[X][Y][Z] = d u_XY / d r_Z
    u = ((b1 * r[0], b1 * r[1] + prox), (b1 * r[0] + prox, b1 * r[1]))
    du = (((b1, 0.0), (g, b1 - g)), ((b1 + g, -g), (0.0, b1)))
    p, dp = [], []
    for (u0, u1), (du0, du1) in zip(u, du):
        if not (isfinite(u0) and isfinite(u1)):
            raise DomainError("utilities must be finite")
        top = max(u0, u1)
        e0, e1 = exp(u0 - top), exp(u1 - top)
        z = k * e0 + (n - k) * e1
        p0, p1 = e0 / z, e1 / z
        mean = (k * p0 * du0[0] + (n - k) * p1 * du1[0],
                k * p0 * du0[1] + (n - k) * p1 * du1[1])
        p.append((p0, p1))
        dp.append(((p0 * (du0[0] - mean[0]), p0 * (du0[1] - mean[1])),
                   (p1 * (du1[0] - mean[0]), p1 * (du1[1] - mean[1]))))
    return p, dp


def _within_group_contractions(p, r, k: int, n: int, beta, w):
    """lam_Y of the contractions fwd and bwd of `_logit_derivatives`.

    For group weights w, all that is not block-constant in fwd is the
    diagonal sum_X n_X w_X h_XY, and in bwd the diagonal
    sum_X n_X w_X e_YX; a block-constant matrix has lam = 0.
    """
    b1, b2 = beta
    nw = (k, n - k)
    fwd, bwd = [], []
    for y in (0, 1):
        fwd.append(sum(nw[x] * w[x] * p[x][y] * (b1 - 2.0 * b2 * (r[x] - r[y]))
                       for x in (0, 1)))
        spread = sum(nw[j] * p[y][j] * (r[y] - r[j]) for j in (0, 1))
        bwd.append(sum(nw[x] * w[x] * 2.0 * b2 * p[y][x] * ((r[y] - r[x]) - spread)
                       for x in (0, 1)))
    return fwd, bwd


def _rootdegree_quotient(a: float, b: float, k: int, n: int, params: ModelParams):
    """f_degree = m gamma - d on the quotient, and its 2x2 Jacobian."""
    r = (sqrt(a), sqrt(b))
    p, dp = _two_group_logit(r, k, n, params.beta)
    m = params.m
    slope = (0.5 / r[0], 0.5 / r[1])  # Newton keeps in-degrees positive
    f, jac = [], []
    for y, s_y in enumerate((a, b)):
        f.append(m * (k * p[0][y] + (n - k) * p[1][y]) / n - s_y)
        jac.append(tuple(m * (k * dp[0][y][z] + (n - k) * dp[1][y][z]) / n * slope[z]
                         - (y == z) for z in (0, 1)))
    return f, jac


def _rootdegree_quotient_drift(a: float, b: float, k: int, n: int, params: ModelParams, jac):
    # the root system is the drift: J = m M - I, and M = fwd(e/n) diag(slope)
    r = (sqrt(a), sqrt(b))
    p, _ = _two_group_logit(r, k, n, params.beta)
    fwd, _ = _within_group_contractions(p, r, k, n, params.beta, (1.0 / n, 1.0 / n))
    lam = [params.m * fwd[y] * (0.5 / r[y]) - 1.0 for y in (0, 1)]
    return jac, lam


def _pagerank_quotient(a: float, b: float, k: int, n: int, params: ModelParams):
    """alpha n G^T s + (1 - alpha) - s on the quotient, and its 2x2 Jacobian."""
    s = (a, b)
    nw = (k, n - k)
    p, dp = _two_group_logit(s, k, n, params.beta)
    al = params.alpha_p
    f, jac = [], []
    for y in (0, 1):
        f.append(al * (k * p[0][y] * a + (n - k) * p[1][y] * b) + (1.0 - al) - s[y])
        jac.append(tuple(al * (k * dp[0][y][z] * a + (n - k) * dp[1][y][z] * b
                               + nw[z] * p[z][y]) - (y == z) for z in (0, 1)))
    return f, jac


def _pagerank_quotient_drift(a: float, b: float, k: int, n: int, params: ModelParams, jac):
    # J = alpha (I - alpha P^T)^-1 fwd(s) - I, not F's `jac`; P^T is block-constant (lam 0)
    s = (a, b)
    nw = (k, n - k)
    p, dp = _two_group_logit(s, k, n, params.beta)
    al = params.alpha_p
    resolvent = np.eye(2) - al * np.array([[nw[z] * p[z][y] for z in (0, 1)] for y in (0, 1)])
    rhs = np.array([[k * a * dp[0][y][z] + (n - k) * b * dp[1][y][z] for z in (0, 1)]
                    for y in (0, 1)])
    quotient = al * np.linalg.solve(resolvent, rhs) - np.eye(2)
    fwd, _ = _within_group_contractions(p, s, k, n, params.beta, s)
    return quotient, [al * fwd[y] - 1.0 for y in (0, 1)]


def _springrank_quotient(a: float, b: float, k: int, n: int, params: ModelParams):
    """`_springrank_forcing` on the quotient, and its 2x2 Jacobian.

        F_Y = alpha_s s_Y + m ((gamma_Y + 1/n) s_Y - q_Y + 1/n - gamma_Y)

    with q = (G + G^T) s.
    """
    s = (a, b)
    nw = (k, n - k)
    p, dp = _two_group_logit(s, k, n, params.beta)
    m, al = params.m, params.alpha_s
    f, jac = [], []
    for y in (0, 1):
        gam = (k * p[0][y] + (n - k) * p[1][y]) / n
        q = (k * (p[y][0] + p[0][y]) * a + (n - k) * (p[y][1] + p[1][y]) * b) / n
        f.append(al * s[y] + m * ((gam + 1.0 / n) * s[y] - q + 1.0 / n - gam))
        row = []
        for z in (0, 1):
            dgam = (k * dp[0][y][z] + (n - k) * dp[1][y][z]) / n
            dq = (k * (dp[y][0][z] + dp[0][y][z]) * a + (n - k) * (dp[y][1][z] + dp[1][y][z]) * b
                  + nw[z] * (p[y][z] + p[z][y])) / n
            row.append((al + m * (gam + 1.0 / n)) * (y == z) + m * (dgam * s[y] - dq - dgam))
        jac.append(tuple(row))
    return f, jac


def _springrank_quotient_drift(a: float, b: float, k: int, n: int, params: ModelParams, df):
    # The drift Jacobian is J = -P L^-1 P dF - E/n, where dF = `df` is the
    # root system's Jacobian, L = m L_G + alpha_s I and P = I - E/n.  On the
    # quotient P maps onto the mean-zero direction (n - k, -k), on which L
    # acts as mu = m (p_01 + p_10) + alpha_s; so P L^-1 P = P / mu there, and
    # the 1/alpha_s of L's e-direction never enters.
    s = (a, b)
    p, _ = _two_group_logit(s, k, n, params.beta)
    m, al = params.m, params.alpha_s
    mu = m * (p[0][1] + p[1][0]) + al
    quotient = np.array([[-(df[y][z] - (k * df[0][z] + (n - k) * df[1][z]) / n) / mu
                          - (k if z == 0 else n - k) / n for z in (0, 1)] for y in (0, 1)])
    # lam of dF = alpha_s I + m (L_G + diag(s) M - (fwd(s) + bwd(s)) / n - M)
    # over lam of L = m (gamma + 1/n) + alpha_s
    m_lam, _ = _within_group_contractions(p, s, k, n, params.beta, (1.0 / n, 1.0 / n))
    fwd, bwd = _within_group_contractions(p, s, k, n, params.beta, s)
    lam = []
    for y in (0, 1):
        gam = (k * p[0][y] + (n - k) * p[1][y]) / n
        df_lam = al + m * (gam + 1.0 / n + s[y] * m_lam[y] - (fwd[y] + bwd[y]) / n - m_lam[y])
        lam.append(-df_lam / (m * (gam + 1.0 / n) + al))
    return quotient, lam


# ---------------------------------------------------------------------------
# one record per score kind
# ---------------------------------------------------------------------------


def _root_degree_of(d) -> np.ndarray:
    """The rootdegree score sqrt(d) of an in-degree state d >= 0."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise DomainError("in-degree state must be nonnegative")
    return np.sqrt(d)


def _root_degree_slope(d) -> np.ndarray:
    """d sqrt(d) / dd = 1 / (2 sqrt(d)), finite only where d > 0."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("the rootdegree score's slope needs positive in-degrees")
    return 0.5 / np.sqrt(d)


def _mass_seeds(n: int, k: int, total: float) -> list[np.ndarray]:
    """Perturbed and elite-dominated splits of a fixed total."""
    e0 = total / n
    return [np.array([1.3 * e0, e0 * (1 - 0.3 * k / (n - k))])] + [
        np.array([frac * total / k, (1 - frac) * total / (n - k)]) for frac in (0.6, 0.9, 0.99)]


def _centered_seeds(n: int, k: int, m: float) -> list[np.ndarray]:
    """Zero-mean splits with growing elite gaps."""
    return [np.array([c * (n - k) / n, -c * k / n]) for c in (0.2, 1.0, 3.0, 6.0)]


_KINDS = {
    "rootdegree": _Kind(
        state_of=lambda a, params: in_degree(a),
        to_score=_root_degree_of,
        score_slope=_root_degree_slope,
        egalitarian=lambda n, m: np.full(n, m / n),
        critical=lambda n, m, alpha_p, alpha_s: 2.0 * np.sqrt(n / m),
        root_residual=f_degree,
        drift=lambda s, a, params: f_degree(s, params),
        jacobian=_rootdegree_jacobian,
        quotient=_rootdegree_quotient,
        quotient_drift=_rootdegree_quotient_drift,
        seeds=_mass_seeds,
        nonneg=True,
    ),
    "pagerank": _Kind(
        state_of=lambda a, params: pagerank_score(a, params.alpha_p),
        to_score=lambda s: s,
        score_slope=lambda s: 1.0,
        egalitarian=lambda n, m: np.ones(n),
        critical=lambda n, m, alpha_p, alpha_s: 1.0 / alpha_p,
        root_residual=_pagerank_root_residual,
        drift=_pagerank_drift,
        jacobian=_pagerank_jacobian,
        quotient=_pagerank_quotient,
        quotient_drift=_pagerank_quotient_drift,
        seeds=lambda n, k, m: _mass_seeds(n, k, n),
        nonneg=False,
    ),
    "springrank": _Kind(
        state_of=lambda a, params: springrank_score(a, params.alpha_s),
        to_score=lambda s: s,
        score_slope=lambda s: 1.0,
        egalitarian=lambda n, m: np.zeros(n),
        critical=lambda n, m, alpha_p, alpha_s: 2.0 + alpha_s * n / m,
        root_residual=_springrank_forcing,
        drift=_springrank_drift,
        jacobian=_springrank_jacobian,
        quotient=_springrank_quotient,
        quotient_drift=_springrank_quotient_drift,
        seeds=_centered_seeds,
        nonneg=False,
    ),
}


# ---------------------------------------------------------------------------
# two-group equilibria
# ---------------------------------------------------------------------------

# Newton on the reduced system accepts a root once the sup norm of its
# residual is at most NEWTON_TOL, and gives up after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class Equilibrium:
    """A two-group root: k nodes at a and n - k at b, and the drift
    Jacobian's spectrum there, stored as the 2x2 quotient block's two
    eigenvalues and the two within-group eigenvalues, of multiplicities
    k - 1 and n - k - 1, so that a root holds no array of length n."""

    residual: float
    k_elite: int  # 0 marks the egalitarian (degenerate a = b) root
    a: float
    b: float
    n: int
    k: int  # the partition's size, k_elite or 1 for the egalitarian root
    quotient_eigs: np.ndarray  # the 2 eigenvalues of the quotient block
    within_eigs: np.ndarray  # lam_0 and lam_1, the within-group eigenvalues

    @property
    def s_star(self) -> np.ndarray:
        return _two_group_vector(self.a, self.b, self.k, self.n)

    @property
    def jacobian_eigs(self) -> np.ndarray:
        """The n eigenvalues: the quotient's, then lam_0 and lam_1 repeated."""
        repeats = (self.k - 1, self.n - self.k - 1)
        return np.concatenate([self.quotient_eigs, np.repeat(self.within_eigs, repeats)])

    @property
    def max_eig_real(self) -> float:
        # a within-group eigenvalue of multiplicity 0 (k = 1 or k = n - 1) is no eigenvalue
        present = self.within_eigs[[self.k > 1, self.n - self.k > 1]]
        return float(np.concatenate([self.quotient_eigs, present]).real.max())

    @property
    def stable(self) -> bool:
        return self.max_eig_real < 0.0


def _full_residual(s: np.ndarray, params: ModelParams) -> np.ndarray:
    """The n-dimensional root system F(s) of params' kind; zero exactly at fixed points."""
    return _KINDS[params.score_kind].root_residual(s, params)


def _two_group_vector(a: float, b: float, k: int, n: int) -> np.ndarray:
    s = np.full(n, b, dtype=float)
    s[:k] = a
    return s


@contextmanager
def _naming_root(params: ModelParams, k: int):
    """Re-raise a DomainError naming params' kind and beta1 and the elite size k."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{params.score_kind} two-group root at k={k}, "
                          f"beta1={params.beta[0]!r}: {exc}") from None


def _newton_two_group(params: ModelParams, n: int, k: int, x0: np.ndarray) -> np.ndarray | None:
    """Damped Newton on the 2-variable reduced system; None on failure.

    Each iterate evaluates [F_0, F_k] and its analytic 2x2 Jacobian on the
    two-group quotient (`_Kind.quotient`), at a cost that does not grow
    with n, and takes the Newton step by Cramer's rule.  A non-finite
    utility raises DomainError naming the kind, k and beta1.
    """
    kind = _KINDS[params.score_kind]
    a, b = float(x0[0]), float(x0[1])
    if kind.nonneg:
        a, b = max(a, 1e-12), max(b, 1e-12)
    with _naming_root(params, k):
        (f0, f1), jac = kind.quotient(a, b, k, n, params)
        if not (isfinite(f0) and isfinite(f1)):
            return None
        norm = max(abs(f0), abs(f1))
        # iterate past NEWTON_TOL while steps still improve: the springrank
        # drift at the root applies L_alpha^-1 to F, which a small spectral
        # gap amplifies, so polish to the numerical floor when it is cheap
        for _ in range(NEWTON_MAX_ITER):
            if norm <= 1e-15 * (1.0 + max(abs(a), abs(b))):
                break
            (j00, j01), (j10, j11) = jac
            det = j00 * j11 - j01 * j10
            if det == 0.0 or not isfinite(det):
                break
            da = (j11 * f0 - j01 * f1) / det
            db = (j00 * f1 - j10 * f0) / det
            # backtrack until the residual actually drops and the state stays
            # in the domain: positive for in-degrees, where sqrt' is finite
            step = 1.0
            for _ in range(40):
                an, bn = a - step * da, b - step * db
                if kind.nonneg and (an <= 0.0 or bn <= 0.0):
                    step *= 0.5
                    continue
                (g0, g1), gjac = kind.quotient(an, bn, k, n, params)
                if abs(g0) < norm and abs(g1) < norm:
                    a, b, f0, f1, jac = an, bn, g0, g1, gjac
                    norm = max(abs(f0), abs(f1))
                    break
                step *= 0.5
            else:
                break
    return np.array([a, b]) if norm <= NEWTON_TOL else None


def _canonical(x, k: int, n: int) -> tuple[float, float, int]:
    """(a, b, k_elite) with the k_elite elite nodes at the larger value a.

    A tie a = b is the egalitarian root, k_elite 0.
    """
    a, b = float(x[0]), float(x[1])
    if abs(a - b) < 1e-9 * (1.0 + abs(a) + abs(b)):
        return 0.5 * (a + b), 0.5 * (a + b), 0
    return (a, b, k) if a > b else (b, a, n - k)


def _classify(x, k: int, n: int, params: ModelParams) -> Equilibrium:
    """Canonicalize a reduced root and read its residual and spectrum off the quotient.

    The residual is the sup norm of the kind's root system F there, which is
    the sup norm of `_full_residual` at s_star.  The drift Jacobian's
    spectrum is the 2x2 quotient block's two eigenvalues, lam_0 with
    multiplicity k - 1 and lam_1 with multiplicity n - k - 1, for the
    partition the root is canonicalized to; a tie is a constant state, which
    k's own partition describes as well as any.
    """
    a, b, k_elite = _canonical(x, k, n)
    k = k_elite or k
    kind = _KINDS[params.score_kind]
    (f0, f1), jac = kind.quotient(a, b, k, n, params)
    quotient, lam = kind.quotient_drift(a, b, k, n, params, jac)
    if not (np.isfinite(quotient).all() and isfinite(lam[0]) and isfinite(lam[1])):
        raise DomainError("the drift Jacobian is not finite")
    return Equilibrium(
        residual=float(max(abs(f0), abs(f1))),
        k_elite=k_elite,
        a=a,
        b=b,
        n=n,
        k=k,
        quotient_eigs=np.linalg.eigvals(quotient),
        within_eigs=np.array(lam, dtype=float),
    )


def two_group_equilibria(params: ModelParams, n: int,
                         beta1_grid) -> list[tuple[float, Equilibrium]]:
    """Every two-group fixed point of params' kind at each beta1 of a grid,
    once, classified.

    Returns (beta1, Equilibrium) pairs sorted by (beta1, k_elite, a, b).
    The egalitarian root (k_elite 0) is classified at its closed form.  k
    nodes at a and n - k at b is the state n - k nodes at b and k at a, so
    only elite sizes k = 1..n//2 are solved.  Each k runs across the grid
    from the kind's seeds for k and the mirrored seeds for n - k, built once
    per k since they depend on n, k and m only, and from the roots found at
    k at the previous grid point.  No seed sits at the egalitarian root.
    Each root is canonicalized to a > b, with k_elite k or n - k,
    deduplicated, and classified by the drift-Jacobian spectrum read off
    the two-group quotient; ties are the egalitarian root and are dropped.
    A root-finder failure at one grid point loses that root there rather
    than aborting the scan.
    """
    check_n(n)
    kind = _KINDS[params.score_kind]
    points = [params.with_(beta=(b1,) + params.beta[1:]) for b1 in map(float, beta1_grid)]
    egal = float(kind.egalitarian(n, params.m)[0])
    out = []
    for p in points:
        with _naming_root(p, 0):
            out.append((p.beta[0], _classify((egal, egal), 1, n, p)))
    for k in range(1, n // 2 + 1):
        starts = kind.seeds(n, k, params.m) + [x[::-1] for x in kind.seeds(n, n - k, params.m)]
        carried = []  # k's roots at the previous grid point
        for p in points:
            roots: list[tuple[float, float, int]] = []
            for x0 in starts + carried:
                x = _newton_two_group(p, n, k, x0)
                if x is None:
                    continue
                a, b, k_elite = _canonical(x, k, n)
                tol = 1e-6 * (1.0 + abs(a) + abs(b))
                if k_elite and not any(k_elite == kr and abs(a - ar) + abs(b - br) < tol
                                       for ar, br, kr in roots):
                    roots.append((a, b, k_elite))
            carried = [np.array((a, b) if kr == k else (b, a)) for a, b, kr in roots]
            with _naming_root(p, k):
                out += [(p.beta[0], _classify((a, b), kr, n, p)) for a, b, kr in roots]
    out.sort(key=lambda row: (row[0], row[1].k_elite, row[1].a, row[1].b))
    return out
