"""The three score functions sigma: A -> s, and `score`, which picks one by kind.

Degree conventions used throughout the package: the in-degree of node i is
the column sum ``sum_j a[j, i]`` (weight received), the out-degree the row
sum ``sum_j a[i, j]`` (weight given).

Every score function takes one (n, n) matrix or an (..., n, n) stack of
them and returns scores of shape (..., n).  A stack is scored in one
batched pass (one power iteration for PageRank, one batched solve for
SpringRank), and each slice gets the scores it would get alone, up to
rounding.  A single matrix keeps a PageRank loop of its own: a simulation
scores one small matrix per step, and there the batched loop's bookkeeping
costs 25-45% more per call (n=8), enough to slow a whole small-n sweep by
about a tenth.  Single-matrix scores do not move by a bit.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericError


def in_degree(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).sum(axis=-2)


def out_degree(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).sum(axis=-1)


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("adjacency must be square")
    return a


def root_degree_score(a: np.ndarray) -> np.ndarray:
    """s_i = sqrt(in-degree of i)."""
    d = in_degree(a)
    if np.any(d < 0):
        raise DomainError("adjacency must be nonnegative")
    return np.sqrt(d)


def _row_stochastic(a: np.ndarray) -> np.ndarray:
    """Row-normalize a, patching zero-out-degree rows with the uniform row.

    The dangling patch keeps the chain stochastic; it matters early in
    simulations and in sparse data periods.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    dout = a.sum(axis=-1)
    p = np.empty_like(a)
    dangling = dout <= 0.0
    if np.any(dangling):
        p[dangling] = 1.0 / n
    ok = ~dangling
    p[ok] = a[ok] / dout[ok][:, None]
    return p


def pagerank_score(
    a: np.ndarray,
    alpha_p: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Stationary teleported random-walk score, normalized so e^T s = n.

    Solves [alpha_p A^T (D_out)^-1 + (1-alpha_p) n^-1 e e^T] s = s by power
    iteration on the probability-normalized vector pi = s/n, starting from
    the uniform vector.  The operator is a strict contraction with factor
    alpha_p, so the iteration is globally convergent.
    """
    a = _square(a)
    if not 0.0 < alpha_p < 1.0:
        raise DomainError("alpha_p must lie in (0, 1)")
    n = a.shape[-1]
    teleport = (1.0 - alpha_p) / n
    if a.ndim > 2:
        pi = _stacked_power_iteration(_row_stochastic(a), alpha_p, teleport, tol, max_iter)
        return n * pi
    pt = _row_stochastic(a).T
    pi = np.full(n, 1.0 / n)
    for it in range(max_iter):
        nxt = alpha_p * (pt @ pi) + teleport
        nxt /= nxt.sum()
        diff = np.abs(nxt - pi).sum()
        pi = nxt
        if diff <= tol:
            return n * pi
    raise _stalled(max_iter, diff)


def _stacked_power_iteration(p, alpha_p, teleport, tol, max_iter):
    """The power iteration above on an (..., n, n) stack of row-stochastic
    matrices, all slices at once; returns pi of shape (..., n).

    A slice whose L1 change reaches tol is set aside and the rest go on, so
    each slice stops at the iterate where it would stop alone and gets the
    scores it gets alone, bit for bit.
    """
    shape, n = p.shape[:-1], p.shape[-1]
    p = p.reshape(-1, n, n)
    pi = np.full((len(p), n, 1), 1.0 / n)
    out = np.empty_like(pi)
    left = np.arange(len(p))
    for it in range(max_iter):
        nxt = alpha_p * (np.swapaxes(p, -1, -2) @ pi) + teleport
        nxt /= nxt.sum(axis=-2, keepdims=True)
        diff = np.abs(nxt - pi).sum(axis=-2)[:, 0]
        pi = nxt
        done = diff <= tol
        if done.any():
            out[left[done]] = pi[done]
            if done.all():
                return out.reshape(shape)
            left, p, pi = left[~done], p[~done], pi[~done]
    raise _stalled(max_iter, diff.max())


def _stalled(max_iter, diff) -> NumericError:
    return NumericError(
        "pagerank power iteration did not converge",
        diagnostics={"iterations": max_iter, "last_l1_diff": float(diff)},
    )


def springrank_score(a: np.ndarray, alpha_s: float = 1e-8) -> np.ndarray:
    """Spring-embedding score: the unique solution of a regularized system.

    Solves [D_in + D_out - (A + A^T) + alpha_s I] s = (d_in - d_out) by a
    symmetric positive definite factorization (a stack: by one batched
    solve).  The exact solution has zero mean (e is an eigenvector of the
    regularized Laplacian with eigenvalue alpha_s and the right side is
    orthogonal to e), so the computed mean is pure rounding noise amplified
    by 1/alpha_s and is subtracted.
    """
    a = _square(a)
    if alpha_s <= 0.0:
        raise DomainError("alpha_s must be positive")
    din = in_degree(a)
    dout = out_degree(a)
    sym = a + np.swapaxes(a, -1, -2)
    diag = (..., *np.diag_indices(a.shape[-1]))
    lap = np.zeros_like(sym)
    lap[diag] = din + dout
    lap -= sym
    lap[diag] += alpha_s
    rhs = din - dout
    try:
        if a.ndim == 2:
            s = scipy.linalg.solve(lap, rhs, assume_a="pos")
        else:
            s = np.linalg.solve(lap, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - alpha_s > 0 prevents this
        raise NumericError(f"springrank solve failed: {exc}") from exc
    return s - s.mean(axis=-1, keepdims=True)


def score(a: np.ndarray, params) -> np.ndarray:
    """Score `a` with the function params.score_kind names.

    `a` is one (n, n) matrix or an (..., n, n) stack; see the module notes.
    """
    kind = params.score_kind
    if kind == "rootdegree":
        return root_degree_score(a)
    if kind == "pagerank":
        return pagerank_score(a, params.alpha_p)
    if kind == "springrank":
        return springrank_score(a, params.alpha_s)
    raise DomainError(f"unknown score kind {kind!r}")
