"""Utilities, logit choice probabilities, and sampling.

An endorser i weighs every candidate j through the utility

    u_ij = beta1 * s_j + beta2 * (s_i - s_j)^2

built from the endorsee's score (prestige) and the squared score gap
(proximity), and endorses j with the multinomial-logit probability
p_ij = exp(u_ij) / sum_j' exp(u_ij').
"""

from __future__ import annotations

import numpy as np

from .core import check_beta, check_m
from .errors import DomainError


def utility(s: np.ndarray, beta) -> np.ndarray:
    """u_ij = beta1 * s_j + beta2 * (s_i - s_j)^2.

    A zero coefficient drops its term, so an infinite score under a zero
    weight contributes nothing rather than 0 * inf = nan.
    """
    s = np.asarray(s, dtype=float)
    b1, b2 = check_beta(beta)
    return _utility(s, b1 or None, b2 or None)


def _utility(s: np.ndarray, b1, b2) -> np.ndarray:
    """The utilities of one score vector (n,) or a stack of them (..., n).

    Each coefficient is None, which drops its term, or a float or one value
    per slice shaped (..., 1, 1).  A zero in one slice adds an exact zero,
    which leaves a finite sum's bits as they are (0 + -0 is +0), so each
    slice with finite terms gets the bits of its own call."""
    u = np.zeros(s.shape + s.shape[-1:])
    if b1 is not None:
        u += b1 * s[..., None, :]
    if b2 is not None:
        u += b2 * (s[..., :, None] - s[..., None, :]) ** 2
    return u


def choice_probabilities(u: np.ndarray) -> np.ndarray:
    """Row-wise softmax of u, stabilized by subtracting row maxima."""
    return _softmax(np.asarray(u, dtype=float))


def _softmax(u: np.ndarray) -> np.ndarray:
    """Row-wise softmax of one (n, n) matrix or a stack of them."""
    if not np.isfinite(u).all():
        raise DomainError("utilities must be finite")
    shifted = u - u.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def sample_delta(p: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an update matrix: m endorsements, endorser uniform, endorsee ~ p.

    Equivalent to one multinomial draw of m over the n^2 cells of the rate
    matrix G = p/n, so E[delta] = m G and sum(delta) = m.
    """
    check_m(m)
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    g = p.ravel() / n
    g = g / g.sum()  # exact unit sum for the multinomial sampler
    counts = rng.multinomial(m, g)
    return counts.reshape(n, n).astype(float)
