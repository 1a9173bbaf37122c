"""Feature maps, utilities, logit choice probabilities, and sampling.

An endorser i weighs every candidate j through a utility

    u_ij = sum_l beta_l * phi_l(s)_ij

and endorses j with the multinomial-logit probability
p_ij = exp(u_ij) / sum_j' exp(u_ij').  The canonical features are the
endorsee's score (prestige) and the squared score gap (proximity):

    phi1_ij = s_j          phi2_ij = (s_i - s_j)^2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FeatureMap:
    """A named map s -> phi(s), an n x n matrix indexed [endorser, endorsee]."""

    name: str
    eval: Callable[[np.ndarray], np.ndarray]


def _prestige_eval(s: np.ndarray) -> np.ndarray:
    n = s.shape[0]
    return np.tile(s, (n, 1))


def _proximity_eval(s: np.ndarray) -> np.ndarray:
    diff = s[:, None] - s[None, :]
    return diff**2


PRESTIGE = FeatureMap("prestige", _prestige_eval)
PROXIMITY = FeatureMap("proximity", _proximity_eval)
CANONICAL_FEATURES = (PRESTIGE, PROXIMITY)


def utility(s: np.ndarray, beta, features=CANONICAL_FEATURES) -> np.ndarray:
    """u_ij = sum_l beta_l phi_l(s)_ij."""
    s = np.asarray(s, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] != len(features):
        raise DomainError(
            f"got {beta.shape[0]} coefficients for {len(features)} features"
        )
    n = s.shape[0]
    u = np.zeros((n, n))
    for b, feat in zip(beta, features):
        if b != 0.0:
            u += b * feat.eval(s)
    return u


def choice_probabilities(u: np.ndarray, exclude_self: bool = False) -> np.ndarray:
    """Row-wise softmax of u, stabilized by subtracting row maxima.

    With ``exclude_self`` the diagonal is masked out and rows renormalize
    over j != i.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("utilities must be finite")
    if exclude_self:
        u = u.copy()
        np.fill_diagonal(u, -np.inf)
    shifted = u - u.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def log_choice_probabilities(u: np.ndarray, exclude_self: bool = False) -> np.ndarray:
    """log p_ij kept in log space end to end (no underflow on the way out)."""
    u = np.asarray(u, dtype=float)
    if exclude_self:
        u = u.copy()
        np.fill_diagonal(u, -np.inf)
    shifted = u - u.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def sample_delta(p: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an update matrix: m endorsements, endorser uniform, endorsee ~ p.

    Equivalent to one multinomial draw of m over the n^2 cells of the rate
    matrix G = p/n, so E[delta] = m G and sum(delta) = m.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    g = p.ravel() / n
    g = g / g.sum()  # exact unit sum for the multinomial sampler
    counts = rng.multinomial(m, g)
    return counts.reshape(n, n).astype(float)
