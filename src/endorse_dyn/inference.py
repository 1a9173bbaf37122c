"""Maximum-likelihood fitting of (lambda, beta) to interaction sequences.

The likelihood factorizes per period: roll the state forward from A(0)
with the observed counts and the candidate lambda, score each state, and
credit each observed endorsement i -> j with log G_ij.  Scores depend on
lambda and the data only, never on beta, so for fixed lambda the problem
in beta is a concave logit likelihood solved by quasi-Newton ascent with
the exact gradient; lambda is maximized by a derivative-free 1-D search
over restarts.  The multinomial coefficient is dropped throughout: it
shifts the likelihood by a data constant and no comparison here needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .core import ModelParams
from .data import InteractionSequence
from .errors import DomainError, NumericError
from .parallel import parallel_map
from .scores import score
from .stability import critical_beta1

LAM_LO = 1e-6
LAM_HI = 1.0 - 1e-6


@dataclass(frozen=True)
class FitResult:
    score_kind: str
    lambda_hat: float
    beta_hat: tuple
    se: tuple | None  # (se_lambda, se_beta1, se_beta2), None when unavailable
    loglik: float
    halflife: float
    grad_norm: float
    restarts: int
    alpha_p: float
    alpha_s: float
    warnings: tuple = ()


@dataclass(frozen=True)
class ComparisonTable:
    results: tuple  # FitResult per kind, best likelihood first
    errors: dict
    best: str | None


@dataclass(frozen=True)
class CriticalityReport:
    score_kind: str
    beta1_hat: float
    se_beta1: float
    beta1_critical: float
    classification: str  # above | below | indistinguishable
    significant: bool


def halflife(lam: float) -> float:
    """Periods until a remembered endorsement's weight halves."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"half-life needs lambda in (0, 1), got {lam}")
    return float(-np.log(2.0) / np.log(lam))


def _rolled_scores(seq, lam, score_kind, alpha_p, alpha_s):
    """Score vectors s(t) for each used period, stacked (T, n)."""
    params = ModelParams(
        lam=lam, score_kind=score_kind, alpha_p=alpha_p, alpha_s=alpha_s
    )
    a, used = seq.used_periods()
    s_rows = []
    for delta in used:
        s_rows.append(score(a, params))
        a = lam * a + (1.0 - lam) * delta
    return np.array(s_rows), np.array(used)


def _loglik_and_grad(s_stack, k_stack, beta, exclude_self=False):
    """Constant-free log-likelihood and its exact beta-gradient.

    Everything stays in log space; a -inf can only appear when a positive
    count sits on an excluded cell.
    """
    n = s_stack.shape[1]
    phi1 = np.broadcast_to(s_stack[:, None, :], k_stack.shape)
    diff = s_stack[:, :, None] - s_stack[:, None, :]
    phi2 = diff * diff
    u = beta[0] * phi1 + beta[1] * phi2
    if exclude_self:
        u = u.copy()
        idx = np.arange(n)
        u[:, idx, idx] = -np.inf
    rowmax = u.max(axis=2, keepdims=True)
    ex = np.exp(u - rowmax)
    z = ex.sum(axis=2, keepdims=True)
    logp = u - (np.log(z) + rowmax)
    with np.errstate(invalid="ignore"):
        terms = np.where(k_stack > 0, k_stack * (logp - np.log(n)), 0.0)
    ll = float(terms.sum())
    p = ex / z
    k_i = k_stack.sum(axis=2)
    g1 = float((k_stack * phi1).sum() - (k_i * (p * phi1).sum(axis=2)).sum())
    g2 = float((k_stack * phi2).sum() - (k_i * (p * phi2).sum(axis=2)).sum())
    return ll, np.array([g1, g2])


def _check_beta(beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (2,):
        raise DomainError("beta must have exactly 2 entries (prestige, proximity)")
    if not np.all(np.isfinite(beta)):
        raise DomainError("beta has non-finite entries")
    return beta


def log_likelihood(
    seq: InteractionSequence,
    lam: float,
    beta,
    score_kind: str,
    alpha_p: float = 0.85,
    alpha_s: float = 1e-8,
    exclude_self: bool = False,
) -> float:
    """Sum over periods and pairs of k_ij log G_ij (constant dropped)."""
    beta = _check_beta(beta)
    s_stack, k_stack = _rolled_scores(seq, lam, score_kind, alpha_p, alpha_s)
    ll, _ = _loglik_and_grad(s_stack, k_stack, beta, exclude_self)
    return ll


def grad_beta(
    seq: InteractionSequence,
    lam: float,
    beta,
    score_kind: str,
    alpha_p: float = 0.85,
    alpha_s: float = 1e-8,
    exclude_self: bool = False,
) -> np.ndarray:
    """Exact gradient of the log-likelihood in beta (scores held fixed)."""
    beta = _check_beta(beta)
    s_stack, k_stack = _rolled_scores(seq, lam, score_kind, alpha_p, alpha_s)
    _, g = _loglik_and_grad(s_stack, k_stack, beta, exclude_self)
    return g


def _maximize_beta(s_stack, k_stack, beta0, exclude_self):
    """Quasi-Newton ascent in beta; returns (ll, beta, grad_inf_norm, ok)."""

    def neg(b):
        ll, g = _loglik_and_grad(s_stack, k_stack, b, exclude_self)
        if not np.isfinite(ll):
            return np.inf, np.zeros_like(g)
        return -ll, -g

    res = scipy.optimize.minimize(neg, np.asarray(beta0, dtype=float), jac=True,
                                  method="BFGS", options={"gtol": 1e-9, "maxiter": 500})
    ll, g = _loglik_and_grad(s_stack, k_stack, res.x, exclude_self)
    if not np.isfinite(ll):
        return ll, res.x.copy(), np.inf, False
    tol = 1e-7 * (1.0 + abs(ll))
    if np.abs(g).max() > tol:
        res = scipy.optimize.minimize(neg, res.x, jac=True, method="BFGS",
                                      options={"gtol": tol / 10.0, "maxiter": 500})
        ll, g = _loglik_and_grad(s_stack, k_stack, res.x, exclude_self)
    gn = float(np.abs(g).max())
    ok = gn <= 1e-6 * (1.0 + abs(ll))
    return ll, res.x.copy(), gn, ok


def fit(
    seq: InteractionSequence,
    score_kind: str,
    restarts: int = 5,
    alpha_p: float = 0.85,
    alpha_s: float = 1e-8,
    exclude_self: bool = False,
    threads: int | None = None,
) -> FitResult:
    """Joint MLE of (lambda, beta1, beta2) for one score kind.

    Inner loop: concave logit problem in beta at fixed lambda, solved by
    BFGS with the analytic gradient.  Outer loop: scan `restarts` lambda
    starts in parallel, then refine the best bracket with a bounded 1-D
    search to 1e-4 in lambda.  Standard errors come from the inverse of
    the negated central-difference Hessian of the log-likelihood at the
    optimum; when that matrix is not positive definite the SEs are
    reported as unavailable with a warning.
    """
    if seq.t_len < 2:
        raise DomainError("need at least 2 periods to fit")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if exclude_self and any(np.trace(d) > 0 for d in seq.deltas):
        raise DomainError("sequence has self-endorsements but exclude_self is set")

    cache: dict = {}

    def eval_lam(lam, beta0=(0.0, 0.0)):
        lam = float(min(max(lam, LAM_LO), LAM_HI))
        if lam in cache:
            return cache[lam]
        s_stack, k_stack = _rolled_scores(seq, lam, score_kind, alpha_p, alpha_s)
        out = (lam,) + _maximize_beta(s_stack, k_stack, beta0, exclude_self)
        cache[lam] = out
        return out

    starts = [0.5] if restarts == 1 else list(np.linspace(0.1, 0.9, restarts))
    scanned = parallel_map(eval_lam, starts, threads=threads)
    converged = [r for r in scanned if r[4]]
    if not converged:
        raise NumericError(
            "no restart converged",
            diagnostics={f"lambda={r[0]:g}": f"grad_norm={r[3]:.3g}" for r in scanned},
        )
    best = max(converged, key=lambda r: r[1])

    # bracket around the best start and refine; later evaluations warm-start
    # from the best beta seen so far
    spacing = 0.8 / (restarts - 1) if restarts > 1 else 1.0
    lo = max(LAM_LO, best[0] - spacing)
    hi = min(LAM_HI, best[0] + spacing)
    state = {"beta": best[2]}

    def objective(lam):
        r = eval_lam(lam, beta0=state["beta"])
        if r[4] and (state.get("ll") is None or r[1] > state.get("ll", -np.inf)):
            state["beta"], state["ll"] = r[2], r[1]
        return -r[1] if r[4] else np.inf

    scipy.optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-4, "maxiter": 200},
    )

    lam_hat, ll_hat, beta_hat, gn, _ = max(
        (r for r in cache.values() if r[4]), key=lambda r: r[1]
    )

    warnings: list[str] = []
    se = _standard_errors(
        seq, score_kind, lam_hat, beta_hat, alpha_p, alpha_s, exclude_self, warnings
    )
    return FitResult(
        score_kind=score_kind,
        lambda_hat=lam_hat,
        beta_hat=tuple(float(b) for b in beta_hat),
        se=se,
        loglik=ll_hat,
        halflife=halflife(lam_hat),
        grad_norm=gn,
        restarts=restarts,
        alpha_p=alpha_p,
        alpha_s=alpha_s,
        warnings=tuple(warnings),
    )


def _standard_errors(seq, score_kind, lam_hat, beta_hat, alpha_p, alpha_s,
                     exclude_self, warnings: list):
    """sqrt diag of the inverted Fisher information (central-difference)."""
    roll_cache: dict = {}

    def ll_at(theta):
        lam = float(theta[0])
        if lam not in roll_cache:
            roll_cache[lam] = _rolled_scores(seq, lam, score_kind, alpha_p, alpha_s)
        s_stack, k_stack = roll_cache[lam]
        ll, _ = _loglik_and_grad(s_stack, k_stack, theta[1:], exclude_self)
        return ll

    theta = np.array([lam_hat, *beta_hat])
    steps = 1e-4 * (1.0 + np.abs(theta))
    steps[0] = min(steps[0], 0.5 * (LAM_HI - lam_hat) + 1e-12, 0.5 * lam_hat)
    hess = _fd_hessian(ll_at, theta, steps)
    fisher = -0.5 * (hess + hess.T)
    eigs = np.linalg.eigvalsh(fisher)
    if eigs.min() <= 0.0:
        warnings.append(
            "observed information is not positive definite; standard errors unavailable"
        )
        return None
    cov = np.linalg.inv(fisher)
    return tuple(float(x) for x in np.sqrt(np.diag(cov)))


def _fd_hessian(f, x, steps):
    d = len(x)
    f0 = f(x)
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = steps[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return hess


def compare_scores(
    seq: InteractionSequence,
    score_kinds=("rootdegree", "pagerank", "springrank"),
    restarts: int = 5,
    alpha_p: float = 0.85,
    alpha_s: float = 1e-8,
    exclude_self: bool = False,
    threads: int | None = None,
) -> ComparisonTable:
    """Fit each score kind on the same sequence and rank by likelihood.

    A fit failure for one kind is recorded in `errors` and does not abort
    the others; ordering of the input kinds never affects the table.
    """
    kinds = list(score_kinds)
    if len(kinds) < 2:
        raise DomainError("need at least 2 score kinds to compare")
    if len(set(kinds)) != len(kinds):
        raise DomainError("duplicate score kinds")

    def one(kind):
        try:
            return kind, fit(seq, kind, restarts=restarts, alpha_p=alpha_p,
                             alpha_s=alpha_s, exclude_self=exclude_self), None
        except (DomainError, NumericError) as exc:
            return kind, None, str(exc)

    outcomes = parallel_map(one, kinds, threads=threads)
    results = sorted(
        (r for _, r, _ in outcomes if r is not None),
        key=lambda r: (-r.loglik, r.score_kind),
    )
    errors = {k: msg for k, _, msg in outcomes if msg is not None}
    if not results:
        raise NumericError("every score kind failed to fit", diagnostics=errors)
    return ComparisonTable(
        results=tuple(results), errors=errors, best=results[0].score_kind
    )


def criticality_report(fit_result: FitResult, n: int, m_bar: float) -> CriticalityReport:
    """Compare beta1_hat against the critical value at (n, m_bar).

    `above`/`below` require clearance of two standard errors; anything
    within that band is `indistinguishable`.
    """
    if fit_result.se is None:
        raise DomainError("fit has no standard errors; cannot classify")
    b1 = fit_result.beta_hat[0]
    se1 = fit_result.se[1]
    bc = critical_beta1(
        fit_result.score_kind, n, m_bar, fit_result.alpha_p, fit_result.alpha_s
    )
    if b1 - 2.0 * se1 > bc:
        cls = "above"
    elif b1 + 2.0 * se1 < bc:
        cls = "below"
    else:
        cls = "indistinguishable"
    return CriticalityReport(
        score_kind=fit_result.score_kind,
        beta1_hat=b1,
        se_beta1=se1,
        beta1_critical=bc,
        classification=cls,
        significant=cls != "indistinguishable",
    )
