"""Maximum-likelihood fitting of (lambda, beta) to interaction sequences.

The likelihood factorizes per period: roll the state forward from A(0)
with the observed counts and the candidate lambda, score each state, and
credit each observed endorsement i -> j with log G_ij.  The counts are
tabulated once per call (`_counts`); each lambda only rolls the states
A(t), which never depend on beta, scores them in one stacked `score` call
and gathers the features.  For fixed lambda the problem in beta is a
two-parameter concave conditional logit (McFadden 1974).  It is solved by
damped Newton ascent on the exact Hessian -sum_i k_i Cov_{p_i}(phi);
lambda is maximized by a derivative-free 1-D search over restarts.  The
multinomial coefficient is dropped throughout: it shifts the likelihood by
a data constant and no comparison here needs it.

scipy.optimize is imported by `_fit`, the lambda search, and nowhere else,
so importing this module does not import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import ALPHA_P, ALPHA_S, SCORE_KINDS, ModelParams, _shown, check_count
from .data import InteractionSequence
from .errors import DomainError, NumericError
from .parallel import parallel_map
from .scores import score
from .stability import critical_beta1

LAM_LO = 1e-6
LAM_HI = 1.0 - 1e-6
LAM_XATOL = 1e-4  # absolute tolerance of the 1-D lambda search
BETA_MAX_ITER = 50  # Newton iterations per beta solve
BETA_MAX_HALVINGS = 40  # Armijo backtracking halvings per Newton step


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
        raise DomainError(f"half-life needs lambda in (0, 1), got {_shown(lam)}")
    return float(-np.log(2.0) / np.log(lam))


class _Counts(NamedTuple):
    """The lambda-independent data of the likelihood.

    Only the R rows (t, i) in which i endorsed someone enter the
    likelihood, its gradient and its Hessian (each is weighted by k_ti),
    so only those rows are kept, each as a length-n choice over targets j.
    """

    a0: np.ndarray  # (n, n) A(0)
    stack: np.ndarray  # (T, n, n) counts of the periods entering the likelihood
    t: np.ndarray  # (R,) the period of each row
    i: np.ndarray  # (R,) the endorser of each row: its own column
    observed: np.ndarray  # flat indices of the positive counts in an (R, n) array
    k_obs: np.ndarray  # the positive counts, in that order
    k_row: np.ndarray  # (R,) endorsements made in each row


def _counts(seq) -> _Counts:
    a0, used = seq.used_periods()
    stack = np.array(used)
    t, i = np.nonzero(stack.sum(axis=2))
    k_rows = stack[t, i]
    observed = np.flatnonzero(k_rows)
    return _Counts(a0, stack, t, i, observed, k_rows.ravel()[observed], k_rows.sum(axis=1))


def _fitting_inputs(seq, score_kinds, restarts, alpha_p, alpha_s):
    """Apply every argument and data rule of fitting once, in order:
    restarts, each kind's ModelParams (lam is set per evaluation), then
    lambda's identification.  Returns the read-only count table and the
    kinds' params."""
    check_count("restarts", restarts, 1)
    params = [ModelParams(lam=LAM_LO, score_kind=kind, alpha_p=alpha_p, alpha_s=alpha_s)
              for kind in score_kinds]
    counts = _counts(seq)
    # the first used period is scored at A(0) whatever lambda is, so lambda
    # enters the likelihood only through endorsements in later used periods
    if not np.any(counts.t > 0):
        raise DomainError(
            "lambda is not identified: no used period after the first has an endorsement"
        )
    for array in counts:
        array.setflags(write=False)
    return counts, params


def _rolled_scores(counts: _Counts, params) -> np.ndarray:
    """Score vectors s(t) of the states met by each used period, stacked (T, n).

    The states A(t) are rolled forward at params.lam first and then scored
    as one stack.
    """
    lam, a = params.lam, counts.a0
    states = []
    for delta in counts.stack:
        states.append(a)
        a = lam * a + (1.0 - lam) * delta
    return score(np.array(states), params)


class _LogitTerms(NamedTuple):
    """The beta-independent pieces of the likelihood at one lambda."""

    phi1: np.ndarray  # (R, n) prestige feature s_j
    phi2: np.ndarray  # (R, n) proximity feature (s_i - s_j)^2
    k_phi: np.ndarray  # (2,) sum of k * phi over all cells
    counts: _Counts


def _terms_at(counts: _Counts, params) -> _LogitTerms:
    s = _rolled_scores(counts, params)
    phi1 = s[counts.t]
    diff = s[counts.t, counts.i][:, None] - phi1
    phi2 = diff * diff
    k_obs, observed = counts.k_obs, counts.observed
    k_phi = np.array([k_obs @ phi1.ravel()[observed], k_obs @ phi2.ravel()[observed]])
    return _LogitTerms(phi1, phi2, k_phi, counts)


def _loglik_and_grad(terms: _LogitTerms, beta):
    """Constant-free log-likelihood, its exact beta-gradient, and a function
    that forms the beta-Hessian.

    With p the choice probabilities of a row, the gradient is
    sum k phi - sum_rows k_row E_p[phi] and the Hessian is
    -sum_rows k_row Cov_p(phi), formed from the centered features.
    Everything stays in log space.  The Hessian costs about a third of an
    evaluation and most evaluations (rejected Armijo trials, polish steps,
    the lambda differences of the SEs) never read it, so it is formed only
    when the returned function is called.
    """
    phi1, phi2, k_phi, c = terms
    n = phi1.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        u = beta[0] * phi1 + beta[1] * phi2
        u -= u.max(axis=1, keepdims=True)
        p = np.exp(u)
        z = p.sum(axis=1)
        ll = float(c.k_obs @ u.ravel()[c.observed] - c.k_row @ np.log(z)
                   - c.k_obs.sum() * np.log(n))
        p /= z[:, None]
        mean1 = np.einsum("rj,rj->r", p, phi1)
        mean2 = np.einsum("rj,rj->r", p, phi2)
        g = k_phi - np.array([c.k_row @ mean1, c.k_row @ mean2])

    def hessian():
        with np.errstate(over="ignore", invalid="ignore"):
            c1 = phi1 - mean1[:, None]
            c2 = phi2 - mean2[:, None]
            w = p * c.k_row[:, None]
            wc1 = w * c1
            # einsum, not a BLAS dot: OpenBLAS threads dots this long, and
            # the threads cost more CPU than they save here
            h12 = -float(np.einsum("rj,rj->", wc1, c2))
            return np.array([[-float(np.einsum("rj,rj->", wc1, c1)), h12],
                             [h12, -float(np.einsum("rj,rj,rj->", w, c2, c2))]])

    return ll, g, hessian


def _evaluate(seq, lam, beta, score_kind, alpha_p, alpha_s):
    """(ll, gradient, Hessian function) at one (lambda, beta); ModelParams
    checks both."""
    params = ModelParams(lam=lam, beta=beta, score_kind=score_kind, alpha_p=alpha_p,
                         alpha_s=alpha_s)
    return _loglik_and_grad(_terms_at(_counts(seq), params), params.beta)


def log_likelihood(
    seq: InteractionSequence,
    lam: float,
    beta,
    score_kind: str,
    alpha_p: float = ALPHA_P,
    alpha_s: float = ALPHA_S,
) -> float:
    """Sum over periods and pairs of k_ij log G_ij (constant dropped)."""
    return _evaluate(seq, lam, beta, score_kind, alpha_p, alpha_s)[0]


def grad_beta(
    seq: InteractionSequence,
    lam: float,
    beta,
    score_kind: str,
    alpha_p: float = ALPHA_P,
    alpha_s: float = ALPHA_S,
) -> np.ndarray:
    """Exact gradient of the log-likelihood in beta (scores held fixed)."""
    return _evaluate(seq, lam, beta, score_kind, alpha_p, alpha_s)[1]


def _newton_step(g, h):
    """Ascent step solving (-h + mu I) step = g; returns (step, mu).

    -h is the observed information in beta.  Where it is not numerically
    positive definite (a flat or separable direction), or is negligible
    against the gradient (a saturated start, where the Newton step would be
    far too long for any halving to bring back), mu > 0 shifts it until it
    is neither (Levenberg damping), so the step still ascends; mu = 0 gives
    the plain Newton step.
    """
    if not np.any(g):
        return np.zeros(2), 0.0
    info = -h
    lo, hi = np.linalg.eigvalsh(info)
    g_max = float(np.abs(g).max())
    mu = 0.0
    if not lo > 1e-10 * max(hi, g_max):
        mu = max(-lo, 0.0) + max(1e-8 * hi, g_max)
    return np.linalg.solve(info + mu * np.eye(2), g), mu


class _BetaFit(NamedTuple):
    """What one beta solve ended on."""

    ll: float
    beta: np.ndarray
    grad_norm: float  # infinity norm of the beta-gradient
    ok: bool  # converged
    hess: Callable[[], np.ndarray] | None  # forms the exact (2, 2) beta-Hessian at beta


def _maximize_beta(terms, beta0) -> _BetaFit:
    """Damped Newton ascent in beta.

    Each iteration takes a Newton step with Armijo backtracking.  Once the
    predicted gain g . step falls to the rounding level of ll, one last full
    Newton step (undamped only) polishes beta and the loop stops; at most
    BETA_MAX_ITER steps are taken either way.
    """
    beta = np.array(beta0, dtype=float)
    ll, g, h = _loglik_and_grad(terms, beta)
    if not np.isfinite(ll):
        return _BetaFit(ll, beta, np.inf, False, h)
    for _ in range(BETA_MAX_ITER):
        step, mu = _newton_step(g, h())
        slope = float(g @ step)
        rounding = 1e-12 * (1.0 + abs(ll))
        if slope <= rounding:
            if mu == 0.0 and np.any(step):
                out = _loglik_and_grad(terms, beta + step)
                if out[0] >= ll - rounding:
                    beta = beta + step
                    ll, g, h = out
            break
        t = 1.0
        for _ in range(BETA_MAX_HALVINGS):
            out = _loglik_and_grad(terms, beta + t * step)
            if out[0] >= ll + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        beta = beta + t * step
        ll, g, h = out
    gn = float(np.abs(g).max())
    return _BetaFit(ll, beta, gn, gn <= 1e-6 * (1.0 + abs(ll)), h)


def fit(
    seq: InteractionSequence,
    score_kind: str,
    restarts: int = 5,
    alpha_p: float = ALPHA_P,
    alpha_s: float = ALPHA_S,
) -> FitResult:
    """Joint MLE of (lambda, beta1, beta2) for one score kind.

    Inner loop: at each lambda the rolled states are scored as one stack,
    and the concave logit problem in beta is solved by damped Newton ascent
    on its exact Hessian.  Outer loop: scan `restarts` lambda starts in
    turn, then refine the best bracket with a bounded 1-D search to
    LAM_XATOL in lambda; a lambda_hat within LAM_XATOL of LAM_LO or LAM_HI
    is reported in `warnings`.  Standard errors invert the observed
    information at the optimum (exact in beta, from the search's solve at
    lambda_hat; central differences at lambda_hat +- step in lambda); when
    it is not positive definite they are unavailable, with a warning.
    A sequence with no endorsement in a used period after the first raises
    DomainError, since lambda would not enter its likelihood.
    """
    counts, (params,) = _fitting_inputs(seq, [score_kind], restarts, alpha_p, alpha_s)
    return _fit(counts, params, restarts)


def _fit(counts: _Counts, params, restarts: int) -> FitResult:
    """`fit`'s search and SEs on a checked table, for params' kind and settings."""
    import scipy.optimize

    evals: list[tuple[float, _BetaFit]] = []  # every beta solve, in evaluation order
    hat = None  # best(evals) so far, the one entry that keeps its Hessian function

    def solve(lam, beta0):
        # a Hessian function holds its solve's score state, so the others
        # drop theirs and the search frees each state as it goes on
        nonlocal hat
        r = _maximize_beta(_terms_at(counts, params.with_(lam=lam)), beta0)
        if r.ok and (hat is None or r.ll > hat[1].ll):
            hat = (lam, r)
        evals.append((lam, r._replace(hess=None)))
        return r

    def best(entries):  # the converged entry of highest likelihood, first among ties
        return max((e for e in entries if e[1].ok), key=lambda e: e[1].ll, default=None)

    starts = [0.5] if restarts == 1 else np.linspace(0.1, 0.9, restarts).tolist()
    for lam in starts:
        solve(lam, (0.0, 0.0))
    if (start := hat) is None:
        raise NumericError(
            "no restart converged",
            diagnostics={f"lambda={lam:g}": f"grad_norm={r.grad_norm:.3g}" for lam, r in evals},
        )

    # refine the bracket around the best start; each evaluation warm-starts
    # from the best converged refinement so far, else from the best start
    spacing = 0.8 / (restarts - 1) if restarts > 1 else 1.0

    def objective(lam):
        r = solve(float(lam), (best(evals[len(starts):]) or start)[1].beta)
        return -r.ll if r.ok else np.inf

    # +inf keeps the search off a lambda whose beta solve did not converge;
    # a parabolic step through it computes inf - inf and falls back to a
    # golden-section step, so numpy's invalid-value warning says nothing
    with np.errstate(invalid="ignore"):
        scipy.optimize.minimize_scalar(
            objective, bounds=(max(LAM_LO, start[0] - spacing), min(LAM_HI, start[0] + spacing)),
            method="bounded", options={"xatol": LAM_XATOL, "maxiter": 200},
        )
    lam_hat, at_hat = hat

    warnings: list[str] = []
    for name, bound in (("LAM_LO", LAM_LO), ("LAM_HI", LAM_HI)):
        if abs(lam_hat - bound) <= LAM_XATOL:
            warnings.append(
                f"lambda_hat = {lam_hat:.6g} is within {LAM_XATOL:g} of the search "
                f"bound {name} = {bound:.6g}; the likelihood may peak beyond it"
            )
    se = _standard_errors(counts, params.with_(lam=lam_hat), at_hat, warnings)
    return FitResult(
        score_kind=params.score_kind,
        lambda_hat=lam_hat,
        beta_hat=tuple(float(b) for b in at_hat.beta),
        se=se,
        loglik=at_hat.ll,
        halflife=halflife(lam_hat),
        grad_norm=at_hat.grad_norm,
        restarts=restarts,
        alpha_p=params.alpha_p,
        alpha_s=params.alpha_s,
        warnings=tuple(warnings),
    )


def _standard_errors(counts: _Counts, params, at_hat: _BetaFit, warnings: list):
    """sqrt diag of the inverted observed information.

    The beta-beta block and the log-likelihood at the optimum are those
    lambda_hat's beta solve `at_hat` ended on; the lambda row is taken by
    central differences in lambda at beta_hat, of the log-likelihood
    (lambda-lambda) and of the exact beta-gradient (lambda-beta).
    """
    lam_hat = params.lam
    step = min(1e-4 * (1.0 + lam_hat), 0.5 * (LAM_HI - lam_hat) + 1e-12, 0.5 * lam_hat)
    (ll_up, g_up, _), (ll_dn, g_dn, _) = (
        _loglik_and_grad(_terms_at(counts, params.with_(lam=lam)), at_hat.beta)
        for lam in (lam_hat + step, lam_hat - step)
    )
    hess = np.empty((3, 3))
    hess[0, 0] = (ll_up - 2.0 * at_hat.ll + ll_dn) / step**2
    hess[0, 1:] = hess[1:, 0] = (g_up - g_dn) / (2.0 * step)
    hess[1:, 1:] = at_hat.hess()
    fisher = -hess
    eigs = np.linalg.eigvalsh(fisher)
    if eigs.min() <= 0.0:
        warnings.append(
            "observed information is not positive definite; standard errors unavailable"
        )
        return None
    cov = np.linalg.inv(fisher)
    return tuple(float(x) for x in np.sqrt(np.diag(cov)))


def compare_scores(
    seq: InteractionSequence,
    score_kinds=SCORE_KINDS,
    restarts: int = 5,
    alpha_p: float = ALPHA_P,
    alpha_s: float = ALPHA_S,
) -> ComparisonTable:
    """Fit each score kind on one checked count table, one kind per pool
    worker, and rank by likelihood.  A DomainError propagates; a NumericError
    for one kind is recorded in `errors`.  The order of the input kinds never
    affects the table.
    """
    kinds = list(score_kinds)
    if len(kinds) < 2:
        raise DomainError("need at least 2 score kinds to compare")
    if len(set(kinds)) != len(kinds):
        raise DomainError("duplicate score kinds")
    counts, params = _fitting_inputs(seq, kinds, restarts, alpha_p, alpha_s)

    def one(kind_params):
        try:
            return kind_params.score_kind, _fit(counts, kind_params, restarts), None
        except NumericError as exc:
            return kind_params.score_kind, None, str(exc)

    outcomes = parallel_map(one, params)
    results = sorted((r for _, r, _ in outcomes if r is not None),
                     key=lambda r: (-r.loglik, r.score_kind))
    errors = {k: msg for k, _, msg in outcomes if msg is not None}
    if not results:
        raise NumericError("every score kind failed to fit", diagnostics=errors)
    return ComparisonTable(results=tuple(results), errors=errors, best=results[0].score_kind)


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
