"""The three score functions sigma: A -> s, and `score`, which picks one by kind.

Degree conventions used throughout the package: the in-degree of node i is
the column sum ``sum_j a[j, i]`` (weight received), the out-degree the row
sum ``sum_j a[i, j]`` (weight given).

Every score function takes one (n, n) matrix or an (..., n, n) stack of
them and returns scores of shape (..., n); a matrix that is not square,
has no node, or has a non-finite or negative entry raises DomainError.  A stack is scored
in one batched pass, and each slice gets the scores it would get alone: bit
for bit for root degree and PageRank, up to rounding for SpringRank.  Each
kind takes the cheapest exact solve for its size: PageRank a direct solve
up to n = PAGERANK_DIRECT_MAX_N and power iteration above it, SpringRank
one Cholesky factorization by LAPACK for a single matrix.

Each public function checks its inputs and then calls a private core
(`_root_degree`, `_pagerank_direct` or `_pagerank_power`, `_springrank`)
on the validated matrix; `score` calls the core that `_score_core` binds.
The simulation kernel calls the cores directly (see :mod:`endorse_dyn.sim`);
the long-memory analysis builds its SpringRank Laplacian with `_spring_system`
and solves against I - alpha_p P^T with `_pagerank_resolve`.

scipy is bound only where it is called: `_cholesky_solve` binds its LAPACK
routines on its first call (`_lapack`) and LinAlgWarning when it warns, so
importing this module, and any score but a single-matrix or per-slice
SpringRank solve, never imports scipy.  Its LinAlgWarning names the first
stack frame outside this package, the line of the user's code that led to
the solve.

The simulation kernel holds the OpenBLAS behind scipy's LAPACK at one thread
while a SpringRank run steps (`_one_blas_thread`).  Each run's many small
factorizations then neither start BLAS threads on the pool's busy CPUs nor
round by how BLAS splits them, so a simulation has the same bits at any
OpenBLAS thread count.  A lone `springrank_score` keeps BLAS's own threads.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from contextlib import contextmanager
from functools import cache, partial

import numpy as np

from .core import (ALPHA_P, ALPHA_S, check_alpha_p, check_alpha_s, check_matrix,
                   check_score_kind)
from .errors import NumericError

# Largest n whose PageRank is taken by a direct solve; larger matrices go
# by power iteration.  Measured on 2 vCPU (OpenBLAS 0.3.31, one and two
# BLAS threads): on one simulated state the direct solve took 0.2x the
# power iteration's time at n=8, 0.5x at n=64 and 0.75x at n=80; it tied at
# n=96 and lost from n=112 (1.1-1.8x).  On 200 rolled states of sparse fit
# data it took 0.3-1.0x at n=16...96.  On dense stacks, whose power
# iteration converges in few steps, it took 1.5x from n=48 on.
PAGERANK_DIRECT_MAX_N = 80
# The power iteration stops at an L1 step of at most PAGERANK_TOL and raises
# NumericError after PAGERANK_MAX_ITER steps without one.
PAGERANK_TOL = 1e-12
PAGERANK_MAX_ITER = 100_000


def in_degree(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).sum(axis=-2)


def out_degree(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).sum(axis=-1)


def root_degree_score(a: np.ndarray) -> np.ndarray:
    """s_i = sqrt(in-degree of i)."""
    return _root_degree(check_matrix(a, "adjacency"))


def _root_degree(a: np.ndarray) -> np.ndarray:
    return np.sqrt(in_degree(a))


def _row_stochastic(a: np.ndarray) -> np.ndarray:
    """Row-normalize a, patching zero-out-degree rows with the uniform row.

    The dangling patch keeps the chain stochastic; it matters early in
    simulations and in sparse data periods.
    """
    dout = a.sum(axis=-1, keepdims=True)
    dangling = dout <= 0.0
    if not dangling.any():
        return a / dout
    p = a / np.where(dangling, 1.0, dout)
    p[dangling[..., 0]] = 1.0 / a.shape[-1]
    return p


def pagerank_score(a: np.ndarray, alpha_p: float = ALPHA_P) -> np.ndarray:
    """Stationary teleported random-walk score, normalized so e^T s = n.

    The probability vector pi = s/n solves (I - alpha_p P^T) pi =
    (1 - alpha_p)/n e, with P = (D_out)^-1 A and dangling rows made
    uniform.  Up to n = PAGERANK_DIRECT_MAX_N it is taken from one LU solve
    of that system (a stack: one batched solve) and scaled to sum 1.  Above
    it, power iteration runs on pi from the uniform vector until the L1
    change reaches PAGERANK_TOL, for at most PAGERANK_MAX_ITER steps; the
    operator is a strict contraction with factor alpha_p, so the iteration
    is globally convergent.
    """
    a = check_matrix(a, "adjacency")
    check_alpha_p(alpha_p)
    return _pagerank_solver(a.shape[-1])(a, alpha_p)


def _pagerank_solver(n: int):
    """The PageRank core for n nodes, `_pagerank_direct` or
    `_pagerank_power`; PAGERANK_DIRECT_MAX_N is read at call time."""
    return _pagerank_direct if n <= PAGERANK_DIRECT_MAX_N else _pagerank_power


def _pagerank_resolve(p: np.ndarray, alpha_p: float, rhs: np.ndarray) -> np.ndarray:
    """(I - alpha_p P^T)^-1 rhs for row-stochastic P or a stack, by one LU solve."""
    # I - alpha_p P^T is column diagonally dominant, so never singular
    return np.linalg.solve(np.eye(p.shape[-1]) - alpha_p * np.swapaxes(p, -1, -2), rhs)


def _pagerank_direct(a: np.ndarray, alpha_p: float) -> np.ndarray:
    n = a.shape[-1]
    rhs = np.full((*a.shape[:-1], 1), (1.0 - alpha_p) / n)
    x = _pagerank_resolve(_row_stochastic(a), alpha_p, rhs)[..., 0]
    return n * x / x.sum(axis=-1, keepdims=True)


def _pagerank_power(a: np.ndarray, alpha_p: float) -> np.ndarray:
    """PageRank by power iteration on one (n, n) matrix or an (..., n, n)
    stack of them, all slices at once.

    A slice whose L1 change reaches PAGERANK_TOL is set aside and the rest
    go on, so each slice stops at the iterate where it would stop alone and
    gets the scores it gets alone, bit for bit.  Its NumericError carries
    the first unconverged slice's flat index as `index`.  PAGERANK_TOL and
    PAGERANK_MAX_ITER are read at call time.
    """
    shape, n = a.shape[:-1], a.shape[-1]
    p = _row_stochastic(a).reshape(-1, n, n)
    teleport = (1.0 - alpha_p) / n
    pi = np.full((len(p), n, 1), 1.0 / n)
    out = np.empty_like(pi)
    left = np.arange(len(p))
    for _ in range(PAGERANK_MAX_ITER):
        nxt = alpha_p * (np.swapaxes(p, -1, -2) @ pi) + teleport
        nxt /= nxt.sum(axis=-2, keepdims=True)
        diff = np.abs(nxt - pi).sum(axis=-2)[:, 0]
        pi = nxt
        done = diff <= PAGERANK_TOL
        if done.any():
            out[left[done]] = pi[done]
            if done.all():
                return n * out.reshape(shape)
            left, p, pi = left[~done], p[~done], pi[~done]
    exc = NumericError("pagerank power iteration did not converge",
                       {"iterations": PAGERANK_MAX_ITER, "last_l1_diff": float(diff.max())})
    exc.index = int(left[0])
    raise exc


@cache
def _lapack():
    """The LAPACK routines of `_cholesky_solve`, bound on its first call so
    that a process that never solves one SpringRank matrix never imports
    scipy.linalg."""
    from scipy.linalg.lapack import dlange, dpocon, dpotrf, dpotrs

    return dpotrf, dpocon, dlange, dpotrs


@cache
def _blas_threads():
    """OpenBLAS's (get, set) thread-count functions behind scipy's LAPACK,
    or None for another LAPACK (MKL, Accelerate, reference LAPACK).  The
    LAPACK extension's handle finds them among its own dependencies:
    scipy's wheels prefix them with ``scipy_``, older wheels and a system
    OpenBLAS do not."""
    import ctypes

    from scipy.linalg import _flapack

    lib = ctypes.CDLL(_flapack.__file__)
    for prefix in ("scipy_openblas_", "openblas_"):
        try:
            get = getattr(lib, f"{prefix}get_num_threads")
            set_ = getattr(lib, f"{prefix}set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = None


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread while any caller is inside.

    OpenBLAS's thread count is global to the process (its per-thread setter
    acts globally too), so the scope counts its users: the first saves the
    count and sets 1, the last restores the count it saved.  A solve on
    another thread meanwhile also runs on one thread.  Without OpenBLAS the
    scope does nothing.  Measured on 2 vCPU (OpenBLAS 0.3.31, 4 runs each),
    a SpringRank sweep of two n=m=256 cells for 160 steps on two pool
    threads took 1.1-1.4 s wall and 1.9-2.1 s CPU inside it, 1.7-2.7 s and
    3.2-4.1 s on OpenBLAS's default 2 threads.  Entering and leaving it
    costs about 5 us, paid once per kernel run.
    """
    global _blas_users, _blas_saved
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


# the directory of this package's files, as their code objects name it
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _user_stacklevel() -> int:
    """The `stacklevel` at which a warning raised by this function's caller
    names the first frame outside this package (Python 3.10 has no
    ``skip_file_prefixes``)."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _cholesky_solve(lap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lap x = rhs for one symmetric positive definite matrix.

    rhs is one right-hand side (n,) or a block of them (n, r).  The LAPACK
    calls and checks of ``scipy.linalg.solve(lap, rhs, assume_a="pos")``,
    with the same bits, without that wrapper's cost
    (about 45 of its 50 us per call at n=8 on a 2 vCPU Xeon): a
    factorization that fails raises NumericError, and a reciprocal
    condition number below machine epsilon warns with LinAlgWarning.
    """
    dpotrf, dpocon, dlange, dpotrs = _lapack()
    c, info = dpotrf(lap)
    if info > 0:
        raise NumericError(
            f"springrank solve failed: the system is not positive definite "
            f"(leading minor {info})"
        )
    rcond, _ = dpocon(c, dlange("1", lap))
    if not rcond >= np.finfo(float).eps:
        from scipy.linalg import LinAlgWarning

        warnings.warn(
            f"ill-conditioned springrank system (rcond={rcond:.6g}): "
            "scores may not be accurate",
            LinAlgWarning,
            stacklevel=_user_stacklevel(),
        )
    # potrs hands a block back in Fortran order; return it in C order, as
    # scipy does, so that reductions over it round the same way
    return np.ascontiguousarray(dpotrs(c, rhs)[0])


def _spring_system(a: np.ndarray, alpha_s: float):
    """SpringRank's regularized Laplacian D_in + D_out - (A + A^T) + alpha_s I
    of one matrix or a stack, and its right side d_in - d_out."""
    n = a.shape[-1]
    din = in_degree(a)
    dout = out_degree(a)
    sym = a + np.swapaxes(a, -1, -2)
    lap = 0.0 - sym
    # the diagonal as a writable view: every (n+1)-th entry of each slice
    lap.reshape(*a.shape[:-2], n * n)[..., :: n + 1] = (
        din + dout - np.diagonal(sym, axis1=-2, axis2=-1) + alpha_s
    )
    return lap, din - dout


def springrank_score(a: np.ndarray, alpha_s: float = ALPHA_S) -> np.ndarray:
    """Spring-embedding score: the unique solution of a regularized system.

    Solves [D_in + D_out - (A + A^T) + alpha_s I] s = (d_in - d_out) by a
    Cholesky factorization (a stack: by one batched LU solve).  The exact
    solution has zero mean (e is an eigenvector of the regularized
    Laplacian with eigenvalue alpha_s and the right side is orthogonal to
    e), so the computed mean is pure rounding noise amplified by 1/alpha_s
    and is subtracted.
    """
    a = check_matrix(a, "adjacency")
    check_alpha_s(alpha_s)
    return _springrank(a, alpha_s)


def _springrank(a: np.ndarray, alpha_s: float, slices: bool = False) -> np.ndarray:
    """SpringRank of a validated matrix or stack.  A lone matrix is solved
    as a stack of one by `_cholesky_solve`, and so is each slice of a stack
    with `slices`, which gives each slice its single-matrix bits and errors;
    the NumericError of a failing slice carries its index as `index`, which
    the simulation kernel names by its cell.  Without `slices` a stack is
    solved by one batched LU solve.  Fits keep the LU solve: the per-slice
    cost is the condition estimate the kernel must keep.  On 200 rolled fit
    states at n=16 (2 vCPU), LU took 0.47-1.6 ms, per-slice Cholesky
    1.4-3.9 ms and 0.48 ms without the estimate (dposv); over 9 fits the
    median was 1.19 s with LU and 1.45 s with per-slice Cholesky."""
    n = a.shape[-1]
    lap, rhs = _spring_system(a, alpha_s)
    if a.ndim == 2 or slices:
        s = np.empty_like(rhs)
        for index, system in enumerate(zip(lap.reshape(-1, n, n), rhs.reshape(-1, n))):
            try:
                s.reshape(-1, n)[index] = _cholesky_solve(*system)  # a view of s
            except NumericError as exc:
                exc.index = index
                raise
    else:
        try:
            s = np.linalg.solve(lap, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"springrank solve failed: {exc}") from exc
    return s - s.sum(axis=-1, keepdims=True) / n


def score(a: np.ndarray, params) -> np.ndarray:
    """Score `a` with the function params.score_kind names.

    `a` is one (n, n) matrix or an (..., n, n) stack; see the module notes.
    """
    a = check_matrix(a, "adjacency")
    return _score_core(params, a.shape[-1])(a)


def _score_core(params, n: int, slices: bool = False):
    """The score function of params.score_kind for validated (..., n, n)
    matrices, with the kind's settings read now: alpha_p and the PageRank
    solver for n, or alpha_s.  With `slices` it takes (C, n, n) stacks and
    scores each slice bit for bit as alone (see `_springrank`).
    """
    kind = params.score_kind
    check_score_kind(kind)
    if kind == "rootdegree":
        return _root_degree
    if kind == "pagerank":
        check_alpha_p(params.alpha_p)
        return partial(_pagerank_solver(n), alpha_p=params.alpha_p)
    check_alpha_s(params.alpha_s)
    return partial(_springrank, alpha_s=params.alpha_s, slices=slices)
