"""Internal dense linear-algebra helpers shared across modules."""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .exceptions import ReducedSolveError

COND_LIMIT = 1e14


def dense(M):
    """A sparse or dense matrix as a float ndarray."""
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def as_columns(X):
    """Accept a Basis or a column matrix/vector; return an (n, m) ndarray."""
    cols = getattr(X, "columns", X)
    cols = np.asarray(cols, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    return cols


def solve_checked(M, rhs, what):
    """LU solve with a reciprocal-condition guard.

    Raises :class:`ReducedSolveError` naming ``what`` when the 1-norm
    condition estimate exceeds ``COND_LIMIT`` (a discrete inf-sup failure).
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if M.shape[0] == 0:
        return np.zeros((0,) + rhs.shape[1:])
    anorm = np.linalg.norm(M, 1)
    if anorm == 0.0 or not np.isfinite(anorm):
        raise ReducedSolveError(f"{what}: zero or non-finite matrix", cond=np.inf)
    try:
        lu, piv = la.lu_factor(M, check_finite=False)
    except la.LinAlgError as exc:
        raise ReducedSolveError(f"{what}: {exc}", cond=np.inf) from exc
    gecon = la.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0.0 or 1.0 / rcond > COND_LIMIT:
        cond = np.inf if rcond <= 0.0 else 1.0 / rcond
        raise ReducedSolveError(
            f"{what}: reduced system is numerically singular "
            f"(condition estimate {cond:.2e})",
            cond=cond,
        )
    return la.lu_solve((lu, piv), rhs, check_finite=False)


def solve_spd_min(M, rhs):
    """Solve the normal equations of a quadratic minimization.

    M is symmetric positive semidefinite by construction; falls back to a
    least-squares solution when Cholesky fails on a deflated matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.zeros((0,) + np.shape(rhs)[1:])
    try:
        return la.cho_solve(la.cho_factor(M, check_finite=False), rhs)
    except la.LinAlgError:
        sol, *_ = la.lstsq(M, rhs, check_finite=False)
        return sol


def clip_unit(value, tol=1e-12):
    """Clamp roundoff excursions of a value constrained to [0, 1]."""
    if -tol <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + tol:
        return 1.0
    return value


def clip_nonneg(value, tol=1e-12):
    if -tol * max(1.0, abs(value)) <= value < 0.0:
        return 0.0
    return value


def eig_extreme(M, B=None, largest=True):
    """Extreme eigenvalue (and vector) of a symmetric (generalized) pencil."""
    M = 0.5 * (M + M.T)
    if B is None:
        w, v = la.eigh(M, check_finite=False)
    else:
        w, v = la.eigh(M, 0.5 * (B + B.T), check_finite=False)
    idx = -1 if largest else 0
    return w[idx], v[:, idx], (w, v)
