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


class CheckedLU:
    """LU factors of a square matrix with a reciprocal-condition guard.

    Raises :class:`ReducedSolveError` naming ``what`` when the 1-norm
    condition estimate exceeds ``COND_LIMIT`` (a discrete inf-sup failure).
    """

    def __init__(self, M, what):
        M = np.asarray(M, dtype=float)
        self.n = M.shape[0]
        if self.n == 0:
            return
        anorm = np.linalg.norm(M, 1)
        if anorm == 0.0 or not np.isfinite(anorm):
            raise ReducedSolveError(f"{what}: zero or non-finite matrix", cond=np.inf)
        try:
            self.factors = la.lu_factor(M, check_finite=False)
        except la.LinAlgError as exc:
            raise ReducedSolveError(f"{what}: {exc}", cond=np.inf) from exc
        lu = self.factors[0]
        gecon = la.get_lapack_funcs("gecon", (lu,))
        rcond, info = gecon(lu, anorm, norm="1")
        if info != 0 or rcond <= 0.0 or 1.0 / rcond > COND_LIMIT:
            cond = np.inf if rcond <= 0.0 else 1.0 / rcond
            raise ReducedSolveError(
                f"{what}: reduced system is numerically singular "
                f"(condition estimate {cond:.2e})",
                cond=cond,
            )

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros((0,) + rhs.shape[1:])
        return la.lu_solve(self.factors, rhs, check_finite=False)


def solve_checked(M, rhs, what):
    """Solve M x = rhs through a :class:`CheckedLU` of M."""
    return CheckedLU(M, what).solve(rhs)


class SpdFactor:
    """Cholesky factors of a symmetric positive (semi)definite matrix.

    Where Cholesky fails, ``what=None`` keeps M and solves by least squares
    (the deflated normal equations of a quadratic minimization); a named
    ``what`` raises :class:`ReducedSolveError` instead.
    """

    def __init__(self, M, what=None):
        M = np.asarray(M, dtype=float)
        self.n, self.cho, self.M = M.shape[0], None, M
        if self.n == 0:
            return
        try:
            self.cho = la.cho_factor(M, check_finite=False)
        except la.LinAlgError as exc:
            if what is not None:
                raise ReducedSolveError(
                    f"{what} is not SPD ({exc}); model misuse?") from exc

    def solve(self, rhs):
        if self.n == 0:
            return np.zeros((0,) + np.shape(rhs)[1:])
        if self.cho is not None:
            return la.cho_solve(self.cho, rhs)
        sol, *_ = la.lstsq(self.M, rhs, check_finite=False)
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
