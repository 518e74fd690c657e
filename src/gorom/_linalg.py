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

    Raises :class:`ReducedSolveError` naming ``what`` when the matrix is
    exactly singular or its 1-norm condition estimate (LAPACK ``gecon``)
    exceeds ``COND_LIMIT`` (a discrete inf-sup failure).  LAPACK is called
    directly, so an exactly singular matrix raises that one error and no
    ``LinAlgWarning``.
    """

    def __init__(self, M, what):
        M = np.asarray(M, dtype=float)
        self.n = M.shape[0]
        if self.n == 0:
            return
        anorm = np.linalg.norm(M, 1)
        if anorm == 0.0 or not np.isfinite(anorm):
            raise ReducedSolveError(f"{what}: zero or non-finite matrix", cond=np.inf)
        getrf, gecon, self._getrs = la.get_lapack_funcs(("getrf", "gecon", "getrs"), (M,))
        self.lu, self.piv, info = getrf(M)
        rcond = 0.0
        if info == 0:
            rcond, info = gecon(self.lu, anorm, norm="1")
        _refuse_ill_conditioned(what, info, rcond)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros((0,) + rhs.shape[1:])
        return self._getrs(self.lu, self.piv, rhs)[0]


class SpdFactor:
    """Cholesky factor of a symmetric positive (semi)definite matrix.

    A named factor (``what`` given) is a checked one: it raises
    :class:`ReducedSolveError` naming ``what`` when M is not SPD or its
    1-norm condition estimate (LAPACK ``pocon``) exceeds ``COND_LIMIT``.
    An unnamed factor keeps M where Cholesky fails and solves by least
    squares (the deflated normal equations of a quadratic minimization).
    """

    def __init__(self, M, what=None):
        M = np.asarray(M, dtype=float)
        self.n, self.U, self.M = M.shape[0], None, M
        if self.n == 0:
            return
        potrf, pocon, self._potrs = la.get_lapack_funcs(("potrf", "pocon", "potrs"), (M,))
        U, info = potrf(M, lower=0, clean=0)
        if what is None:
            self.U = U if info == 0 else None
            return
        if info != 0:
            raise ReducedSolveError(f"{what} is not SPD (leading minor {info} is not "
                                    "positive definite); model misuse?", cond=np.inf)
        rcond, info = pocon(U, np.linalg.norm(M, 1))
        _refuse_ill_conditioned(what, info, rcond)
        self.U = U

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros((0,) + rhs.shape[1:])
        if self.U is not None:
            return self._potrs(self.U, rhs, lower=0)[0]
        sol, *_ = la.lstsq(self.M, rhs, check_finite=False)
        return sol


def _refuse_ill_conditioned(what, info, rcond):
    """Raise the :class:`ReducedSolveError` of system ``what`` unless LAPACK
    succeeded (``info`` 0) with a condition estimate 1/rcond within COND_LIMIT."""
    if info != 0 or not rcond > 0.0 or 1.0 / rcond > COND_LIMIT:
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        raise ReducedSolveError(
            f"{what}: reduced system is numerically singular "
            f"(condition estimate {cond:.2e})",
            cond=cond,
        )


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
