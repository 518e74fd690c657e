"""Internal dense linear-algebra helpers shared across modules."""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .exceptions import ReducedSolveError

COND_LIMIT = 1e14


def dense(M):
    """A sparse or dense matrix as a float ndarray."""
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def as_columns(X, n=None):
    """The columns of a Basis, a column matrix or a vector (one column) as an
    (n, m) float ndarray; ``None`` is the empty space, an (n, 0) array."""
    if X is None:
        return np.zeros((n, 0))
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
        getrf, gecon, self._getrs, lange = la.get_lapack_funcs(
            ("getrf", "gecon", "getrs", "lange"), (M,))
        anorm = _norm1(lange, M)
        if anorm == 0.0 or not np.isfinite(anorm):
            raise ReducedSolveError(f"{what}: zero or non-finite matrix", cond=np.inf)
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
    """Checked Cholesky factor of a symmetric positive definite matrix.

    Raises :class:`ReducedSolveError` naming ``what`` when M is not SPD or
    its 1-norm condition estimate (LAPACK ``pocon``) exceeds ``COND_LIMIT``.
    ``U`` is the upper triangular factor, Fortran-ordered as LAPACK leaves it.
    """

    def __init__(self, M, what):
        M = np.asarray(M, dtype=float)
        self.n = M.shape[0]
        if self.n == 0:
            return
        potrf, pocon, self._potrs, lange = la.get_lapack_funcs(
            ("potrf", "pocon", "potrs", "lange"), (M,))
        self.U, info = potrf(M, lower=0)
        if info != 0:
            raise ReducedSolveError(f"{what} is not SPD (leading minor {info} is not "
                                    "positive definite); model misuse?", cond=np.inf)
        rcond, info = pocon(self.U, _norm1(lange, M))
        _refuse_ill_conditioned(what, info, rcond)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros((0,) + rhs.shape[1:])
        return self._potrs(self.U, rhs, lower=0)[0]


def _norm1(lange, M):
    """The 1-norm of M by LAPACK ``lange``, read as the infinity norm of the
    Fortran-ordered M^T so that a row-major M is neither copied nor passed
    through a temporary abs(M)."""
    return lange("I", M.T)


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


def eig_extreme(M, B=None, largest=True):
    """Extreme eigenvalue (and vector) of a symmetric (generalized) pencil."""
    M = 0.5 * (M + M.T)
    if B is None:
        w, v = la.eigh(M, check_finite=False)
    else:
        w, v = la.eigh(M, 0.5 * (B + B.T), check_finite=False)
    idx = -1 if largest else 0
    return w[idx], v[:, idx], (w, v)
