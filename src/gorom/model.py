"""Full-order models: operator/rhs/output triples with Gram machinery.

A full-order model holds the affine forms A(xi), b(xi), L(xi), a
parameter-independent SPD Gram matrix R_V0 on the state space, an SPD Gram
R_Z on the output space, the parameter domain, and a symmetry flag.

Norm convention (selected once here, consumed everywhere downstream):
for ``spd`` models the parameter-dependent state norm is the energy norm
induced by A(xi); for ``general`` models it is the fixed R_V0 norm.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._linalg import dense
from .affine import AffineForm, assemble
from .exceptions import FactorizationError

__all__ = ["Factorization", "dual_norm_sq", "FullOrderModel"]


def _fro_norm(M):
    return spla.norm(M) if sp.issparse(M) else np.linalg.norm(M)


class Factorization:
    """Sparse LU factorization (SuperLU) of a square matrix with
    direct/adjoint solves.

    ``spd`` input is factorized with a symmetric fill-reducing ordering and
    diagonal pivots only, and refused unless the row and column orders agree
    and every pivot is positive: then P M P^T = L D L^T with D > 0, which by
    Sylvester's law of inertia holds iff M is positive definite.  General
    input uses partial pivoting.  Dense input is converted to CSC; no n x n
    dense array is formed.  Solves are read-only and safe to share between
    threads.
    """

    def __init__(self, M, spd=False):
        A = sp.csc_matrix(M, dtype=float)
        if A.shape[0] != A.shape[1]:
            raise ValueError("factorization needs a square matrix")
        self.n = A.shape[0]
        self.spd = bool(spd)
        try:
            if spd:
                self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options=dict(SymmetricMode=True))
            else:
                self._lu = spla.splu(A)
        except RuntimeError as exc:  # exactly singular
            raise FactorizationError(str(exc)) from exc
        pivots = self._lu.U.diagonal()
        if spd and (not np.array_equal(self._lu.perm_r, self._lu.perm_c)
                    or not np.all(pivots > 0.0)):
            raise FactorizationError("matrix is not symmetric positive definite")
        pivots = np.abs(pivots)
        pmax = pivots.max() if pivots.size else 0.0
        if not np.isfinite(pmax) or pmax == 0.0 or pivots.min() <= 1e-12 * pmax:
            raise FactorizationError("LU pivot below threshold")

    def solve(self, B, transpose=False):
        """Solve M x = B, or M^T x = B when ``transpose``."""
        return self._lu.solve(np.asarray(B, dtype=float),
                              trans="T" if transpose else "N")

    @property
    def nbytes(self):
        """Storage of the L and U factors (values and sparse indices).

        SuperLU sizes its own arrays from a fill estimate before it
        factorizes, so the memory it holds is several times larger.
        """
        return sum(F.data.nbytes + F.indices.nbytes + F.indptr.nbytes
                   for F in (self._lu.L, self._lu.U))


def dual_norm_sq(r, gram):
    """Squared dual norm ``r^T G^{-1} r`` of a dual vector w.r.t. an SPD Gram.

    ``gram`` may be a matrix (factorized here) or an existing
    SPD :class:`Factorization`.  The result is clamped at zero to absorb
    roundoff; it vanishes iff ``r`` does.
    """
    r = np.asarray(r, dtype=float)
    factor = gram if isinstance(gram, Factorization) else Factorization(gram, spd=True)
    val = float(r @ factor.solve(r))
    return max(val, 0.0)


class FullOrderModel:
    """The triple (A, b, L) with Gram matrices and a parameter domain.

    Parameters
    ----------
    A : AffineForm, shape (n, n)
    b : AffineForm, shape (n,)
    L : AffineForm, shape (l, n)
    gram_v0 : SPD matrix, shape (n, n)
        Parameter-independent state-space Gram (residuals are measured in
        its dual norm).
    gram_z : SPD matrix, shape (l, l)
        Output-space Gram; identity is the canonical choice.
    domain : ParameterDomain
    symmetry : {"spd", "general"}
    xi_ref : array_like, shape (d,)
        Reference parameter (used by the min-theta coercivity bound when
        ``gram_v0`` equals ``A(xi_ref)``).
    coercive_affine : bool
        Declares that every operator coefficient is positive over the whole
        domain and every operator term is symmetric positive semidefinite,
        the precondition of the min-theta bound.

    Construction factors R_V0 and R_Z once each, which refuses a Gram that
    is not SPD: ``v0_factor`` is the R_V0 factor every Riesz solve reads,
    and ``gram_z_inv`` = R_Z^{-1} is solved from the R_Z factor.  For an
    ``spd`` model each operator term is checked to be symmetric.

    Instances are immutable after construction and safe for shared
    read-only concurrent use; assembly allocates per-call state.
    """

    def __init__(self, A, b, L, gram_v0, gram_z, domain, symmetry, xi_ref,
                 coercive_affine=False):
        if symmetry not in ("spd", "general"):
            raise ValueError("symmetry must be 'spd' or 'general'")
        for form, ndim, name in ((A, 2, "A"), (b, 1, "b"), (L, 2, "L")):
            if not isinstance(form, AffineForm) or len(form.shape) != ndim:
                raise ValueError(f"{name} must be an AffineForm of rank {ndim}")
        n = A.shape[0]
        if A.shape != (n, n) or b.shape != (n,) or L.shape[1] != n:
            raise ValueError("inconsistent shapes between A, b, L")
        self.A = A
        self.b = b
        self.L = L
        self.gram_v0 = gram_v0.tocsr() if sp.issparse(gram_v0) else np.asarray(gram_v0, float)
        self.gram_z = dense(gram_z)
        self.domain = domain
        self.symmetry = symmetry
        self.xi_ref = np.asarray(xi_ref, dtype=float)
        self.coercive_affine = bool(coercive_affine)
        if self.xi_ref.shape != (domain.dim,):
            raise ValueError("xi_ref must have one entry per parameter component")
        self._v0_ref_deviation = None
        self._theta_ref = None
        self._validate()

    # -- shape helpers -------------------------------------------------

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def l(self):
        return self.L.shape[0]

    @property
    def d(self):
        return self.domain.dim

    def _validate(self):
        # R_V0 and R_Z are factored once each, which checks that they are SPD
        factors = []
        for name, G in (("gram_v0", self.gram_v0), ("gram_z", self.gram_z)):
            try:
                factors.append(Factorization(G, spd=True))
            except FactorizationError as exc:
                raise FactorizationError(f"{name} is not SPD: {exc}") from exc
        self.v0_factor, z_factor = factors
        self.gram_z_inv = z_factor.solve(np.eye(self.l))
        # per operator term: the reduced cache reads A_k^T X as A_k X
        for k, (_, M) in enumerate(self.A.terms if self.symmetry == "spd" else ()):
            num, den = _fro_norm(M - M.T), _fro_norm(M)
            if num > 1e-12 * den:
                raise ValueError(f"model flagged spd but operator term {k} is not "
                                 f"symmetric (rel asymmetry {num / den:.2e})")

    # -- assembly ------------------------------------------------------

    def operator_at(self, xi):
        return assemble(self.A, xi, self.domain)

    def rhs_at(self, xi):
        return assemble(self.b, xi, self.domain)

    def output_at(self, xi):
        return assemble(self.L, xi, self.domain)

    def factorize_operator(self, xi):
        """Factorize A(xi); this is the offline cost unit."""
        return Factorization(self.operator_at(xi), spd=(self.symmetry == "spd"))

    # -- Gram / Riesz machinery ----------------------------------------

    @property
    def v0_ref_deviation(self):
        """Relative Frobenius distance of R_V0 from A(xi_ref), computed once."""
        if self._v0_ref_deviation is None:
            Aref = self.A(self.xi_ref)
            diff = Aref - self.gram_v0
            num, den = _fro_norm(diff), _fro_norm(Aref)
            self._v0_ref_deviation = float(num / max(den, np.finfo(float).tiny))
        return self._v0_ref_deviation

    @property
    def theta_ref(self):
        """The operator coefficients theta_A(xi_ref), computed once."""
        if self._theta_ref is None:
            self._theta_ref = self.A.coefficients_at(self.xi_ref)
        return self._theta_ref

    def riesz_v0(self, X):
        """Apply R_V0^{-1} to a dual vector or a matrix of dual columns."""
        return self.v0_factor.solve(np.asarray(X, dtype=float))

    def v0_norm(self, x):
        return float(np.sqrt(max(x @ (self.gram_v0 @ x), 0.0)))

    def v0_dual_norm(self, r):
        return float(np.sqrt(dual_norm_sq(r, self.v0_factor)))

    def z_norm(self, s):
        s = np.asarray(s, dtype=float)
        return float(np.sqrt(max(s @ (self.gram_z @ s), 0.0)))

    def z_dual_norm(self, zp):
        zp = np.asarray(zp, dtype=float)
        return float(np.sqrt(max(zp @ (self.gram_z_inv @ zp), 0.0)))

    def v_gram_at(self, xi):
        """Gram of the parameter-dependent state norm: A(xi) if spd, else R_V0."""
        if self.symmetry == "spd":
            return self.operator_at(xi)
        return self.gram_v0

    def v_norm(self, xi, x):
        G = self.v_gram_at(xi)
        return float(np.sqrt(max(x @ (G @ x), 0.0)))

    def __repr__(self):
        return (
            f"FullOrderModel(n={self.n}, l={self.l}, d={self.d}, "
            f"symmetry={self.symmetry!r}, terms={self.A.nterms})"
        )
