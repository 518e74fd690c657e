"""Projections of the state and estimators of the variable of interest.

Five approximation routes are implemented:

* :func:`orthogonal_project`: best approximation in the state norm
  (an oracle: it consumes the truth solution);
* :func:`petrov_galerkin_solve`: primal-only projection with a test space;
* :func:`dual_only_solve`: output from a projected dual variable alone;
* :func:`primal_dual_solve`: primal projection plus a dual residual
  correction computed without ever forming the dual operator;
* :func:`saddle_spd_solve` / :func:`saddle_general_solve`: the coupled
  projection with an auxiliary variable over the enriched space
  T = (test space) + (dual space).

Every route, residual norm and dual Schur complement is written once, in
:class:`_Blocks`, over the reduced blocks at one parameter point: the
restrictions of A(xi), b(xi) and L(xi) to V, the test space W, the dual
space WQ and T, some paired through R_V0^{-1}.  Two providers compute those
blocks on first read:

* :class:`DirectBlocks` assembles them from the full-order operator at the
  point (never factorizing it).  The direct functions above use it, and it
  is the oracle the cache is tested against.
* :class:`ReducedCache` stacks each block over the affine terms it depends
  on and contracts the stack with the coefficients theta(xi), evaluated once
  per point, in one matrix-vector product, so that online assembly is
  polynomial in the reduced dimensions.  A Gram block F^T R_V0^{-1} F keeps
  only the term pairs i <= j of its stack.  Each block is built on its first
  use, so a route builds only the blocks it reads, and on spd models a
  transposed block is the direct one.

A point's blocks also keep the factors of their reduced matrices, so each
matrix is factored once per point whichever route, estimate or constant
solves with it.

A route returns an :class:`OutputEstimate` that holds the blocks it read;
the estimators of :mod:`gorom.estimators` take residual norms, Schur
complements and the saddle point from them instead of computing them again.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._linalg import CheckedLU, SpdFactor, as_columns, clip_nonneg, dense
from .exceptions import ReducedSolveError
from .problems import truth_solve
from .spaces import DEFAULT_TOL_RANK, Basis, union_basis

__all__ = [
    "OutputEstimate",
    "orthogonal_project",
    "petrov_galerkin_solve",
    "dual_only_solve",
    "primal_dual_solve",
    "saddle_spd_solve",
    "saddle_general_solve",
    "build_test_space",
    "ReducedCache",
]


@dataclass
class OutputEstimate:
    """An output estimate with the reduced solution pieces that produced it.

    ``blocks`` holds the reduced blocks at the point (``blocks.xi``) that the
    route read, and the estimates of this solution read them again; keep
    only ``s_tilde`` of a solution that must outlive its point.
    """

    s_tilde: np.ndarray
    method: str
    primal_coeffs: np.ndarray | None = None
    dual_coeffs: np.ndarray | None = None
    t_coeffs: np.ndarray | None = None
    blocks: "_Blocks | None" = None


# ---------------------------------------------------------------------------
# route algebra over the reduced blocks at one parameter point
# ---------------------------------------------------------------------------

class _Blocks:
    """Reduced blocks at one parameter point and the routes that read them.

    A block is an attribute computed by the subclass's ``_block`` on its
    first read.  Names, with R = R_V0 and every operator taken at xi:

    * primal: ``WAV`` = W^T A V, ``Wb`` = W^T b, ``LV`` = L V;
    * dual: ``QAV`` = WQ^T A V, ``Qb`` = WQ^T b, ``GLL`` = L R^{-1} L^T,
      ``KQ`` = (A^T WQ)^T R^{-1} A^T WQ, ``CQ`` = (A^T WQ)^T R^{-1} L^T,
      ``LXQ`` = L R^{-1} A^T WQ, and for spd models ``QAQ`` = WQ^T A WQ,
      ``LQ`` = L WQ, ``QL`` = WQ^T L^T;
    * saddle: ``Tb``, ``TAT``, ``LT`` (spd), ``KT``, ``CT``, ``TAV``, ``LXT``
      (general), defined as above with T in place of W or WQ;
    * residual norms: ``Rbb`` = b^T R^{-1} b, ``RAA`` = (A V)^T R^{-1} A V,
      ``RAb`` = (A V)^T R^{-1} b, ``RTT`` and ``RTb`` likewise over T;
    * full order: ``A``, ``b`` and ``XT`` = R^{-1} A^T T, which the general
      saddle point and its residual read.

    Subclasses also set ``model``, ``spd``, ``l``, ``xi``, the columns ``Vc``
    and ``Tc`` of V and T, the dimensions ``r``, ``k``, ``p`` of V, WQ and T,
    and empty dicts ``_theta`` and ``_factors``.  A :class:`ReducedCache`
    stores each block stacked over the terms of the forms it depends on, one
    leading axis for all of them: ``WAV`` as (Q_A, r, r), ``CQ`` as
    (Q_A Q_L, k, l), under an interpolant ``WAV`` as (m Q_A, r, r) over
    points and terms, and the Gram blocks ``RAA``, ``Rbb``, ``KQ``, ``GLL``,
    ``KT`` and ``RTT`` packed over the term pairs i <= j, ``KT`` as
    (Q_A (Q_A + 1) / 2, p, p).  On spd models A_k^T = A_k, so ``KT`` is
    ``RTT``; ``LQ``, ``LXQ`` and ``LXT`` are the transposes of ``QL``,
    ``CQ`` and ``CT``.

    Each reduced matrix solved with has one factor per point, made on the
    first solve with it and kept for every route, estimate and constant
    that reads it (see :meth:`factor`): a checked LU of ``WAV`` and
    ``QAQ``, a checked Cholesky of ``KQ``, and a Cholesky with the
    least-squares fallback of ``KT`` and ``RTT``.
    """

    _aliases = {}

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        value = self._block(name)
        setattr(self, name, value)
        return value

    def __getitem__(self, name):
        """The coefficient vector theta of the form ``name`` (``A``, ``b`` or
        ``L``) at this point, evaluated on first read."""
        if name not in self._theta:
            self._theta[name] = getattr(self.model, name).coefficients_at(self.xi)
        return self._theta[name]

    def factor(self, name):
        """The factor of block ``name`` that :data:`_FACTORS` names, computed
        on first use and kept for the point."""
        name = self._aliases.get(name, name)
        factor = self._factors.get(name)
        if factor is None:
            cls, what = _FACTORS[name]
            factor = self._factors[name] = cls(getattr(self, name), what)
        return factor

    # -- routes ------------------------------------------------------------

    def solve_primal(self):
        U = self.factor("WAV").solve(self.Wb.ravel())
        s = self.LV @ U if self.r else np.zeros(self.l)
        return OutputEstimate(np.asarray(s), "primal", primal_coeffs=U, blocks=self)

    def dual_correction(self, rhs):
        """Dual coefficients for the residual functional ``rhs`` on WQ, and
        the output correction L Q_k^* r they induce."""
        if self.k == 0:
            return np.zeros(0), np.zeros(self.l)
        if self.spd:
            Y = self.factor("QAQ").solve(rhs)
            return Y, np.asarray(self.LQ @ Y)
        Y = self.factor("KQ").solve(rhs)
        return Y, np.asarray(self.LXQ @ Y)

    def solve_dual_only(self):
        Y, s = self.dual_correction(self.Qb.ravel() if self.k else np.zeros(0))
        return OutputEstimate(s, "dual", dual_coeffs=Y, blocks=self)

    def solve_primal_dual(self):
        primal = self.solve_primal()
        rhs = (self.Qb.ravel() - self.QAV @ primal.primal_coeffs
               if self.k else np.zeros(0))
        Y, corr = self.dual_correction(rhs)
        return OutputEstimate(primal.s_tilde + corr, "primal-dual",
                              primal_coeffs=primal.primal_coeffs, dual_coeffs=Y,
                              blocks=self)

    def solve_saddle_spd(self):
        """Saddle projection, symmetric coercive form: one SPD system over T."""
        if self.p == 0:
            return OutputEstimate(np.zeros(self.l), "saddle", t_coeffs=np.zeros(0),
                                  blocks=self)
        M = self.TAT
        Y = SpdFactor(0.5 * (M + M.T), "saddle reduced matrix").solve(self.Tb.ravel())
        return OutputEstimate(np.asarray(self.LT @ Y), "saddle", t_coeffs=Y,
                              blocks=self)

    def solve_saddle_general(self):
        """Saddle projection in block form, valid for any model (R_V0 norm)."""
        p, r = self.p, self.r
        if p == 0 and r > 0:
            raise ReducedSolveError(
                "saddle space is empty while the primal space is not: "
                "discrete inf-sup constant is zero"
            )
        if p == 0:
            return OutputEstimate(np.zeros(self.l), "saddle", primal_coeffs=np.zeros(0),
                                  dual_coeffs=np.zeros(0), blocks=self)
        B = self.TAV
        big = np.block([[self.KT, B], [B.T, np.zeros((r, r))]])
        rhs = np.concatenate([self.Tb.ravel(), np.zeros(r)])
        sol = CheckedLU(big, "saddle block system").solve(rhs)
        Y, U = sol[:p], sol[p:]
        s = self.LV @ U + self.LXT @ Y
        return OutputEstimate(np.asarray(s), "saddle", primal_coeffs=U, dual_coeffs=Y,
                              blocks=self)

    # -- estimator primitives ------------------------------------------------

    def residual_vector(self, U):
        """b - A V U as a full-order vector."""
        r = np.ravel(self.b)
        if self.r and U is not None and U.size:
            r = r - self._apply_AV(U)
        return r

    def saddle_point(self, est):
        """The saddle point t of a saddle solution ``est`` of these blocks:
        T y on the spd route, V u + R_V0^{-1} A^T T y on the general one."""
        if est.t_coeffs is not None:
            return self.Tc @ est.t_coeffs
        return self.XT @ est.dual_coeffs + self.Vc @ est.primal_coeffs

    def primal_residual_norm(self, U):
        """|| b - A V U || in the R_V0 dual norm."""
        s0 = float(self.Rbb.item())
        if self.r == 0 or U is None or U.size == 0:
            return np.sqrt(max(s0, 0.0))
        val = float(U @ (self.RAA @ U) - 2.0 * (self.RAb.ravel() @ U) + s0)
        return np.sqrt(max(clip_nonneg(val, 1e-10), 0.0))

    def min_residual_over_T(self):
        """min over t in T of || A t - b || in the R_V0 dual norm."""
        s0 = float(self.Rbb.item())
        if self.p == 0:
            return np.sqrt(max(s0, 0.0))
        q = self.RTb.ravel()
        val = s0 - float(q @ self.factor("RTT").solve(q))
        return np.sqrt(max(clip_nonneg(val, 1e-10), 0.0))

    def dual_schur(self, space="WQ"):
        """G_LL - C^T K^{-1} C over WQ or T: the Gram of the dual-residual
        minimization."""
        if space not in ("WQ", "T"):
            raise ValueError(f"unknown space {space!r}")
        if (self.k if space == "WQ" else self.p) == 0:
            return self.GLL
        K, C = ("KQ", self.CQ) if space == "WQ" else ("KT", self.CT)
        return self.GLL - C.T @ self.factor(K).solve(C)

    def pd_dual_matrix(self):
        """(L^* - A^* Q_k)-Gram in the R_V0 dual norm, as an l x l matrix."""
        if self.k == 0 or not self.spd:
            return self.dual_schur("WQ")
        K, C = self.KQ, self.CQ
        qhat = self.factor("QAQ").solve(self.QL)
        return self.GLL - C.T @ qhat - qhat.T @ C + qhat.T @ (K @ qhat)


class DirectBlocks(_Blocks):
    """Reduced blocks assembled from the full-order model at ``xi``.

    ``W=None`` selects the Galerkin test space W = V; absent spaces are
    empty.  The operator is assembled once, on the first block that needs it.
    """

    _RECIPES = {
        "A": lambda d: d.model.operator_at(d.xi),
        "b": lambda d: d.model.rhs_at(d.xi),
        "Ld": lambda d: dense(d.model.output_at(d.xi)),
        "zL": lambda d: d.model.riesz_v0(d.Ld.T),
        "GLL": lambda d: d.Ld @ d.zL,
        "LV": lambda d: d.Ld @ d.Vc,
        "WAV": lambda d: d.Wc.T @ d.AV,
        "Wb": lambda d: d.Wc.T @ d.b,
        "QAV": lambda d: d.Qc.T @ d.AV,
        "Qb": lambda d: d.Qc.T @ d.b,
        "QAQ": lambda d: d.Qc.T @ (d.A @ d.Qc),
        "LQ": lambda d: d.Ld @ d.Qc,
        "QL": lambda d: d.Qc.T @ d.Ld.T,
        "AtQ": lambda d: d.A.T @ d.Qc,
        "XQ": lambda d: d.model.riesz_v0(d.AtQ),
        "KQ": lambda d: d.AtQ.T @ d.XQ,
        "CQ": lambda d: d.XQ.T @ d.Ld.T,
        "LXQ": lambda d: d.Ld @ d.XQ,
        "Tb": lambda d: d.Tc.T @ d.b,
        "TAT": lambda d: d.Tc.T @ d.AT,
        "LT": lambda d: d.Ld @ d.Tc,
        "TAV": lambda d: d.Tc.T @ d.AV,
        "AtT": lambda d: d.A.T @ d.Tc,
        "XT": lambda d: d.model.riesz_v0(d.AtT),
        "KT": lambda d: d.AtT.T @ d.XT,
        "CT": lambda d: d.XT.T @ d.Ld.T,
        "LXT": lambda d: d.Ld @ d.XT,
        "zb": lambda d: d.model.riesz_v0(d.b),
        "Rbb": lambda d: d.b @ d.zb,
        "AV": lambda d: d.A @ d.Vc,
        "RAA": lambda d: d.AV.T @ d.model.riesz_v0(d.AV),
        "RAb": lambda d: d.AV.T @ d.zb,
        "AT": lambda d: d.A @ d.Tc,
        "RTT": lambda d: d.AT.T @ d.model.riesz_v0(d.AT),
        "RTb": lambda d: d.AT.T @ d.zb,
    }

    def __init__(self, model, xi, V=None, WQ=None, W=None, T=None):
        def cols(X):
            return np.zeros((model.n, 0)) if X is None else as_columns(X)

        self.model, self.xi = model, xi
        self.spd, self.l = model.symmetry == "spd", model.l
        self._theta, self._factors = {}, {}
        self.Vc, self.Qc, self.Tc = cols(V), cols(WQ), cols(T)
        self.Wc = self.Vc if W is None else as_columns(W)
        self.r, self.k, self.p = self.Vc.shape[1], self.Qc.shape[1], self.Tc.shape[1]

    def _block(self, name):
        try:
            recipe = self._RECIPES[name]
        except KeyError:
            raise AttributeError(name) from None
        return recipe(self)

    def _apply_AV(self, U):
        return self.AV @ U


# ---------------------------------------------------------------------------
# direct operations (explicit bases)
# ---------------------------------------------------------------------------

def orthogonal_project(model, xi, V, u=None, gram="model"):
    """Coefficients of the orthogonal projection of u on span(V).

    ``gram`` selects the inner product: "model" uses the model's state norm
    (energy norm for spd models), "v0" always uses R_V0.  When ``u`` is not
    given the truth solution at ``xi`` is computed (oracle usage).
    """
    Vc = as_columns(V)
    if u is None:
        u, _ = truth_solve(model, xi)
    if Vc.shape[1] == 0:
        return np.zeros(0)
    G = model.v_gram_at(xi) if gram == "model" else model.gram_v0
    GV = G @ Vc
    M = Vc.T @ GV
    rhs = GV.T @ u
    return CheckedLU(M, "orthogonal projection Gram system").solve(rhs)


def petrov_galerkin_solve(model, xi, V, W=None):
    """Primal-only projection: W^T A(xi) V U = W^T b(xi), s = L V U.

    ``W=None`` selects the standard Galerkin test space W = V.
    """
    return DirectBlocks(model, xi, V=V, W=W).solve_primal()


def dual_only_solve(model, xi, WQ):
    """Output estimate from the dual space alone (zero primal approximation)."""
    return DirectBlocks(model, xi, WQ=WQ).solve_dual_only()


def primal_dual_solve(model, xi, V, WQ, W=None):
    """Primal projection plus dual correction of the output.

    The correction solves the small system induced by the dual space and
    the residual, then evaluates L R_V^{-1} A^* applied to it; the dual
    operator itself is never assembled.
    """
    return DirectBlocks(model, xi, V=V, WQ=WQ, W=W).solve_primal_dual()


def saddle_spd_solve(model, xi, T):
    """Saddle projection, symmetric coercive form: one SPD system over T."""
    if model.symmetry != "spd":
        raise ReducedSolveError("saddle_spd_solve requires an spd model")
    return DirectBlocks(model, xi, T=T).solve_saddle_spd()


def saddle_general_solve(model, xi, V, T):
    """Saddle projection in block form, valid for any model (R_V0 norm).

    Solves for (y, u) in T x V the coupled system with the residual-induced
    Gram A R_V0^{-1} A^T on T, and returns the output estimate
    s = L V u + L R_V0^{-1} A^T T y.
    """
    return DirectBlocks(model, xi, V=V, T=T).solve_saddle_general()


def build_test_space(model, V, precond, xi):
    """Test-space columns P_m(xi)^* R_V0 V; with no points this is V itself."""
    cols = as_columns(V)
    if precond is None or precond.m == 0:
        return cols.copy()
    return precond.apply_adjoint(xi, model.gram_v0 @ cols)


# ---------------------------------------------------------------------------
# parameter-independent reduced blocks
# ---------------------------------------------------------------------------

class _Affine:
    """An affine family sum_t w_t(xi) S_t over a stack of terms S.

    ``stack`` is one ndarray of shape (n_terms, *block): a reduced block or
    a full-order image per term.  Its terms run over the product of the
    forms in ``names`` (the last name varies fastest), and the weights w are
    the outer product of the coefficient vectors those names select at a
    point; the name "1" is a fixed matrix of weight 1.  The sum is one
    matrix-vector product over the flattened stack.
    """

    def __init__(self, names, stack):
        self.names, self.stack = tuple(names), np.asarray(stack, dtype=float)
        self._weights = [name for name in self.names if name != "1"]

    def weights(self, theta):
        """The weight of each term at one point."""
        w = np.ones(1)
        for name in self._weights:
            w = np.multiply.outer(w, theta[name]).ravel()
        return w

    def at(self, theta):
        """The sum at one point, whose coefficient vectors are ``theta[name]``."""
        S = self.stack
        return (self.weights(theta) @ S.reshape(len(S), -1)).reshape(S.shape[1:])


class _Gram(_Affine):
    """A symmetric family sum_{i,j} theta_i theta_j F_i^T R_V0^{-1} F_j over
    the terms of one form, packed: ``stack`` holds S_ij = F_i^T Z_j for i <= j
    only, Q(Q+1)/2 blocks in row-major upper-triangle order, since S_ji is
    S_ij^T.  With c_ij = theta_i theta_j and c_ii = theta_i^2 / 2, the sum is
    U + U^T for U = sum_{i<=j} c_ij S_ij, exactly symmetric."""

    def __init__(self, name, stack, Q):
        super().__init__((name,), stack)
        self._i, self._j = np.triu_indices(Q)
        self._scale = np.where(self._i == self._j, 0.5, 1.0)

    def weights(self, theta):
        t = theta[self.names[0]]
        return t[self._i] * t[self._j] * self._scale

    def at(self, theta):
        U = super().at(theta)
        return U + U.T


def _stacked(count, blocks):
    """The ``count`` equal-shape arrays that ``blocks`` yields, copied one by
    one into a new (count, ...) array, so that no list of them is held
    alongside the stack."""
    out = None
    for t, B in enumerate(blocks):
        if out is None:
            out = np.empty((count,) + np.shape(B))
        out[t] = B
    return out


def _fixed(X):
    """A parameter-independent matrix as a family of one term of weight 1."""
    return _Affine(("1",), X[None])


def _family(model, name, X=None, transpose=False):
    """Images term_k @ X (or term_k^T @ X) of the terms of ``model.<name>``;
    with no X, the dense transposed terms (a vector term as one column)."""
    def image(term):
        if X is None:
            return np.atleast_2d(dense(term)).T
        return term.T @ X if transpose else term @ X

    form = getattr(model, name)
    return _Affine((name,), _stacked(form.nterms, (image(t) for _, t in form.terms)))


def _riesz(c, fam):
    """Riesz representers R_V0^{-1} F_k of a family of dual images."""
    return _Affine(fam.names,
                   _stacked(len(fam.stack), (c.model.riesz_v0(F) for F in fam.stack)))


def _pairs(fam_a, fam_b):
    """Stacked blocks Fa_j^T Fb_k for every pair of terms, k fastest."""
    return _Affine(fam_a.names + fam_b.names,
                   _stacked(len(fam_a.stack) * len(fam_b.stack),
                            (Fa.T @ Fb for Fa in fam_a.stack for Fb in fam_b.stack)))


def _gram(fam, zfam):
    """The packed :class:`_Gram` of a family ``fam`` of dual images and the
    family ``zfam`` of their Riesz representers: F_i^T Z_j for i <= j."""
    F, Z = fam.stack, zfam.stack
    pairs = [(i, j) for i in range(len(F)) for j in range(i, len(F))]
    return _Gram(fam.names[0], _stacked(len(pairs), (F[i].T @ Z[j] for i, j in pairs)),
                 len(F))


# name -> builder(cache, get); a builder reads other groups through get
_GROUPS = {
    # full-order term images
    "FA_V": lambda c, g: _family(c.model, "A", c.Vc),
    "FA_Q": lambda c, g: _family(c.model, "A", c.WQc),
    "FAt_Q": lambda c, g: _family(c.model, "A", c.WQc, transpose=True),
    "b": lambda c, g: _family(c.model, "b"),
    "FL": lambda c, g: _family(c.model, "L"),
    "T": lambda c, g: union_basis([c.Vc, c.WQc], gram=c.model.gram_v0,
                                  tol_rank=c.tol_rank, name="T"),
    "FA_T": lambda c, g: _family(c.model, "A", g("T").columns),
    "FAt_T": lambda c, g: _family(c.model, "A", g("T").columns, transpose=True),
    # test-space images Y_i = A(xi_i)^{-T} R_V0 V: W(xi) = sum_i lambda_i Y_i
    "Ys": lambda c, g: _Affine(("lam",), _stacked(
        c.precond.m, (f.solve(c.model.gram_v0 @ c.Vc, transpose=True)
                      for f in c.precond.factorizations))),
    # Riesz representers of the term images; XQ = R_V0^{-1} A^T WQ, XT likewise
    "zA_V": lambda c, g: _riesz(c, g("FA_V")),
    "XQ": lambda c, g: _riesz(c, g("FAt_Q")),
    "zb": lambda c, g: _riesz(c, g("b")),
    "zL": lambda c, g: _riesz(c, g("FL")),
    "zA_T": lambda c, g: _riesz(c, g("FA_T")),
    "XT": lambda c, g: _riesz(c, g("FAt_T")),
    # primal route: W = V, or W(xi) under an interpolant
    "WAV": lambda c, g: _pairs(g("Ys") if c._precond_w else _fixed(c.Vc), g("FA_V")),
    "Wb": lambda c, g: _pairs(g("Ys") if c._precond_w else _fixed(c.Vc), g("b")),
    "LV": lambda c, g: _pairs(g("FL"), _fixed(c.Vc)),
    # primal residual in the R_V0 dual norm
    "RAA": lambda c, g: _gram(g("FA_V"), g("zA_V")),
    "Rbb": lambda c, g: _gram(g("b"), g("zb")),
    "RAb": lambda c, g: _pairs(g("FA_V"), g("zb")),
    # dual route
    "QAV": lambda c, g: _pairs(_fixed(c.WQc), g("FA_V")),
    "Qb": lambda c, g: _pairs(_fixed(c.WQc), g("b")),
    "QAQ": lambda c, g: _pairs(_fixed(c.WQc), g("FA_Q")),
    "QL": lambda c, g: _pairs(_fixed(c.WQc), g("FL")),
    "KQ": lambda c, g: _gram(g("FAt_Q"), g("XQ")),
    "CQ": lambda c, g: _pairs(g("FAt_Q"), g("zL")),
    "GLL": lambda c, g: _gram(g("FL"), g("zL")),
    # saddle route over T = V + WQ
    "Tb": lambda c, g: _pairs(_fixed(g("T").columns), g("b")),
    "TAT": lambda c, g: _pairs(_fixed(g("T").columns), g("FA_T")),
    "LT": lambda c, g: _pairs(g("FL"), _fixed(g("T").columns)),
    "TAV": lambda c, g: _pairs(_fixed(g("T").columns), g("FA_V")),
    "KT": lambda c, g: _gram(g("FAt_T"), g("XT")),
    "CT": lambda c, g: _pairs(g("FAt_T"), g("zL")),
    "RTT": lambda c, g: _gram(g("FA_T"), g("zA_T")),
    "RTb": lambda c, g: _pairs(g("FA_T"), g("zb")),
}

# every operator term of an spd model is symmetric (FullOrderModel checks
# each), so A_k^T X is A_k X and each transposed group is the direct one
_SPD_ALIASES = {"FAt_Q": "FA_Q", "FAt_T": "FA_T", "XT": "zA_T", "KT": "RTT"}

# blocks read as the transpose of another block at the point
_TRANSPOSES = {"LQ": "QL", "LXQ": "CQ", "LXT": "CT"}

# block -> (factor class, the system its ReducedSolveError names); None keeps
# the least-squares fallback of an SpdFactor
_FACTORS = {"WAV": (CheckedLU, "Petrov-Galerkin reduced system"),
            "QAQ": (CheckedLU, "dual reduced system"),
            "KQ": (SpdFactor, "dual reduced system"),
            "KT": (SpdFactor, None), "RTT": (SpdFactor, None)}


class _CachedBlocks(_Blocks):
    """The blocks of a :class:`ReducedCache` evaluated at one point."""

    def __init__(self, cache, xi):
        self.cache, self.model, self.xi = cache, cache.model, xi
        self.spd, self.l = cache._spd, cache.model.l
        self.r, self.k, self.Vc = cache.r, cache.k, cache.Vc
        self._theta, self._factors = {}, {}
        self._aliases = _SPD_ALIASES if self.spd else {}

    def __getitem__(self, name):
        """As for every point's blocks, and the interpolation weights ``lam``."""
        if name == "lam" and name not in self._theta:
            self._theta[name] = self.cache.precond.fit(self["A"])
        return super().__getitem__(name)

    @property
    def p(self):
        return self.cache.p

    @property
    def Tc(self):
        return self.cache._get("T").columns

    def _block(self, name):
        if name == "A":  # assembled at full order: read by the general saddle residual
            return self.model.operator_at(self.xi)
        if name in self._aliases:
            return getattr(self, self._aliases[name])
        if name in _TRANSPOSES:
            return getattr(self, _TRANSPOSES[name]).T
        if name not in _GROUPS or name == "T":
            raise AttributeError(name)
        return self.cache._get(name).at(self)

    def _apply_AV(self, U):
        # the term images times U, summed: A(xi) itself is never assembled
        return self["A"] @ (self.cache._get("FA_V").stack @ U)


class ReducedCache:
    """Reduced blocks for one model and one space configuration.

    Parameters
    ----------
    model : FullOrderModel
    V : Basis or array, optional
        Primal approximation space.
    WQ : Basis or array, optional
        Dual approximation space.
    precond : InverseInterpolant, optional
        Drives the parameter-dependent test space of general models; ignored
        as a test space for spd models (Galerkin is optimal there).

    T = V + WQ drops directions with the rank tolerance of the bases that
    span it (the larger one if V and WQ differ), so it is the T that a
    greedy run with those bases builds; plain arrays count as
    ``DEFAULT_TOL_RANK``.

    Each block group is built on its first use, under a per-cache lock, so a
    route builds only what it reads and pool threads can share one cache.
    The spaces are fixed; build a new cache after every enrichment.
    """

    def __init__(self, model, V=None, WQ=None, precond=None):
        self.model = model
        n = model.n
        self.Vc = as_columns(V) if V is not None else np.zeros((n, 0))
        self.WQc = as_columns(WQ) if WQ is not None else np.zeros((n, 0))
        self.precond = precond
        self.tol_rank = max([X.tol_rank for X in (V, WQ) if isinstance(X, Basis)],
                            default=DEFAULT_TOL_RANK)
        self.r, self.k = self.Vc.shape[1], self.WQc.shape[1]
        self._spd = model.symmetry == "spd"
        # a general model with interpolation points gets the test space
        # W(xi) = P_m(xi)^* R_V0 V, and its saddle route a T(xi) to match
        self._precond_w = not self._spd and precond is not None and precond.m > 0
        self._groups = {}
        self._lock = threading.RLock()

    def _get(self, name):
        """The block group ``name``, built on first use."""
        if self._spd:
            name = _SPD_ALIASES.get(name, name)
        group = self._groups.get(name)
        if group is None:
            with self._lock:
                group = self._groups.get(name)
                if group is None:
                    group = _GROUPS[name](self, self._get)
                    self._groups[name] = group
        return group

    def at(self, xi):
        """The reduced blocks at ``xi``, each evaluated on first read; raises
        :class:`DomainError` for a point outside the model's domain."""
        self.model.domain.require(xi)
        return _CachedBlocks(self, xi)

    @property
    def p(self):
        return self._get("T").dim

    # -- online solves ----------------------------------------------------

    def solve_primal(self, xi):
        return self.at(xi).solve_primal()

    def solve_dual_only(self, xi):
        return self.at(xi).solve_dual_only()

    def solve_primal_dual(self, xi):
        return self.at(xi).solve_primal_dual()

    def solve_saddle(self, xi):
        blocks = self.at(xi)
        if self._precond_w:
            # parameter-dependent T(xi) = (W_r(xi), WQ), assembled at full order
            # from the stored factorizations and the cached R_V0 factor; the
            # solution carries the DirectBlocks at xi, which its estimate reads
            W = blocks.Ys if self.r else np.zeros((self.model.n, 0))
            T = union_basis([W, self.WQc], gram=self.model.gram_v0,
                            tol_rank=self.tol_rank, name="T")
            blocks = DirectBlocks(self.model, xi, V=self.Vc, T=T)
        return blocks.solve_saddle_spd() if self._spd else blocks.solve_saddle_general()

    def solve(self, xi, method):
        routes = {"primal": self.solve_primal, "dual": self.solve_dual_only,
                  "primal-dual": self.solve_primal_dual, "saddle": self.solve_saddle}
        if method not in routes:
            raise ValueError(f"unknown method {method!r}")
        return routes[method](xi)

    # -- estimator primitives ----------------------------------------------
    # The _Blocks methods at xi, evaluating the blocks anew; the estimators
    # read the blocks a solution carries instead (OutputEstimate.blocks).
    # The names stay for callers outside the package, perfbench among them.

    def primal_residual_norm(self, xi, U):
        """|| b(xi) - A(xi) V U || in the R_V0 dual norm, via cached blocks."""
        return self.at(xi).primal_residual_norm(U)

    def residual_vector(self, xi, U):
        """b(xi) - A(xi) V U as a full-order vector (from cached term images)."""
        return self.at(xi).residual_vector(U)

    def min_residual_over_T(self, xi):
        """min over t in T of || A(xi) t - b(xi) || in the R_V0 dual norm."""
        return self.at(xi).min_residual_over_T()

    def saddle_corrected_point(self, xi, est):
        """The saddle point of a saddle solution ``est`` at xi."""
        return est.blocks.saddle_point(est)

    def dual_schur(self, xi, space="WQ"):
        """G_LL - C^T K^{-1} C: the Gram of the dual-residual minimization."""
        return self.at(xi).dual_schur(space)

    def dual_schur_dynamic(self, xi, est):
        """Dual Schur complement over the T, fixed or T(xi), of a saddle solution."""
        return est.blocks.dual_schur("T")

    def pd_dual_matrix(self, xi):
        """(L^* - A^* Q_k)-Gram in the R_V0 dual norm, as an l x l matrix."""
        return self.at(xi).pd_dual_matrix()


def map_points(fn, points, threads=None):
    """Order-preserving map of ``fn`` over parameter points on a thread pool.

    The first point runs in the calling thread, so the blocks a shared
    :class:`ReducedCache` builds on first use land in the main malloc arena:
    built by a pool worker, they would stay in its arena after the command.
    ``threads=None`` lets the pool pick its size.
    """
    points = list(points)
    if not points:
        return []
    first = fn(points[0])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [first] + list(pool.map(fn, points[1:]))
