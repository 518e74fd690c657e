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
  transposed block is the direct one.  A cache over spaces that grew from
  another cache's grows the groups that cache read by the added columns
  only: a full-order family gains a panel of columns and keeps its others.
  A cache saves its reduced-size stacks to one file, and a cache over the
  same spaces reads each back from it on first use instead of building it.

A point's blocks also keep the factors of their reduced matrices, so each
matrix is factored once per point whichever route, estimate or constant
solves with it.

A route returns an :class:`OutputEstimate` that holds the blocks it read;
the estimators of :mod:`gorom.estimators` take residual norms and Schur
complements from them instead of computing them again.  The blocks are also
the one place where an online estimate does full-order work: the point x of
a solution, its residual b - A x, the norm || P r ||_{V0} (P = R_V0^{-1}
without an interpolant) and the interpolation weights of P, once per point.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._linalg import CheckedLU, SpdFactor, as_columns, dense
from .bundle import check_fields, read_array, write_arrays
from .exceptions import GoromError, ReducedSolveError
from .problems import truth_solve
from .spaces import Basis, union_basis

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
      ``RAb`` = (A V)^T R^{-1} b, ``RTT`` and ``RTb`` likewise over T.

    Full-order work goes through :meth:`point`, :meth:`residual` and
    :meth:`residual_norm`, which read ``b``, ``XT`` = R^{-1} A^T T and the
    subclass's ``_apply_A(x)`` = A x; :meth:`weights` fits lambda(xi).  The
    residual norms expanded over the blocks fall back to :meth:`residual`
    where the expansion cancels to zero or below.

    Subclasses also set ``model``, ``spd``, ``l``, ``xi``, the columns ``Vc``
    and ``Tc`` of V and T, the dimensions ``r``, ``k``, ``p`` of V, WQ and T,
    and the dicts ``_theta`` and ``_factors``.  A :class:`ReducedCache`
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
    ``QAQ`` and a checked Cholesky of ``KQ``, ``KT`` and ``RTT``, each
    raising the :class:`ReducedSolveError` that names its system when the
    matrix is singular to working precision (a T with dependent columns).

    Every dimension, 0 included, takes this one path: an empty V, WQ or T
    gives blocks without rows or columns, zero outputs and empty coefficient
    vectors.  Only the factors of :mod:`gorom._linalg` special-case an empty
    matrix.
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
        return OutputEstimate(np.asarray(self.LV @ U), "primal", primal_coeffs=U,
                              blocks=self)

    def dual_correction(self, rhs):
        """Dual coefficients for the residual functional ``rhs`` on WQ, and
        the output correction L Q_k^* r they induce."""
        if self.spd:
            Y = self.factor("QAQ").solve(rhs)
            return Y, np.asarray(self.LQ @ Y)
        Y = self.factor("KQ").solve(rhs)
        return Y, np.asarray(self.LXQ @ Y)

    def solve_dual_only(self):
        Y, s = self.dual_correction(self.Qb.ravel())
        return OutputEstimate(s, "dual", dual_coeffs=Y, blocks=self)

    def solve_primal_dual(self):
        primal = self.solve_primal()
        Y, corr = self.dual_correction(self.Qb.ravel() - self.QAV @ primal.primal_coeffs)
        return OutputEstimate(primal.s_tilde + corr, "primal-dual",
                              primal_coeffs=primal.primal_coeffs, dual_coeffs=Y,
                              blocks=self)

    def solve_saddle_spd(self):
        """Saddle projection, symmetric coercive form: one SPD system over T."""
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
        B = self.TAV
        big = np.block([[self.KT, B], [B.T, np.zeros((r, r))]])
        rhs = np.concatenate([self.Tb.ravel(), np.zeros(r)])
        sol = CheckedLU(big, "saddle block system").solve(rhs)
        Y, U = sol[:p], sol[p:]
        s = self.LV @ U + self.LXT @ Y
        return OutputEstimate(np.asarray(s), "saddle", primal_coeffs=U, dual_coeffs=Y,
                              blocks=self)

    # -- estimator primitives ------------------------------------------------

    def point(self, est):
        """The full-order point of a solution ``est`` of these blocks: V U
        (primal-dual), T y (spd saddle) or V u + R_V0^{-1} A^T T y (general)."""
        if est.t_coeffs is not None:
            return self.Tc @ est.t_coeffs
        x = self.Vc @ est.primal_coeffs
        return x + self.XT @ est.dual_coeffs if est.method == "saddle" else x

    def residual(self, x):
        """b - A x at this point, for a full-order vector x."""
        return np.ravel(self.b) - self._apply_A(x)

    def weights(self, precond):
        """The interpolation weights lambda(xi) of ``precond``, fitted on
        first read and kept with theta, keyed by the interpolant."""
        if precond not in self._theta:
            self._theta[precond] = precond.fit(self["A"])
        return self._theta[precond]

    def residual_norm(self, est, precond=None):
        """|| P r ||_{V0} of the residual r at the point of ``est``, with P the
        interpolated inverse of ``precond`` at xi, or R_V0^{-1} without one."""
        r = self.residual(self.point(est))
        x = (self.model.riesz_v0(r) if precond is None
             else precond.apply(self.weights(precond), r))
        return self.model.v0_norm(x)

    def _expanded_norm(self, val, x):
        """sqrt(val), a residual norm squared expanded over the cached
        blocks.  Where the expansion cancels to val <= 0 the residual is
        below its rounding there, and a certified bound of 0 would bound
        nothing: the norm of b - A x is then taken at full order, at the
        full-order point ``x()``."""
        if val > 0.0:
            return np.sqrt(val)
        return self.model.v0_dual_norm(self.residual(x()))

    def primal_residual_norm(self, U):
        """|| b - A V U || in the R_V0 dual norm, for the coefficient vector U
        over V (of length r, so empty when V is)."""
        val = float(U @ (self.RAA @ U) - 2.0 * (self.RAb.ravel() @ U) + self.Rbb.item())
        return self._expanded_norm(val, lambda: self.Vc @ U)

    def min_residual_over_T(self):
        """min over t in T of || A t - b || in the R_V0 dual norm."""
        q = self.RTb.ravel()
        t = self.factor("RTT").solve(q)
        return self._expanded_norm(self.Rbb.item() - float(q @ t), lambda: self.Tc @ t)

    def dual_schur(self, space="WQ"):
        """G_LL - C^T K^{-1} C over WQ or T: the Gram of the dual-residual
        minimization."""
        if space not in ("WQ", "T"):
            raise ValueError(f"unknown space {space!r}")
        K, C = ("KQ", self.CQ) if space == "WQ" else ("KT", self.CT)
        return self.GLL - C.T @ self.factor(K).solve(C)

    def pd_dual_matrix(self):
        """(L^* - A^* Q_k)-Gram in the R_V0 dual norm, as an l x l matrix."""
        if not self.spd:
            return self.dual_schur("WQ")
        K, C = self.KQ, self.CQ
        qhat = self.factor("QAQ").solve(self.QL)
        return self.GLL - C.T @ qhat - qhat.T @ C + qhat.T @ (K @ qhat)


class DirectBlocks(_Blocks):
    """Reduced blocks assembled from the full-order model at ``xi``.

    ``W=None`` selects the Galerkin test space W = V; absent spaces are
    empty.  The operator is assembled once, on the first block that needs it.
    ``theta`` shares the coefficients and weights of another provider at xi.
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

    def __init__(self, model, xi, V=None, WQ=None, W=None, T=None, theta=None):
        self.model, self.xi = model, xi
        self.spd, self.l = model.symmetry == "spd", model.l
        self._theta, self._factors = {} if theta is None else theta, {}
        self.Vc, self.Qc, self.Tc = (as_columns(X, model.n) for X in (V, WQ, T))
        self.Wc = self.Vc if W is None else as_columns(W)
        self.r, self.k, self.p = self.Vc.shape[1], self.Qc.shape[1], self.Tc.shape[1]

    def _block(self, name):
        try:
            recipe = self._RECIPES[name]
        except KeyError:
            raise AttributeError(name) from None
        return recipe(self)

    def _apply_A(self, x):
        return self.A @ x


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
    return precond.apply_adjoint(precond.coefficients(xi), model.gram_v0 @ cols)


# ---------------------------------------------------------------------------
# parameter-independent reduced blocks
# ---------------------------------------------------------------------------

class _Affine:
    """An affine family sum_t w_t(xi) S_t of terms S_t held in panels.

    ``panels`` are (t0, c0, P), P of shape (terms, *block): the terms t0,
    t0 + 1, ... over the last-axis columns c0, c0 + 1, ...; together they
    tile every term.  A reduced block group is one panel, and a full-order
    family grows by appending panels (see :func:`_grown`).  The terms run
    over the product of the forms in ``names`` (the last name varies
    fastest), and the weights w are the outer product of the coefficient
    vectors those names select at a point; the name "1" is a fixed matrix of
    weight 1.  The sum is one matrix-vector product per panel.
    """

    def __init__(self, names, *panels):
        self.names, self.panels = tuple(names), panels
        self._weights = [name for name in self.names if name != "1"]
        P = panels[0][2]
        self.shape = (max(t0 + len(P) for t0, _, P in panels), *P.shape[1:-1],
                      max(c0 + P.shape[-1] for _, c0, P in panels))

    @property
    def stack(self):
        """The terms as one array, of a family held in one panel."""
        (_, _, P), = self.panels
        return P

    def weights(self, theta):
        """The weight of each term at one point."""
        w = np.ones(1)
        for name in self._weights:
            w = np.multiply.outer(w, theta[name]).ravel()
        return w

    def at(self, theta):
        """The sum at one point, whose coefficient vectors are ``theta[name]``:
        the panels of the first terms are assigned and the later ones added."""
        w = self.weights(theta)
        sums = [(t0, c0, (w[t0:t0 + len(P)] @ P.reshape(len(P), -1)).reshape(P.shape[1:]))
                for t0, c0, P in self.panels]
        if len(sums) == 1:
            return sums[0][2]
        out = np.empty(self.shape[1:])
        for t0, c0, S in sums:
            cols = out[..., c0:c0 + S.shape[-1]]
            cols[...] = cols + S if t0 else S
        return out

    def parts(self, t, lo=0, hi=None):
        """Columns lo:hi of term t as (first column, block) pairs, one per
        panel they meet."""
        hi = self.shape[-1] if hi is None else hi
        for t0, c0, P in self.panels:
            a, b = max(lo, c0), min(hi, c0 + P.shape[-1])
            if t0 <= t < t0 + len(P) and a < b:
                yield a, P[t - t0][..., a - c0:b - c0]


class _Gram(_Affine):
    """A symmetric family sum_{i,j} theta_i theta_j F_i^T R_V0^{-1} F_j over
    the terms of one form, packed: ``stack`` holds S_ij = F_i^T Z_j for i <= j
    only, Q(Q+1)/2 blocks in row-major upper-triangle order, since S_ji is
    S_ij^T.  With c_ij = theta_i theta_j and c_ii = theta_i^2 / 2, the sum is
    U + U^T for U = sum_{i<=j} c_ij S_ij, exactly symmetric."""

    def __init__(self, name, stack, Q):
        super().__init__((name,), (0, 0, stack))
        self._i, self._j = np.triu_indices(Q)
        self._scale = np.where(self._i == self._j, 0.5, 1.0)

    def weights(self, theta):
        t = theta[self.names[0]]
        return t[self._i] * t[self._j] * self._scale

    def at(self, theta):
        U = super().at(theta)
        return U + U.T


def _fixed(X):
    """A parameter-independent matrix as a family of one term of weight 1."""
    return _Affine(("1",), (0, 0, X[None]))


def _grown(names, old, shape, image):
    """A family of full-order images of ``shape`` = (terms, n, columns),
    grown from ``old``, the same family over fewer terms or columns (None
    when there is none).  It keeps the panels of ``old`` and appends one of
    ``image(t, c)``, the images of the columns from c on of term t, for the
    added columns of the terms of ``old``, and one for the added terms."""
    t0, c0 = (0, 0) if old is None else (old.shape[0], old.shape[-1])

    def panel(first, lo, count):
        P = np.empty((count, shape[1], shape[-1] - lo))
        for t in range(count if P.shape[-1] else 0):
            P[t] = image(first + t, lo)
        return first, lo, P

    panels = () if old is None else old.panels
    if t0 and shape[-1] > c0:
        panels += (panel(0, c0, t0),)
    if shape[0] > t0:
        panels += (panel(t0, 0, shape[0] - t0),)
    return _Affine(names, *panels)


def _family(c, old, name, X=None, transpose=False):
    """Images term_k @ X (or term_k^T @ X) of the terms of ``model.<name>``;
    with no X, the dense transposed terms (a vector term as one column)."""
    form = getattr(c.model, name)
    terms = [term.T if transpose else term for _, term in form.terms]
    if X is None:
        width = 1 if len(form.shape) == 1 else form.shape[0]
        return _grown((name,), old, (len(terms), c.model.n, width),
                      lambda t, j: np.atleast_2d(dense(terms[t])).T)
    return _grown((name,), old, (len(terms), c.model.n, X.shape[1]),
                  lambda t, j: terms[t] @ X[:, j:])


def _riesz(c, old, fam):
    """Riesz representers R_V0^{-1} F_k of a family of dual images."""
    return _grown(fam.names, old, fam.shape, lambda t, j: c.model.riesz_v0(
        np.concatenate([X for _, X in fam.parts(t, j)], axis=-1)))


def _products(old, A, B, pairs):
    """The blocks A_i^T B_j of two families over the term ``pairs``,
    stacked, reading each family panel by panel.  ``old`` is the group of
    the first pairs over fewer rows and columns (None when there is none):
    its blocks keep their entries and gain their new rows and columns, and
    the later pairs are computed whole."""
    shape = (len(pairs), A.shape[-1], B.shape[-1])
    old = None if old is None else old.stack
    t0, (a0, b0) = (0, (0, 0)) if old is None else (len(old), old.shape[1:])
    if old is not None and old.shape == shape:
        return old
    out = np.empty(shape)
    for t, (i, j) in enumerate(pairs):
        a, b = (a0, b0) if t < t0 else (0, 0)
        if t < t0:
            out[t, :a, :b] = old[t]
        # the new columns of every row, then the new rows of the old columns
        for rows, cols in (((i, 0), (j, b)), ((i, a), (j, 0, b))):
            Bj = list(B.parts(*cols))
            for r, X in A.parts(*rows):
                for c, Y in Bj:
                    out[t, r:r + X.shape[-1], c:c + Y.shape[-1]] = X.T @ Y
    return out


def _pairs(fam_a, fam_b, old=None):
    """Stacked blocks Fa_j^T Fb_k for every pair of terms, k fastest, grown
    from ``old`` (see :func:`_products`)."""
    pairs = [(i, j) for i in range(fam_a.shape[0]) for j in range(fam_b.shape[0])]
    return _Affine(fam_a.names + fam_b.names, (0, 0, _products(old, fam_a, fam_b, pairs)))


def _gram(fam, zfam, old=None):
    """The packed :class:`_Gram` of a family ``fam`` of dual images and the
    family ``zfam`` of their Riesz representers: F_i^T Z_j for i <= j, grown
    from ``old`` (see :func:`_products`)."""
    Q = fam.shape[0]
    pairs = [(i, j) for i in range(Q) for j in range(i, Q)]
    return _Gram(fam.names[0], _products(old, fam, zfam, pairs), Q)


def _t_basis(c, old):
    """T = V + WQ in enrichment order: the previous cache's T (``old``),
    extended in place by the columns of V and then of WQ added since, or a
    new basis of all of them, V's columns first.  A cache over stored
    blocks reads the T they were built over instead."""
    T = Basis(c.model.gram_v0, c.model.n, name="T") if old is None else old
    r0, k0 = (0, 0) if old is None else c._base
    T.extend(c.Vc[:, r0:])
    T.extend(c.WQc[:, k0:])
    return T


def _test_images(c, old):
    """Y_i = A(xi_i)^{-T} R_V0 V, one term per interpolation point."""
    facts = c.precond.factorizations
    return _grown(("lam",), old, (c.precond.m, c.model.n, c.r), lambda i, j: facts[i].solve(
        c.model.gram_v0 @ c.Vc[:, j:], transpose=True))


# name -> builder(cache, get, old); a builder reads other groups through get
# and grows ``old``, the group of that name carried over from a previous
# cache, or builds the group anew when that is None.  The full-order groups:
_IMAGES = {
    # full-order term images
    "FA_V": lambda c, g, o: _family(c, o, "A", c.Vc),
    "FA_Q": lambda c, g, o: _family(c, o, "A", c.WQc),
    "FAt_Q": lambda c, g, o: _family(c, o, "A", c.WQc, transpose=True),
    "b": lambda c, g, o: _family(c, o, "b"),
    "FL": lambda c, g, o: _family(c, o, "L"),
    "T": lambda c, g, o: _t_basis(c, o),
    "FA_T": lambda c, g, o: _family(c, o, "A", g("T").columns),
    "FAt_T": lambda c, g, o: _family(c, o, "A", g("T").columns, transpose=True),
    # test-space images Y_i = A(xi_i)^{-T} R_V0 V: W(xi) = sum_i lambda_i Y_i
    "Ys": lambda c, g, o: _test_images(c, o),
    # Riesz representers of the term images; XQ = R_V0^{-1} A^T WQ, XT likewise
    "zA_V": lambda c, g, o: _riesz(c, o, g("FA_V")),
    "XQ": lambda c, g, o: _riesz(c, o, g("FAt_Q")),
    "zb": lambda c, g, o: _riesz(c, o, g("b")),
    "zL": lambda c, g, o: _riesz(c, o, g("FL")),
    "zA_T": lambda c, g, o: _riesz(c, o, g("FA_T")),
    "XT": lambda c, g, o: _riesz(c, o, g("FAt_T")),
}

# the reduced-size groups, which ReducedCache.save writes
_REDUCED = {
    # primal route: W = V, or W(xi) under an interpolant
    "WAV": lambda c, g, o: _pairs(g("Ys") if c._precond_w else _fixed(c.Vc), g("FA_V"), o),
    "Wb": lambda c, g, o: _pairs(g("Ys") if c._precond_w else _fixed(c.Vc), g("b"), o),
    "LV": lambda c, g, o: _pairs(g("FL"), _fixed(c.Vc), o),
    # primal residual in the R_V0 dual norm
    "RAA": lambda c, g, o: _gram(g("FA_V"), g("zA_V"), o),
    "Rbb": lambda c, g, o: _gram(g("b"), g("zb"), o),
    "RAb": lambda c, g, o: _pairs(g("FA_V"), g("zb"), o),
    # dual route
    "QAV": lambda c, g, o: _pairs(_fixed(c.WQc), g("FA_V"), o),
    "Qb": lambda c, g, o: _pairs(_fixed(c.WQc), g("b"), o),
    "QAQ": lambda c, g, o: _pairs(_fixed(c.WQc), g("FA_Q"), o),
    "QL": lambda c, g, o: _pairs(_fixed(c.WQc), g("FL"), o),
    "KQ": lambda c, g, o: _gram(g("FAt_Q"), g("XQ"), o),
    "CQ": lambda c, g, o: _pairs(g("FAt_Q"), g("zL"), o),
    "GLL": lambda c, g, o: _gram(g("FL"), g("zL"), o),
    # saddle route over T = V + WQ
    "Tb": lambda c, g, o: _pairs(_fixed(g("T").columns), g("b"), o),
    "TAT": lambda c, g, o: _pairs(_fixed(g("T").columns), g("FA_T"), o),
    "LT": lambda c, g, o: _pairs(g("FL"), _fixed(g("T").columns), o),
    "TAV": lambda c, g, o: _pairs(_fixed(g("T").columns), g("FA_V"), o),
    "KT": lambda c, g, o: _gram(g("FAt_T"), g("XT"), o),
    "CT": lambda c, g, o: _pairs(g("FAt_T"), g("zL"), o),
    "RTT": lambda c, g, o: _gram(g("FA_T"), g("zA_T"), o),
    "RTb": lambda c, g, o: _pairs(g("FA_T"), g("zb"), o),
}

_GROUPS = {**_IMAGES, **_REDUCED}

# every operator term of an spd model is symmetric (FullOrderModel checks
# each), so A_k^T X is A_k X and each transposed group is the direct one
_SPD_ALIASES = {"FAt_Q": "FA_Q", "FAt_T": "FA_T", "XT": "zA_T", "KT": "RTT"}

# a stored group by its kind, the class the cache holds it in
_KINDS = {"affine": _Affine, "gram": _Gram, "basis": Basis}


def _known(kind, names):
    """Whether a stored group is of a known kind over forms of the model: an
    affine group over fixed, operator, right-hand side, output and
    interpolation terms, a gram group over the terms of one form."""
    return (kind == "basis" or kind == "gram" and names in (["A"], ["b"], ["L"])
            or kind == "affine" and all(name in ("1", "A", "b", "L", "lam") for name in names))


class BlockStore:
    """Blocks written by :meth:`ReducedCache.save` to the npz file ``path``,
    read one group at a time.  Its metadata, read and checked here, records
    ``ids``, the identity the blocks were written with, ``groups``, the
    ``kind`` and form ``names`` of each group, and ``v0_ref_deviation``
    (see :meth:`ReducedCache.save`)."""

    def __init__(self, path):
        meta = check_fields(path, read_array(path, "meta"), {
            "ids": dict, "groups": dict, "v0_ref_deviation": (float, type(None))})
        for name, spec in meta["groups"].items():
            check_fields(path, spec, {"kind": str, "names": list})
            if not _known(spec["kind"], spec["names"]):
                raise GoromError(f"malformed {path}: group {name} is of an unknown kind "
                                 "or over unknown forms")
        self.path, self.ids, self.groups = path, meta["ids"], meta["groups"]
        self.v0_ref_deviation = meta.get("v0_ref_deviation")

    def read(self, name):
        """The stack of group ``name``, refused unless finite."""
        stack = read_array(self.path, name)
        if not np.all(np.isfinite(stack)):
            raise GoromError(f"{self.path} holds non-finite entries in {name}; "
                             "re-run gorom offline")
        return stack


# blocks read as the transpose of another block at the point
_TRANSPOSES = {"LQ": "QL", "LXQ": "CQ", "LXT": "CT"}

# block -> (factor class, the system its ReducedSolveError names)
_FACTORS = {"WAV": (CheckedLU, "Petrov-Galerkin reduced system"),
            "QAQ": (CheckedLU, "dual reduced system"),
            "KQ": (SpdFactor, "dual reduced system"),
            "KT": (SpdFactor, "saddle dual system"),
            "RTT": (SpdFactor, "saddle residual system")}


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
        return self.weights(self.cache.precond) if name == "lam" else super().__getitem__(name)

    @property
    def p(self):
        return self.cache.p

    @property
    def Tc(self):
        return self.cache._get("T").columns

    def _block(self, name):
        if name in self._aliases:
            return getattr(self, self._aliases[name])
        if name in _TRANSPOSES:
            return getattr(self, _TRANSPOSES[name]).T
        if name not in _GROUPS or name == "T":
            raise AttributeError(name)
        return self.cache._get(name).at(self)

    def _apply_A(self, x):
        # sum_k theta_k (A_k x) over the operator terms: A(xi) is never assembled
        return sum(t * (term @ x) for t, (_, term) in zip(self["A"], self.model.A.terms))


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
    previous : ReducedCache, optional
        A cache whose spaces V and WQ are leading columns of these, over the
        same model and interpolant (which may have gained points since).
    store : BlockStore, optional
        Blocks that :meth:`save` wrote from a cache over these spaces and
        this interpolant; the caller checks that they are (see
        :func:`gorom.cli.load_spaces`).

    Each block group is built on its first use, under a per-cache lock, so a
    route builds only what it reads and pool threads can share one cache.
    A cache built from ``previous`` takes over the groups that cache handed
    out once constructed, and the groups their builders read, leaving it
    none, and grows them here, on the calling thread, by the slices that
    involve the columns and interpolation points added since: a panel of
    term images and their Riesz representers for the new columns only, the
    new rows and columns of each block; it drops the other groups.  Its T is
    the previous T with the new columns of V and then of WQ, so it spans
    V + WQ in the order the spaces grew.  A cache without ``previous`` grows
    each group from nothing.

    A cache with a ``store`` reads a group the store holds from it on first
    use, one group at a time under the lock, and builds the others as
    above.  When the store holds T, that T, in the enrichment order of the
    cache that saved it, is the one the groups over T are built over.
    Without a stored T, T is V's columns followed by WQ's.
    """

    def __init__(self, model, V=None, WQ=None, precond=None, previous=None, store=None):
        self.model = model
        self.Vc, self.WQc = as_columns(V, model.n), as_columns(WQ, model.n)
        self.precond = precond
        self.r, self.k = self.Vc.shape[1], self.WQc.shape[1]
        self._spd = model.symmetry == "spd"
        # a general model with interpolation points gets the test space
        # W(xi) = P_m(xi)^* R_V0 V, and its saddle route a T(xi) to match
        self._precond_w = not self._spd and precond is not None and precond.m > 0
        self._groups, self._carried, self._used, self._base = {}, {}, {}, (0, 0)
        self._store = store
        self._lock = threading.RLock()
        if previous is not None:
            self._carry(previous)

    def _carry(self, previous):
        """Take over the groups of ``previous`` and grow those it handed out."""
        r0, k0 = previous.r, previous.k
        if (previous.model is not self.model or previous.precond is not self.precond
                or not np.array_equal(previous.Vc, self.Vc[:, :r0])
                or not np.array_equal(previous.WQc, self.WQc[:, :k0])):
            raise ValueError("the spaces of this cache do not extend those of previous")
        with previous._lock:
            self._carried, previous._groups = previous._groups, {}
            used = list(previous._used)
        if self._precond_w and not previous._precond_w:
            # the test space was V and is W(xi) now: its blocks start anew
            for name in ("WAV", "Wb"):
                self._carried.pop(name, None)
        self._base = (r0, k0)
        for name in used:
            self._get(name)
        self._carried, self._used = {}, {}

    def _get(self, name):
        """The block group ``name``, built on first use."""
        if self._spd:
            name = _SPD_ALIASES.get(name, name)
        self._used[name] = None
        group = self._groups.get(name)
        if group is None:
            with self._lock:
                group = self._groups.get(name)
                if group is None:
                    group = (self._read(name)
                             if self._store is not None and name in self._store.groups
                             else _GROUPS[name](self, self._get, self._carried.pop(name, None)))
                    self._groups[name] = group
        return group

    def _read(self, name):
        """The stored group ``name``, refused unless it holds a block of the
        spaces' dimensions per term of its forms."""
        spec, stack = self._store.groups[name], self._store.read(name)
        kind, names = spec["kind"], spec["names"]
        if kind == "basis":
            return Basis.of_columns(self.model.deferred_gram_v0, stack, name)
        counts = [1 if f == "1" else getattr(self.precond, "m", 0) if f == "lam"
                  else getattr(self.model, f).nterms for f in names]
        terms = counts[0] * (counts[0] + 1) // 2 if kind == "gram" else np.prod(counts)
        # 1 is the width of a right-hand side; p, which reads T, is asked last
        if stack.ndim != 3 or len(stack) != terms or not all(
                d in (1, self.r, self.k, self.model.l) or d == self.p for d in stack.shape[1:]):
            raise GoromError(f"{self._store.path} holds a {name} of shape {stack.shape}, not "
                             f"{terms} blocks of the spaces; re-run gorom offline")
        if kind == "gram":
            return _Gram(names[0], stack, counts[0])
        return _Affine(names, (0, 0, stack))

    def save(self, path, ids):
        """Write the reduced-size groups this cache built, and T when it
        built T, to the npz file ``path``, recording ``ids``, the identity
        of the spaces and model they belong to, and on a coercive-affine spd
        model the deviation of R_V0 from A(xi_ref) (see :class:`BlockStore`)."""
        kinds = {cls: kind for kind, cls in _KINDS.items()}
        groups = {name: group for name, group in self._groups.items()
                  if name in _REDUCED or name == "T"}
        meta = {"ids": ids, "groups": {name: {"kind": kinds[type(group)],
                                              "names": list(getattr(group, "names", ()))}
                                       for name, group in groups.items()}}
        if self._spd and self.model.coercive_affine:
            meta["v0_ref_deviation"] = self.model.v0_ref_deviation
        write_arrays(path, {name: group.columns if name == "T" else group.stack
                            for name, group in groups.items()}, meta)

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
            # solution carries the DirectBlocks at xi, which its estimate reads,
            # and they share theta and the weights W was built from
            T = union_basis([blocks.Ys, self.WQc], gram=self.model.gram_v0, name="T")
            blocks = DirectBlocks(self.model, xi, V=self.Vc, T=T, theta=blocks._theta)
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
        """|| b(xi) - A(xi) V U || in the R_V0 dual norm, via cached blocks,
        for the coefficient vector U over V (empty when V is)."""
        return self.at(xi).primal_residual_norm(U)

    def residual_vector(self, xi, U):
        """b(xi) - A(xi) V U as a full-order vector."""
        return self.at(xi).residual(self.Vc @ U)

    def min_residual_over_T(self, xi):
        """min over t in T of || A(xi) t - b(xi) || in the R_V0 dual norm."""
        return self.at(xi).min_residual_over_T()

    def saddle_corrected_point(self, xi, est):
        """The saddle point of a saddle solution ``est`` at xi."""
        return est.blocks.point(est)

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
