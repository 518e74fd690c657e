"""Interpolated approximate inverses of the parameter-dependent operator.

P_m(xi) = sum_i lambda_i(xi) A(xi_i)^{-1} interpolates the operator inverse
from factorizations stored at m parameter points.  The coefficients are
fitted per evaluation point by minimizing the sketched Frobenius residual

    || sum_i lambda_i A(xi_i)^{-1} A(xi) Omega - Omega ||_F,

with Omega a seeded Gaussian sketch of s columns, optionally under the
constraint lambda >= 0 (Lawson-Hanson NNLS).  With the sketch blocks
B_ik = A(xi_i)^{-1} A^(k) Omega and A(xi) = sum_k theta_k(xi) A^(k), the
normal equations are affine in theta (Zahm & Nouy 2016):

    G_ij = sum_kk' theta_k theta_k' <B_ik, B_jk'>,   h_i = sum_k theta_k <B_ik, Omega>.

``add_point`` extends the parameter-independent tensors ``gram`` and ``h``
once per point, so a coefficient fit costs O(m^2 Q^2) plus one m x m solve
and never touches an n-sized array.  ``apply`` and ``apply_adjoint`` take
the fitted weights, so a caller fits once per point and applies as often as
it needs.  Only the sketched objective and ``add_point`` read the blocks
themselves, and Omega and the images A^(k) Omega are made on first use,
so a fit reads no operator term.  An interpolant loaded with
:meth:`from_dict` factorizes its points on the first read of
``factorizations`` (``apply``, ``apply_adjoint``, the test-space images)
and solves the blocks again on their first read.

With no points, P_0 = R_V0^{-1} by convention, which turns the derived
test space back into the trial space (standard Galerkin), the
preconditioned residual norm into the plain R_V0 dual norm and the sketched
objective into || R_V0^{-1} A(xi) Omega - Omega ||_F.
"""

import numpy as np
import scipy.linalg as la

from ._linalg import SpdFactor
from .affine import Deferred
from .exceptions import GoromError

__all__ = ["InverseInterpolant"]


class InverseInterpolant:
    """Growable interpolation of A(xi)^{-1} with in-memory factorizations
    and a sketch of ``sketch_size`` columns drawn from ``seed`` on first use."""

    def __init__(self, model, sketch_size=400, seed=13, positivity=True):
        self.model = model
        self.s = int(min(sketch_size, model.n))
        self.seed = int(seed)
        self.positivity = bool(positivity)
        self.points = []
        # one factorization per point, made on first read after from_dict
        self._factorizations = Deferred(list)
        q = model.A.nterms
        # gram[i, j, k, k'] = <B_ik, B_jk'> and h[i, k] = <B_ik, Omega>
        self.gram = np.zeros((0, 0, q, q))
        self.h = np.zeros((0, q))
        # stacks[i][k] = B_ik = A(xi_i)^{-1} A^(k) Omega, one (Q, n, s) array
        # per point; None until first read after from_dict
        self._stacks = []
        s, seed = self.s, self.seed

        def draw():  # Omega and the images A_k Omega, on first use
            omega = np.random.default_rng(seed).standard_normal((model.n, s))
            return omega, [np.asarray(term @ omega) for _, term in model.A.terms]
        sketch = self._sketch = Deferred(draw)
        self._riesz_images = Deferred(lambda: [model.riesz_v0(img)
                                               for img in sketch.get()[1]])

    @property
    def m(self):
        return len(self.points)

    @property
    def omega(self):
        """The seeded n x s Gaussian sketch, drawn on first use."""
        return self._sketch.get()[0]

    @property
    def factorizations(self):
        """The factorizations of A at the stored points, made on first read
        after :meth:`from_dict`."""
        return self._factorizations.get()

    @property
    def memory_bytes(self):
        """Rough footprint of factorizations, tensors and built sketch blocks
        (factorizes the stored points if that has not happened yet)."""
        total = self.omega.nbytes + self.gram.nbytes + self.h.nbytes
        total += sum(f.nbytes for f in self.factorizations)
        total += sum(b.nbytes for b in self._stacks or ())
        return total

    @property
    def _blocks(self):
        """The per-point sketch blocks, solved again after a load if needed."""
        if self._stacks is None:
            self._stacks = [self._solve_images(f) for f in self.factorizations]
        return self._stacks

    def _solve_images(self, fact):
        omega, images = self._sketch.get()
        B = np.empty((len(images),) + omega.shape)
        for k, img in enumerate(images):
            B[k] = fact.solve(img)
        return B

    def add_point(self, xi, factorization=None):
        """Store a new interpolation point; returns False for duplicates."""
        xi = np.asarray(xi, dtype=float)
        for known in self.points:
            if np.all(np.abs(known - xi) <= 1e-12):
                return False
        fact = factorization if factorization is not None \
            else self.model.factorize_operator(xi)
        B = self._solve_images(fact)
        stacks, m, q = self._blocks, self.m, len(B)
        flat = B.reshape(q, -1)
        gram = np.empty((m + 1, m + 1, q, q))
        gram[:m, :m] = self.gram
        for j, Bj in enumerate(stacks):
            gram[m, j] = flat @ Bj.reshape(q, -1).T
            gram[j, m] = gram[m, j].T
        own = flat @ flat.T
        gram[m, m] = np.triu(own) + np.triu(own, 1).T
        self.gram = gram
        self.h = np.vstack([self.h, flat @ self.omega.ravel()])
        self.points.append(xi)
        self.factorizations.append(fact)
        stacks.append(B)
        return True

    def _sketched_images_at(self, xi):
        """M_i = P_i A(xi) Omega for every stored point, from the blocks."""
        thetas = self.model.A.coefficients_at(xi)
        return [
            sum(t * blk for t, blk in zip(thetas, blocks))
            for blocks in self._blocks
        ]

    def coefficients(self, xi):
        """Fitted interpolation weights at xi (empty array when m = 0)."""
        return self.fit(self.model.A.coefficients_at(xi))

    def fit(self, thetas):
        """Interpolation weights at a point whose operator coefficients
        theta_k are ``thetas`` (empty array when m = 0).  One checked factor
        G = R^T R serves both settings: G lambda = h, or with positivity NNLS
        on || R lambda - R^{-T} h ||.  A G singular to working precision
        raises the ReducedSolveError of the "interpolation weight system"."""
        if self.m == 0:
            return np.zeros(0)
        G = self.gram @ thetas @ thetas
        h = self.h @ thetas
        factor = SpdFactor(G, "interpolation weight system")
        if not self.positivity:
            return factor.solve(h)
        from scipy.optimize import nnls  # a slow import only this branch needs
        R = factor.U
        lam, _ = nnls(R, la.solve_triangular(R, h, trans="T"))
        return lam

    def sketched_objective(self, xi, lam=None):
        """|| (P_m(xi) A(xi) - I) Omega ||_F at the weights ``lam``, by default
        those fitted at xi; with no points, P_0 = R_V0^{-1}."""
        if self.m == 0:
            thetas = self.model.A.coefficients_at(xi)
            acc = sum(t * img for t, img in zip(thetas, self._riesz_images.get()))
        else:
            lam = self.coefficients(xi) if lam is None else lam
            acc = sum(li * Mi for li, Mi in zip(lam, self._sketched_images_at(xi)))
        return float(np.linalg.norm(acc - self.omega))

    def add_greedy_points(self, candidates, count):
        """Grow the interpolant where its sketched residual is largest.

        At each of ``count`` rounds the candidate maximizing
        :meth:`sketched_objective` is factorized and added (nested point
        sets; deterministic given the candidate order).  Returns the
        points actually added.
        """
        candidates = np.asarray(candidates, dtype=float)
        added = []
        for _ in range(count):
            vals = [self.sketched_objective(xi) for xi in candidates]
            xi = candidates[int(np.argmax(vals))]
            if not self.add_point(xi):
                break
            added.append(xi)
        return added

    def apply(self, lam, X):
        """P_m(xi) applied to dual vectors X, at the weights ``lam`` fitted at
        xi (:meth:`coefficients`); m = 0 gives R_V0^{-1} X."""
        X = np.asarray(X, dtype=float)
        if self.m == 0:
            return self.model.riesz_v0(X)
        return sum(li * f.solve(X) for li, f in zip(lam, self.factorizations))

    def apply_adjoint(self, lam, X):
        """P_m(xi)^* applied to dual vectors X, at the weights ``lam``;
        m = 0 gives R_V0^{-1} X."""
        X = np.asarray(X, dtype=float)
        if self.m == 0:
            return self.model.riesz_v0(X)
        return sum(li * f.solve(X, transpose=True)
                   for li, f in zip(lam, self.factorizations))

    def to_dict(self):
        return {
            "sketch_size": self.s,
            "seed": self.seed,
            "positivity": self.positivity,
            "points": [p.tolist() for p in self.points],
            "gram": self.gram.tolist(),
            "h": self.h.tolist(),
        }

    @classmethod
    def from_dict(cls, model, d, where="interpolant record"):
        """Rebuild from :meth:`to_dict` output without any factorization or
        sketch solve.

        The fit reads the stored tensors; the stored points are factorized
        again on the first read of ``factorizations``.  Raises GoromError,
        naming ``where``, on a record that lacks a field, whose sketch size,
        seed or positivity is not a positive integer, a non-negative integer
        and a boolean, has shapes that do not fit its points and the model's
        operator terms, or holds non-finite numbers.
        """
        missing = [key for key in ("sketch_size", "seed", "positivity", "points",
                                   "gram", "h") if key not in d]
        if missing:
            raise GoromError(f"{where} lacks {', '.join(missing)} "
                             "(older format); re-run gorom offline")
        s, seed, positivity = d["sketch_size"], d["seed"], d["positivity"]
        if not (type(s) is int and s >= 1 and type(seed) is int and seed >= 0
                and type(positivity) is bool):
            raise GoromError(f"{where}: sketch_size must be a positive integer, seed a "
                             "non-negative integer and positivity a boolean; "
                             "re-run gorom offline")
        # points that are no list have no count; their shape check refuses them
        m, q = len(d["points"]) if isinstance(d["points"], list) else 0, model.A.nterms
        points = _checked_array(d, "points", (m, model.d), where)
        gram = _checked_array(d, "gram", (m, m, q, q), where)
        h = _checked_array(d, "h", (m, q), where)
        P = cls(model, s, seed, positivity)
        P.points = list(points)
        P.gram, P.h = gram, h
        P._factorizations = Deferred(lambda: [model.factorize_operator(xi)
                                              for xi in points])
        P._stacks = None
        return P


def _checked_array(d, key, shape, where):
    try:
        a = np.array(d[key], dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is not None and a.size == 0 and 0 in shape:
        a = a.reshape(shape)
    if a is None or a.shape != shape:
        raise GoromError(f"{where}: {key} does not have shape {shape}; "
                         "re-run gorom offline")
    if not np.all(np.isfinite(a)):
        raise GoromError(f"{where}: {key} holds non-finite entries; "
                         "re-run gorom offline")
    return a
