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
and never touches an n-sized array.  Only the sketched objective and
``add_point`` read the blocks themselves.  An interpolant loaded with
:meth:`from_dict` factorizes its points on the first read of
``factorizations`` (``apply``, ``apply_adjoint``, the test-space images) and
solves the blocks again on their first read.

With no points, P_0 = R_V0^{-1} by convention, which turns the derived
test space back into the trial space (standard Galerkin) and the
preconditioned residual norm into the plain R_V0 dual norm.
"""

import threading

import numpy as np
import scipy.linalg as la
from scipy.optimize import nnls

from ._linalg import SpdFactor
from .exceptions import GoromError

__all__ = ["InverseInterpolant"]


class InverseInterpolant:
    """Growable interpolation of A(xi)^{-1} with in-memory factorizations."""

    def __init__(self, model, sketch_size=400, seed=13, positivity=True):
        self.model = model
        self.s = int(min(sketch_size, model.n))
        self.seed = int(seed)
        self.positivity = bool(positivity)
        rng = np.random.default_rng(self.seed)
        self.omega = rng.standard_normal((model.n, self.s))
        self.points = []
        # one factorization per point; None until first read after from_dict
        self._factorizations = []
        self._lock = threading.Lock()
        q = len(model.A.terms)
        # gram[i, j, k, k'] = <B_ik, B_jk'> and h[i, k] = <B_ik, Omega>
        self.gram = np.zeros((0, 0, q, q))
        self.h = np.zeros((0, q))
        # stacks[i][k] = B_ik = A(xi_i)^{-1} A^(k) Omega, one (Q, n, s) array
        # per point; None until first read after from_dict
        self._stacks = []
        self._sketch_images = _term_images(model, self.omega)
        self._riesz_images = None

    @property
    def m(self):
        return len(self.points)

    @property
    def factorizations(self):
        """The factorizations of A at the stored points, made on first read
        after :meth:`from_dict`."""
        if self._factorizations is None:
            with self._lock:
                if self._factorizations is None:
                    self._factorizations = [self.model.factorize_operator(xi)
                                            for xi in self.points]
        return self._factorizations

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
        B = np.empty((len(self._sketch_images),) + self.omega.shape)
        for k, img in enumerate(self._sketch_images):
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
        theta_k are ``thetas`` (empty array when m = 0)."""
        if self.m == 0:
            return np.zeros(0)
        G = self.gram @ thetas @ thetas
        h = self.h @ thetas
        if not self.positivity:
            return SpdFactor(G).solve(h)
        # NNLS on the Cholesky square root of the normal equations
        jitter = 1e-14 * max(np.trace(G), 1.0)
        shift, R = 0.0, None
        while R is None:
            try:
                R = la.cholesky(G + shift * np.eye(self.m))
            except la.LinAlgError:
                shift = jitter if shift == 0.0 else shift * 100.0
                if shift > 1e-4 * max(np.trace(G), 1.0):
                    raise
        y = la.solve_triangular(R, h, trans="T")
        lam, _ = nnls(R, y)
        return lam

    def sketched_objective(self, xi, lam=None):
        """Frobenius norm of the sketched residual at the given weights."""
        if lam is None:
            lam = self.coefficients(xi)
        if self.m == 0:
            return float(np.linalg.norm(self.omega))
        images = self._sketched_images_at(xi)
        acc = sum(li * Mi for li, Mi in zip(lam, images)) - self.omega
        return float(np.linalg.norm(acc))

    def residual_objective(self, xi):
        """Sketched norm of (P_m(xi) A(xi) - I) Omega at the fitted weights.

        With no points yet, P_0 = R_V0^{-1} per the convention, so the
        objective is || R_V0^{-1} A(xi) Omega - Omega ||_F.
        """
        if self.m > 0:
            return self.sketched_objective(xi)
        if self._riesz_images is None:
            self._riesz_images = [self.model.riesz_v0(img)
                                  for img in self._sketch_images]
        thetas = self.model.A.coefficients_at(xi)
        M = sum(t * img for t, img in zip(thetas, self._riesz_images))
        return float(np.linalg.norm(M - self.omega))

    def add_greedy_points(self, candidates, count):
        """Grow the interpolant where its sketched residual is largest.

        At each of ``count`` rounds the candidate maximizing
        :meth:`residual_objective` is factorized and added (nested point
        sets; deterministic given the candidate order).  Returns the
        points actually added.
        """
        candidates = np.asarray(candidates, dtype=float)
        added = []
        for _ in range(count):
            vals = [self.residual_objective(xi) for xi in candidates]
            xi = candidates[int(np.argmax(vals))]
            if not self.add_point(xi):
                break
            added.append(xi)
        return added

    def apply(self, xi, X):
        """P_m(xi) applied to dual vectors X; m = 0 gives R_V0^{-1} X."""
        X = np.asarray(X, dtype=float)
        if self.m == 0:
            return self.model.riesz_v0(X)
        lam = self.coefficients(xi)
        return sum(li * f.solve(X) for li, f in zip(lam, self.factorizations))

    def apply_adjoint(self, xi, X):
        """P_m(xi)^* applied to dual vectors X; m = 0 gives R_V0^{-1} X."""
        X = np.asarray(X, dtype=float)
        if self.m == 0:
            return self.model.riesz_v0(X)
        lam = self.coefficients(xi)
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
    def from_dict(cls, model, d):
        """Rebuild from :meth:`to_dict` output without any factorization or
        sketch solve.

        The fit reads the stored tensors; the stored points are factorized
        again on the first read of ``factorizations``.  Raises GoromError on
        a record that lacks a field, has shapes that do not fit its points
        and the model's operator terms, or holds non-finite numbers.
        """
        missing = [key for key in ("sketch_size", "seed", "positivity", "points",
                                   "gram", "h") if key not in d]
        if missing:
            raise GoromError(f"interpolant record lacks {', '.join(missing)} "
                             "(older format); re-run gorom offline")
        m, q = len(d["points"]), len(model.A.terms)
        points = _checked_array(d, "points", (m, model.d))
        gram = _checked_array(d, "gram", (m, m, q, q))
        h = _checked_array(d, "h", (m, q))
        P = cls(model, d["sketch_size"], d["seed"], d["positivity"])
        P.points = list(points)
        P.gram, P.h = gram, h
        P._factorizations = None
        P._stacks = None
        return P


def _checked_array(d, key, shape):
    try:
        a = np.array(d[key], dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is not None and a.size == 0 and 0 in shape:
        a = a.reshape(shape)
    if a is None or a.shape != shape:
        raise GoromError(f"interpolant record: {key} does not have shape {shape}; "
                         "re-run gorom offline")
    if not np.all(np.isfinite(a)):
        raise GoromError(f"interpolant record: {key} holds non-finite entries; "
                         "re-run gorom offline")
    return a


def _term_images(model, omega):
    return [np.asarray(term @ omega) for _, term in model.A.terms]
