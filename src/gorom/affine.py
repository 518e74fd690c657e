"""Affine parameter-dependent forms and parameter domains.

An affine form is a sum of parameter-coefficient times constant-term pairs,

    F(xi) = sum_k theta_k(xi) * F_k,

where each ``F_k`` is a constant sparse matrix or dense vector and each
``theta_k`` is a scalar coefficient function of the parameter.  This is the
structure that makes offline/online splitting possible: every reduced block
is precomputed per term and recombined online with the scalars theta_k(xi).
"""

import threading

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError

__all__ = ["ParameterDomain", "CoefficientFn", "Deferred", "AffineForm", "assemble"]


class Deferred:
    """The value ``load()`` makes on the first :meth:`get`, once, also when
    pool threads ask together.  A matrix of known ``shape``, in place of a
    Gram matrix, applies itself with ``@``.  A ``load`` that refers to the
    Deferred's owner would keep the owner alive in a cycle until it runs."""

    def __init__(self, load, shape=None):
        self._load, self.shape, self._lock = load, shape, threading.Lock()

    def get(self):
        if self._load is not None:
            with self._lock:
                if self._load is not None:
                    self._value, self._load = self._load(), None
        return self._value

    def __matmul__(self, X):
        return self.get() @ X


class ParameterDomain:
    """Box-shaped parameter set with per-component linear or logarithmic scale.

    Parameters
    ----------
    lo, hi : array_like, shape (d,)
        Component-wise bounds, lo[j] < hi[j].
    scale : sequence of {"linear", "log"}, optional
        Sampling scale per component.  Defaults to all-linear.
        Logarithmic components require lo[j] > 0.
    """

    def __init__(self, lo, hi, scale=None):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length >= 1")
        if not np.all(lo < hi):
            raise ValueError("each component must satisfy lo < hi")
        if scale is None:
            scale = ("linear",) * lo.size
        scale = tuple(scale)
        if len(scale) != lo.size:
            raise ValueError("scale must have one entry per component")
        for s, low in zip(scale, lo):
            if s not in ("linear", "log"):
                raise ValueError(f"unknown scale {s!r}")
            if s == "log" and low <= 0.0:
                raise ValueError("logarithmic scale requires lo > 0")
        self.lo = lo
        self.hi = hi
        self.scale = scale
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def dim(self):
        return self.lo.size

    def contains(self, xi, rtol=1e-12):
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim,):
            return False
        slack = rtol * (self.hi - self.lo)
        return bool(((xi >= self.lo - slack) & (xi <= self.hi + slack)).all())

    def require(self, xi):
        """Raise :class:`DomainError` if ``xi`` is outside the box."""
        if not self.contains(xi):
            raise DomainError(
                f"parameter {np.asarray(xi)} outside domain "
                f"[{self.lo}, {self.hi}]"
            )

    def sample(self, count, rng):
        """Draw ``count`` points, uniform per component on its declared scale.

        Returns an array of shape (count, d), deterministic given ``rng``.
        """
        out = np.empty((count, self.dim))
        for j in range(self.dim):
            u = rng.uniform(size=count)
            if self.scale[j] == "log":
                out[:, j] = np.exp(
                    np.log(self.lo[j]) + u * (np.log(self.hi[j]) - np.log(self.lo[j]))
                )
            else:
                out[:, j] = self.lo[j] + u * (self.hi[j] - self.lo[j])
        return out

    def to_dict(self):
        return {
            "dim": int(self.dim),
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "scale": list(self.scale),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["lo"], d["hi"], d.get("scale"))

    def __repr__(self):
        return f"ParameterDomain(lo={self.lo.tolist()}, hi={self.hi.tolist()}, scale={self.scale})"


class CoefficientFn:
    """Scalar coefficient theta(xi): a constant, or a monomial c * prod xi_j^p_j."""

    __slots__ = ("kind", "c", "exponents")

    def __init__(self, kind, c=1.0, exponents=None):
        if kind not in ("constant", "monomial"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        self.kind = kind
        self.c = float(c)
        if kind == "monomial":
            if exponents is None:
                raise ValueError("monomial coefficient needs exponents")
            self.exponents = np.asarray(exponents, dtype=int)
        else:
            self.exponents = None

    @classmethod
    def constant(cls, c=1.0):
        return cls("constant", c)

    @classmethod
    def monomial(cls, c, exponents):
        return cls("monomial", c, exponents)

    @classmethod
    def component(cls, j, d):
        """theta(xi) = xi_j (a degree-one monomial in component j of d)."""
        p = np.zeros(d, dtype=int)
        p[j] = 1
        return cls("monomial", 1.0, p)

    def __call__(self, xi):
        if self.kind == "constant":
            return self.c
        xi = np.asarray(xi, dtype=float)
        return self.c * float(np.prod(xi ** self.exponents))

    def to_dict(self):
        d = {"kind": self.kind, "c": self.c}
        if self.kind == "monomial":
            d["exponents"] = self.exponents.tolist()
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], d["c"], d.get("exponents"))

    def __repr__(self):
        if self.kind == "constant":
            return f"CoefficientFn.constant({self.c})"
        return f"CoefficientFn.monomial({self.c}, {self.exponents.tolist()})"


class AffineForm:
    """Sum of coefficient-times-constant-term pairs, sharing one shape.

    Terms may be scipy sparse matrices (operators, output maps) or 1-d
    numpy arrays (right-hand sides).  At least one term is required.  Terms
    given as :class:`Deferred` are all read on the first read of ``terms``;
    the shape, the term count and the coefficients need none of them.

    A form of several sparse terms is assembled on the union of their
    sparsity patterns, computed on the first assembly: each term's entries
    are added into that pattern in term order and exact zeros are dropped,
    which gives the CSR matrix of the term-by-term scipy sum bit for bit.
    """

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("an affine form needs at least one term")
        if not all(isinstance(coeff, CoefficientFn) for coeff, _ in terms):
            raise TypeError("coefficients must be CoefficientFn instances")
        self._sources, self.shape = terms, np.shape(terms[0][1])
        # all coefficients as arrays: c_k and, for monomials, the exponent rows
        # (a constant's row is zero, and xi^0 = 1 leaves c_k exact)
        coeffs = [coeff for coeff, _ in terms]
        self._c = np.array([coeff.c for coeff in coeffs])
        d = next((len(c.exponents) for c in coeffs if c.kind == "monomial"), 0)
        self._exponents = np.array([np.zeros(d, dtype=int) if c.kind == "constant"
                                    else c.exponents for c in coeffs]) if d else None
        self._union, self._check, self._terms = None, None, Deferred(self._load)
        if not any(isinstance(term, Deferred) for _, term in terms):
            self._terms.get()

    @property
    def terms(self):
        """The (coefficient, term) pairs, all read on the first read."""
        return self._terms.get()

    def _load(self):
        normalized = []
        for k, (coeff, term) in enumerate(self._sources):
            term = term.get() if isinstance(term, Deferred) else term
            if sp.issparse(term):
                term = term.tocsr()
                if not term.has_canonical_format:
                    term = term.copy()
                    term.sum_duplicates()
            else:
                term = np.asarray(term, dtype=float)
                if term.ndim not in (1, 2):
                    raise ValueError("dense terms must be 1-d or 2-d")
            if term.shape != self.shape:
                raise ValueError(f"term shape {term.shape} != {self.shape}")
            if self._check is not None:
                self._check(k, term)
            normalized.append((coeff, term))
        self._on_pattern = len(normalized) > 1 and all(sp.issparse(t) for _, t in normalized)
        self._sources = None
        return tuple(normalized)

    def check_terms(self, check):
        """Run ``check(k, term_k)`` on every term as the terms are read: now
        for terms in memory."""
        self._check = check
        for k, (_, term) in enumerate(() if self._sources else self.terms):
            check(k, term)

    def _union_pattern(self):
        """The CSR pattern (indices, indptr) of the sum of the terms, and the
        positions of each term's entries in it."""
        ones = [sp.csr_matrix((np.ones(term.nnz), term.indices, term.indptr), shape=self.shape)
                for _, term in self.terms]
        union = sum(ones[1:], ones[0])  # of positive entries: none cancels
        union.sort_indices()

        def keys(M):  # row-major position of each stored entry
            return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) * M.shape[1] + M.indices

        ukeys = keys(union)
        return union.indices, union.indptr, [np.searchsorted(ukeys, keys(M)) for M in ones]

    @property
    def nterms(self):
        return len(self._c)

    def coefficients_at(self, xi):
        """Evaluate all theta_k(xi), returned as a float array."""
        if self._exponents is None:
            return self._c.copy()
        xi = np.asarray(xi, dtype=float)
        return self._c * np.prod(xi ** self._exponents, axis=1)

    def __call__(self, xi):
        thetas, terms = self.coefficients_at(xi), self.terms
        if self._on_pattern:
            return self._on_union(thetas)
        acc = thetas[0] * terms[0][1]
        for theta, (_, term) in zip(thetas[1:], terms[1:]):
            acc = acc + theta * term
        return acc

    def _on_union(self, thetas):
        if self._union is None:
            self._union = self._union_pattern()
        indices, indptr, positions = self._union
        data = np.zeros(len(indices))
        for theta, pos, (_, term) in zip(thetas, positions, self.terms):
            data[pos] += theta * term.data
        keep = data != 0.0
        if not keep.all():
            data, indices = data[keep], indices[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(indptr.dtype)
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=self.shape)

    def __add__(self, other):
        if not isinstance(other, AffineForm):
            return NotImplemented
        return AffineForm(list(self.terms) + list(other.terms))

    def __repr__(self):
        return f"AffineForm({self.nterms} terms, shape={self.shape})"


def assemble(form, xi, domain=None):
    """Assemble ``sum_k theta_k(xi) * term_k``.

    If ``domain`` is given, ``xi`` is checked against it first and a
    :class:`DomainError` is raised for points outside.
    """
    if domain is not None:
        domain.require(xi)
    return form(xi)
