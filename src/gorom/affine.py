"""Affine parameter-dependent forms and parameter domains.

An affine form is a sum of parameter-coefficient times constant-term pairs,

    F(xi) = sum_k theta_k(xi) * F_k,

where each ``F_k`` is a constant sparse matrix or dense vector and each
``theta_k`` is a scalar coefficient function of the parameter.  This is the
structure that makes offline/online splitting possible: every reduced block
is precomputed per term and recombined online with the scalars theta_k(xi).
"""

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError

__all__ = ["ParameterDomain", "CoefficientFn", "AffineForm", "assemble"]


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
    numpy arrays (right-hand sides).  At least one term is required.
    """

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("an affine form needs at least one term")
        normalized = []
        shape = None
        for coeff, term in terms:
            if not isinstance(coeff, CoefficientFn):
                raise TypeError("coefficients must be CoefficientFn instances")
            if sp.issparse(term):
                term = term.tocsr()
            else:
                term = np.asarray(term, dtype=float)
                if term.ndim not in (1, 2):
                    raise ValueError("dense terms must be 1-d or 2-d")
            if shape is None:
                shape = term.shape
            elif term.shape != shape:
                raise ValueError(f"term shape {term.shape} != {shape}")
            normalized.append((coeff, term))
        self.terms = tuple(normalized)
        self.shape = shape

    @property
    def nterms(self):
        return len(self.terms)

    def coefficients_at(self, xi):
        """Evaluate all theta_k(xi), returned as a float array."""
        return np.array([coeff(xi) for coeff, _ in self.terms])

    def __call__(self, xi):
        thetas = self.coefficients_at(xi)
        acc = thetas[0] * self.terms[0][1]
        for theta, (_, term) in zip(thetas[1:], (t for t in self.terms[1:])):
            acc = acc + theta * term
        return acc

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
