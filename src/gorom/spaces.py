"""Orthonormal reduced bases and their sums.

Every basis is orthonormal with respect to one fixed SPD Gram matrix
(in practice the parameter-independent R_V0); parameter-dependent norms
enter the projectors, never the stored bases.  Appends run classical
Gram-Schmidt twice and reject vectors whose deflated norm falls below
``TOL_RANK`` times the incoming norm.  The threshold is one module
constant, so every basis and every sum of bases deflate alike; a reduced
system that is still near singular is refused by its checked factor (see
:mod:`gorom._linalg`).
"""

from pathlib import Path

import numpy as np

from ._linalg import as_columns, dense
from .bundle import read_json, read_matrix, write_json, write_matrix
from .exceptions import GoromError

__all__ = ["Basis", "union_basis"]

TOL_RANK = 1e-10


class Basis:
    """Append-only matrix of G-orthonormal columns spanning a reduced space;
    a :class:`~gorom.affine.Deferred` G is read on its first product."""

    def __init__(self, gram, n=None, name=""):
        self.gram = gram
        if n is None:
            n = gram.shape[0]
        self._cols = np.zeros((n, 0))
        self.name = name

    @property
    def n(self):
        return self._cols.shape[0]

    @property
    def dim(self):
        return self._cols.shape[1]

    @property
    def columns(self):
        """Read-only view of the current columns."""
        view = self._cols.view()
        view.setflags(write=False)
        return view

    def copy(self):
        out = Basis(self.gram, self.n, self.name)
        out._cols = self._cols.copy()
        return out

    def gram_norm(self, v):
        return float(np.sqrt(max(v @ (self.gram @ v), 0.0)))

    def project_coeffs(self, v):
        """Coefficients of the G-orthogonal projection onto the span."""
        return self._cols.T @ (self.gram @ v)

    def append(self, v):
        """Gram-Schmidt append; returns True if a column was accepted."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("cannot append a non-finite vector")
        norm_in = self.gram_norm(v)
        if norm_in == 0.0:
            return False
        w = v.copy()
        for _ in range(2):
            w -= self._cols @ (self._cols.T @ (self.gram @ w))
        norm_out = self.gram_norm(w)
        if norm_out <= TOL_RANK * norm_in:
            return False
        self._cols = np.column_stack([self._cols, w / norm_out])
        return True

    def extend(self, M):
        """Append the columns of M in order; returns the number accepted."""
        return sum(int(self.append(col)) for col in as_columns(M).T)

    # -- persistence -----------------------------------------------------

    def save(self, path):
        """Write columns as a MatrixMarket array plus a JSON manifest."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_matrix(path, self._cols)
        write_json(path.with_suffix(".json"), {"name": self.name, "n": int(self.n),
                                               "dim": int(self.dim), "gram": "R_V0"})

    @classmethod
    def of_columns(cls, gram, cols, name=""):
        """The basis whose columns are ``cols``, G-orthonormal already, as
        they are: saved, or built by another basis."""
        basis = cls(gram, cols.shape[0], name)
        basis._cols = cols
        return basis

    @classmethod
    def load(cls, path, gram):
        """Read a basis written by :meth:`save`.  Manifest keys it does not
        read, such as the rank tolerance of older manifests, are ignored."""
        path = Path(path)
        manifest = read_json(path.with_suffix(".json"), fields={"n": int, "dim": int})
        n, dim = manifest["n"], manifest["dim"]
        if n != gram.shape[0]:
            raise GoromError(f"{path} holds vectors of size {n}, not the "
                             f"{gram.shape[0]} of this model; re-run gorom offline")
        cols = dense(read_matrix(path))
        if cols.shape != (n, dim) or not np.all(np.isfinite(cols)):
            raise GoromError(f"{path} does not hold {n} x {dim} finite "
                             "entries as its manifest says; re-run gorom offline")
        return cls.of_columns(gram, cols, manifest.get("name", ""))

    def __repr__(self):
        return f"Basis(name={self.name!r}, n={self.n}, dim={self.dim})"


def union_basis(parts, gram, name=""):
    """``gram``-orthonormal basis of the sum of spaces.

    ``parts`` is a sequence of Basis instances or column matrices; columns
    are appended in the given order with deflation of dependent directions.
    """
    parts = [as_columns(p) for p in parts if p is not None]
    if not parts:
        raise ValueError("union_basis needs at least one part")
    out = Basis(gram, parts[0].shape[0], name=name)
    for cols in parts:
        out.extend(cols)
    return out
