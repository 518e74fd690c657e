"""Orthonormal reduced bases and their sums.

Every basis is orthonormal with respect to one fixed SPD Gram matrix
(in practice the parameter-independent R_V0); parameter-dependent norms
enter the projectors, never the stored bases.  Appends run classical
Gram-Schmidt twice and reject vectors whose deflated norm falls below
``tol_rank`` times the incoming norm, which keeps reduced systems
well conditioned.
"""

import json
from pathlib import Path

import numpy as np
from scipy.io import mmread, mmwrite

from .exceptions import GoromError

__all__ = ["Basis", "union_basis"]

DEFAULT_TOL_RANK = 1e-10


class Basis:
    """Append-only matrix of G-orthonormal columns spanning a reduced space."""

    def __init__(self, gram, n=None, tol_rank=DEFAULT_TOL_RANK, name=""):
        self.gram = gram
        if n is None:
            n = gram.shape[0]
        self._cols = np.zeros((n, 0))
        self.tol_rank = float(tol_rank)
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
        out = Basis(self.gram, self.n, self.tol_rank, self.name)
        out._cols = self._cols.copy()
        return out

    def _gdot(self, x):
        return self.gram @ x

    def gram_norm(self, v):
        return float(np.sqrt(max(v @ self._gdot(v), 0.0)))

    def project_coeffs(self, v):
        """Coefficients of the G-orthogonal projection onto the span."""
        return self._cols.T @ self._gdot(v)

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
            if self.dim:
                w -= self._cols @ (self._cols.T @ self._gdot(w))
        norm_out = self.gram_norm(w)
        if norm_out <= self.tol_rank * norm_in:
            return False
        self._cols = np.column_stack([self._cols, w / norm_out])
        return True

    def extend(self, M):
        """Append the columns of M in order; returns the number accepted."""
        M = np.asarray(M, dtype=float)
        if M.ndim == 1:
            M = M[:, None]
        return sum(int(self.append(col)) for col in M.T)

    # -- persistence -----------------------------------------------------

    def save(self, path, gram_id="R_V0"):
        """Write columns as a MatrixMarket array plus a JSON manifest."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        mmwrite(str(path), self._cols if self.dim else np.zeros((self.n, 0)),
                precision=17)
        manifest = {
            "name": self.name,
            "n": int(self.n),
            "dim": int(self.dim),
            "gram": gram_id,
            "tol_rank": self.tol_rank,
        }
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path, gram):
        path = Path(path)
        with open(path.with_suffix(".json")) as fh:
            manifest = json.load(fh)
        basis = cls(gram, manifest["n"], manifest["tol_rank"], manifest.get("name", ""))
        if basis.n != gram.shape[0]:
            raise GoromError(f"{path} holds vectors of size {basis.n}, not the "
                             f"{gram.shape[0]} of this model; re-run gorom offline")
        cols = np.asarray(mmread(str(path)), dtype=float)
        if cols.shape != (basis.n, manifest["dim"]) or not np.all(np.isfinite(cols)):
            raise GoromError(f"{path} does not hold {basis.n} x {manifest['dim']} finite "
                             "entries as its manifest says; re-run gorom offline")
        basis._cols = cols
        return basis

    def __repr__(self):
        return f"Basis(name={self.name!r}, n={self.n}, dim={self.dim})"


def union_basis(parts, gram=None, tol_rank=DEFAULT_TOL_RANK, name=""):
    """Orthonormal basis of the sum of spaces.

    ``parts`` is a sequence of Basis instances or column matrices; columns
    are appended in the given order with deflation of dependent directions.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        raise ValueError("union_basis needs at least one part")
    if gram is None:
        for p in parts:
            if isinstance(p, Basis):
                gram = p.gram
                break
    if gram is None:
        raise ValueError("union_basis needs a Gram matrix")
    first = parts[0]
    n = first.n if isinstance(first, Basis) else np.asarray(first).shape[0]
    out = Basis(gram, n, tol_rank, name=name)
    for p in parts:
        cols = p.columns if isinstance(p, Basis) else np.asarray(p, dtype=float)
        if cols.ndim == 1:
            cols = cols[:, None]
        out.extend(cols)
    return out
