"""Quasi-optimality and goal-oriented constants.

All three quantities reduce to small dense symmetric (generalized)
eigenproblems after projecting onto the given bases:

* ``delta_VW``: how far a projection with test space S can be from the
  best approximation in V; value in [0, 1], zero iff the test space is
  ideal for V.
* ``delta_L``: worst-case dual-residual distance of the output map to
  the image of the test space under the adjoint operator.
* ``infsup_alpha``: the discrete inf-sup constant under the
  residual-induced test norm, tied to delta by alpha^2 + delta^2 = 1.

The reduced blocks at the point (A^T S, its Riesz representers, the
Grams over S and V, and the output map) are read from one
:class:`~gorom.projectors.DirectBlocks` with S as its dual space, so A(xi)
is assembled once per point, each Riesz representer is solved once, and
each reduced matrix is factored once, through the point's blocks: the
dual system S^T A S in the energy norm, K = (A^T S)^T R_V0^{-1} A^T S in
the R_V0 norm.  A test space whose reduced system is refused as
numerically singular raises :class:`DegenerateTestSpaceError`.

Each delta is evaluated from explicit residual vectors (the Gram of
``v - P v`` against the V-Gram), not from ``1 - lambda_min`` of the
projected pencil: the residual form stays accurate down to machine scale
when the constant approaches zero, where the quality statements live.
alpha is taken from the complementary pencil directly, which is the
well-conditioned side for small alpha.

These are diagnostic tools: with the energy-norm convention of spd models
they factorize A(xi) per evaluation and are therefore excluded from the
online cost accounting.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import clip_unit, eig_extreme
from .estimators import _dual_sup
from .exceptions import DegenerateTestSpaceError, ReducedSolveError
from .model import Factorization
from .projectors import DirectBlocks

__all__ = ["ConstantsReport", "delta_VW", "delta_L", "infsup_alpha",
           "compute_constants"]


@dataclass
class ConstantsReport:
    xi: np.ndarray
    delta_vw: float
    delta_l: float
    alpha: float


def _solve(d, energy, rhs, what):
    """Solve with the point's factor of S^T A S (energy norm) or K (R_V0
    norm); a refused factor means a degenerate test space."""
    try:
        return d.factor("QAQ" if energy else "KQ").solve(rhs)
    except ReducedSolveError as exc:
        raise DegenerateTestSpaceError(
            f"{what}: test space degenerate under the adjoint operator ({exc})"
        ) from exc


def _energy(model, gram):
    """Whether the state norm is the energy norm of A(xi), which is R_V."""
    return gram == "model" and model.symmetry == "spd"


def _delta_alpha(d, energy):
    """(delta_VW, alpha) of V = d.Vc with test space S = d.Qc."""
    if d.r == 0:
        return 0.0, 1.0
    if d.k == 0:
        return 1.0, 0.0
    B = d.QAV
    if energy:
        # R_V = A(xi): the supremizer map R_V^{-1} A^T S is S itself
        Z, G_V = d.Qc, d.WAV
    else:
        Z, G_V = d.XQ, d.Vc.T @ (d.model.gram_v0 @ d.Vc)
    X = _solve(d, energy, B, "delta_VW")
    resid = d.Vc - Z @ X
    Gresid = np.asarray(d.A @ resid) if energy else d.model.gram_v0 @ resid
    D = resid.T @ Gresid
    lam_d, _, _ = eig_extreme(D, G_V, largest=True)
    delta = np.sqrt(clip_unit(float(lam_d)))
    lam_a, _, _ = eig_extreme(B.T @ X, G_V, largest=False)
    alpha = np.sqrt(clip_unit(float(lam_a)))
    return float(delta), float(alpha)


def _delta_l(d, energy):
    """delta_L of the test space S = d.Qc."""
    C = d.QL if energy else d.AtQ.T @ d.zL
    Dres = d.Ld.T - d.AtQ @ _solve(d, energy, C, "delta_L")
    if energy:
        G = Dres.T @ Factorization(d.A, spd=True).solve(Dres)
    else:
        G = Dres.T @ d.model.riesz_v0(Dres)
    return _dual_sup(d.model, G)


def delta_VW(model, xi, V, S, gram="model"):
    """Quasi-optimality constant of the projection on V with test space S.

    The square is the largest eigenvalue, against the V-Gram of the state
    norm, of the Gram of the residuals v_i - R_V^{-1} A^T S H^{-1} S^T A v_i
    over a basis of V.  ``gram`` switches between the model norm ("model",
    the energy norm for spd models) and the fixed R_V0 ("v0").
    """
    return _delta_alpha(DirectBlocks(model, xi, V=V, WQ=S), _energy(model, gram))[0]


def infsup_alpha(model, xi, V, S, gram="model"):
    """Discrete inf-sup constant under the residual-induced test norm,
    sqrt(lambda_min(B^T H^{-1} B, G_V)); satisfies alpha^2 + delta^2 = 1."""
    return _delta_alpha(DirectBlocks(model, xi, V=V, WQ=S), _energy(model, gram))[1]


def delta_L(model, xi, S, gram="model"):
    """Goal-oriented constant: sup over unit output functionals of the
    distance of L^* z' to A^* S, in the dual state norm.

    Evaluated as the largest eigenvalue, against the output dual Gram, of
    the Gram of the explicit dual residual columns L^T - A^T S K^{-1} C.
    """
    return _delta_l(DirectBlocks(model, xi, WQ=S), _energy(model, gram))


def compute_constants(model, xi, V, S, gram="model"):
    d, energy = DirectBlocks(model, xi, V=V, WQ=S), _energy(model, gram)
    delta, alpha = _delta_alpha(d, energy)
    return ConstantsReport(
        xi=np.asarray(xi, dtype=float),
        delta_vw=delta,
        delta_l=_delta_l(d, energy),
        alpha=alpha,
    )
