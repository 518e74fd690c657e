"""Online error estimates, coercivity bounds, and effectivity statistics.

Certified estimates multiply the primal residual dual norm by the
worst-case dual-residual factor and divide by a coercivity lower bound
alpha(xi); for generated symmetric coercive problems alpha comes from the
min-theta bound.  The saddle variant replaces the residual at the primal
projection by the minimum of the residual over the enriched space (spd
form) or by the residual at the corrected point (general form), and the
dual factor by the minimized one, which tightens the estimate.

When alpha is out of reach, surrogate estimates drop the 1/alpha factor
and optionally precondition the primal residual with an interpolated
operator inverse; these are not certified and are tagged as such, and
:func:`estimate_error` picks one of the two.  Every estimate reads the
point, the route and the reduced blocks from the solution it bounds, so no
block the solve contracted is contracted again.  This module keeps only the
rules (which alpha, which dual Gram, certified or surrogate): the residual
norms, the full-order residual of a general saddle point and its
preconditioned norm come from the solution's blocks.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import eig_extreme
from .exceptions import UnsupportedModelError

__all__ = [
    "EstimateRecord",
    "EffectivityReport",
    "alpha_min_theta",
    "estimate_error",
    "estimate_primal_dual",
    "estimate_saddle",
    "estimate_preconditioned",
    "select_output_direction",
    "effectivity_report",
]


@dataclass
class EstimateRecord:
    """One online error estimate and its factors."""

    xi: np.ndarray
    delta: float
    primal_factor: float
    dual_factor: float
    alpha: float | None
    method: str
    certified: bool


@dataclass
class EffectivityReport:
    """Statistics of the effectivity index eta = estimate / true error."""

    mean: float
    maxmin_ratio: float
    nstd: float
    n_included: int
    n_excluded: int
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def alpha_min_theta(model, xi):
    """Min-theta coercivity lower bound: min_k theta_k(xi) / theta_k(xi_ref).

    Valid when the model declares ``coercive_affine`` (positive operator
    coefficients, SPSD terms) and R_V0 equals A(xi_ref); both are checked.
    """
    return _min_theta(model, model.A.coefficients_at(xi))


def _min_theta(model, t_xi):
    """:func:`alpha_min_theta` from the operator coefficients ``t_xi`` at xi."""
    if not model.coercive_affine:
        raise UnsupportedModelError(
            "min-theta needs a coercive-affine model; supply alpha "
            "explicitly or use a surrogate estimate"
        )
    deviation = model.v0_ref_deviation
    if deviation > 1e-10:
        raise UnsupportedModelError(
            "min-theta needs gram_v0 = A(xi_ref); this model deviates by "
            f"{deviation:.2e} relative"
        )
    t_ref = model.theta_ref
    if np.any(t_ref <= 0.0) or np.any(t_xi <= 0.0):
        raise UnsupportedModelError("min-theta needs positive coefficients")
    return float(np.min(t_xi / t_ref))


def _dual_sup(model, matrix):
    """sqrt of the largest eigenvalue of an output-space Gram against R_Z'."""
    lam, _, _ = eig_extreme(matrix, model.gram_z_inv, largest=True)
    return float(np.sqrt(max(float(lam), 0.0)))


_NO_ALPHA = ("alpha is unavailable; use estimate_preconditioned for the "
             "surrogate without the 1/alpha factor")


def _record(sol, pf, df, alpha, method, certified):
    delta = pf * df / alpha if certified else pf * df
    return EstimateRecord(
        xi=np.asarray(sol.blocks.xi, float), delta=delta, primal_factor=pf,
        dual_factor=df, alpha=alpha, method=method, certified=certified,
    )


def estimate_primal_dual(model, sol, alpha):
    """Certified estimate: primal residual x dual operator norm / alpha."""
    if alpha is None:
        raise UnsupportedModelError(_NO_ALPHA)
    pf = sol.blocks.primal_residual_norm(sol.primal_coeffs)
    df = _dual_sup(model, sol.blocks.pd_dual_matrix())
    return _record(sol, pf, df, float(alpha), "primal-dual", True)


def estimate_saddle(model, sol, alpha):
    """Certified saddle estimate with minimized primal and dual factors."""
    if alpha is None:
        raise UnsupportedModelError(_NO_ALPHA)
    pf = (sol.blocks.min_residual_over_T() if model.symmetry == "spd"
          else sol.blocks.residual_norm(sol))
    df = _dual_sup(model, sol.blocks.dual_schur("T"))
    return _record(sol, pf, df, float(alpha), "saddle", True)


def estimate_preconditioned(model, sol, precond=None):
    """Surrogate estimate with a preconditioned primal residual, no alpha.

    With ``precond=None`` (or no stored points) the preconditioner falls
    back to R_V0^{-1}, so the primal factor is the plain residual dual
    norm; the record is tagged non-certified either way.
    """
    if sol.method not in ("primal-dual", "saddle"):
        raise ValueError(f"no estimate for method {sol.method!r}")
    blocks = sol.blocks
    df = _dual_sup(model, blocks.pd_dual_matrix() if sol.method == "primal-dual"
                   else blocks.dual_schur("T"))
    m = precond.m if precond is not None else 0
    return _record(sol, blocks.residual_norm(sol, precond), df, None,
                   f"{sol.method}-surrogate[m={m}]", False)


def estimate_error(model, sol, alpha="auto", precond=None):
    """The certified or the surrogate estimate of a primal-dual or saddle
    solution, as ``gorom estimate --alpha`` chooses it.

    ``alpha="min-theta"`` certifies with :func:`alpha_min_theta`;
    ``"none"`` gives the surrogate of :func:`estimate_preconditioned` with
    ``precond``; ``"auto"`` is min-theta on spd coercive-affine models and
    none otherwise.
    """
    if alpha == "auto":
        alpha = ("min-theta" if model.symmetry == "spd" and model.coercive_affine
                 else "none")
    if alpha == "none":
        return estimate_preconditioned(model, sol, precond)
    if alpha != "min-theta":
        raise ValueError(f"unknown alpha rule {alpha!r}")
    certified = {"primal-dual": estimate_primal_dual, "saddle": estimate_saddle}
    if sol.method not in certified:
        raise ValueError(f"no estimate for method {sol.method!r}")
    # the solve evaluated theta_A at the point already
    return certified[sol.method](model, sol, _min_theta(model, sol.blocks["A"]))


def select_output_direction(model, xi, dual_space, method="saddle"):
    """Worst output direction z' for partial dual enrichment.

    ``dual_space`` is the :class:`~gorom.projectors.ReducedCache` of the
    current dual space.  The primal-dual variant maximizes the dual residual
    of the current projected dual operator; the saddle variant maximizes the
    minimized dual residual.  Returns z' with unit output dual norm;
    top-eigenspace ties break deterministically to the lexicographically
    largest sign-fixed eigenvector.
    """
    blocks = dual_space.at(xi)
    M = blocks.pd_dual_matrix() if method == "primal-dual" \
        else blocks.dual_schur("WQ")
    _, _, (w, vecs) = eig_extreme(M, model.gram_z_inv, largest=True)
    lam_max = w[-1]
    tol = max(1e-10 * abs(lam_max), 1e-300)
    candidates = [vecs[:, i] for i in range(len(w)) if w[i] >= lam_max - tol]
    fixed = [_sign_fix(v) for v in candidates]
    z = max(fixed, key=tuple)
    nrm = model.z_dual_norm(z)
    return z / nrm if nrm > 0 else z


def _sign_fix(v):
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return v
    for x in v:
        if abs(x) > 1e-12 * scale:
            return v if x > 0 else -v
    return v


def effectivity_report(deltas, errors, s_norms=None, bins=20):
    """Histogram and summary statistics of eta = delta / error.

    Pairs whose true error falls below 1e-14 times the output norm are
    excluded (eta is undefined at exact points) and counted, as are
    non-finite or non-positive ratios.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if deltas.shape != errors.shape or deltas.ndim != 1:
        raise ValueError("deltas and errors must be 1-d arrays of equal length")
    if deltas.size == 0:
        raise ValueError("empty sample")
    floor = 1e-14 * (np.asarray(s_norms, dtype=float) if s_norms is not None
                     else np.ones_like(errors))
    keep = errors > floor
    eta = np.full_like(deltas, np.nan)
    eta[keep] = deltas[keep] / errors[keep]
    keep &= np.isfinite(eta) & (eta > 0.0)
    eta = eta[keep]
    if eta.size == 0:
        raise ValueError("no usable effectivity samples: each pair has an error below "
                         "1e-14 of the output norm or a non-positive estimate")
    counts, edges = np.histogram(eta, bins=bins)
    mean = float(np.mean(eta))
    return EffectivityReport(
        mean=mean,
        maxmin_ratio=float(np.max(eta) / np.min(eta)),
        nstd=float(np.std(eta) / mean),
        n_included=int(eta.size),
        n_excluded=int(deltas.size - eta.size),
        hist_edges=edges,
        hist_counts=counts,
    )
