#!/usr/bin/env python3
"""Certified error estimates and effectivity statistics.

On the symmetric coercive problem the min-theta bound provides the
coercivity constant, making both the primal-dual and the saddle estimates
certified: the effectivity index eta = estimate / true error stays >= 1
everywhere.  The saddle estimate minimizes both residual factors over the
enriched space and is visibly sharper (smaller mean, max/min ratio, and
normalized standard deviation).
"""

import numpy as np

from gorom import (
    Basis,
    ProblemConfig,
    ReducedCache,
    alpha_min_theta,
    dual_truth_solve,
    effectivity_report,
    estimate_primal_dual,
    estimate_saddle,
    make_diffusion_problem,
    sample_parameters,
    truth_solve,
)

cfg = ProblemConfig(n=400, d=6, l=20, seed=1, kind="diffusion-spd")
model = make_diffusion_problem(cfg)

snap = sample_parameters(model.domain, 10, seed=3)
V = Basis(model.gram_v0, model.n)
WQ = Basis(model.gram_v0, model.n)
for xi in snap[:8]:
    V.append(truth_solve(model, xi)[0])
for xi in snap[8:]:
    WQ.extend(dual_truth_solve(model, xi))

cache = ReducedCache(model, V, WQ)
validation = sample_parameters(model.domain, 200, seed=11)

xi0 = validation[0]
print(f"min-theta coercivity bound at the first point: "
      f"alpha = {alpha_min_theta(model, xi0):.4f} "
      f"(equals min(1, min_k xi_k) here)")

print(f"\n{'estimator':>12} {'eta mean':>10} {'max/min':>9} {'nstd':>7} "
      f"{'certified':>10}")
for method in ("primal-dual", "saddle"):
    deltas, errors, snorms = [], [], []
    for xi in validation:
        alpha = alpha_min_theta(model, xi)
        if method == "primal-dual":
            sol = cache.solve_primal_dual(xi)
            rec = estimate_primal_dual(model, xi, cache, sol, alpha)
        else:
            sol = cache.solve_saddle(xi)
            rec = estimate_saddle(model, xi, cache, sol, alpha)
        _, s = truth_solve(model, xi)
        deltas.append(rec.delta)
        errors.append(model.z_norm(s - sol.s_tilde))
        snorms.append(model.z_norm(s))
    rep = effectivity_report(deltas, errors, s_norms=snorms, bins=30)
    certified = np.all(np.asarray(deltas) >= np.asarray(errors))
    print(f"{method:>12} {rep.mean:10.2f} {rep.maxmin_ratio:9.2f} "
          f"{rep.nstd:7.3f} {str(certified):>10}")

print("\neta >= 1 at every sample: both bounds are certified; the saddle "
      "statistics dominate.")
