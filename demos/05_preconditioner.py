#!/usr/bin/env python3
"""Interpolated operator inverses: test spaces and surrogate estimates.

On the nonsymmetric problem the coercivity constant is out of reach, so
certified bounds give way to surrogates whose primal residual is
preconditioned by an interpolation P_m of the operator inverse.  The same
interpolant also drives the parameter-dependent test space
W(xi) = P_m(xi)^* R_V0 V, which approaches the ideal test space as the
interpolation improves.

The script grows the interpolant greedily on a sketched residual and
tracks the effectivity spread of the surrogate estimates (each reads its
route, its point and its reduced blocks from the solution it bounds): the max/min
ratio tightens as m grows (desk-scale analogue of the full-order study;
with only 200 validation points the spread statistics carry sampling
noise, so individual seeds can wiggle).
"""

import numpy as np

from gorom import (
    Basis,
    InverseInterpolant,
    ProblemConfig,
    ReducedCache,
    dual_truth_solve,
    effectivity_report,
    estimate_preconditioned,
    make_advection_diffusion_problem,
    truth_solve,
)

cfg = ProblemConfig(n=400, d=4, l=2, seed=32, kind="advection-diffusion")
model = make_advection_diffusion_problem(cfg)

snap = model.domain.sample(12, np.random.default_rng(309))
V = Basis(model.gram_v0, model.n)
WQ = Basis(model.gram_v0, model.n)
for xi in snap[:10]:
    V.append(truth_solve(model, xi)[0])
for xi in snap[10:]:
    WQ.extend(dual_truth_solve(model, xi))
print(f"spaces: r = {V.dim}, k = {WQ.dim}")

validation = model.domain.sample(200, np.random.default_rng(310))
truth = [truth_solve(model, xi)[1] for xi in validation]
candidates = model.domain.sample(30, np.random.default_rng(311))

for method in ("primal-dual", "saddle"):
    print(f"\nsurrogate estimate, {method} route")
    print(f"{'m':>3} {'sketch resid @pt':>17} {'eta mean':>9} {'max/min':>9} "
          f"{'nstd':>7} {'L2 error':>12}")
    for m in (0, 2, 4):
        P = InverseInterpolant(model, sketch_size=400, seed=39, positivity=True)
        P.add_greedy_points(candidates, m)
        resid = (P.sketched_objective(P.points[0]) / np.linalg.norm(P.omega)
                 if P.m else float("nan"))
        cache = ReducedCache(model, V, WQ, precond=P)
        deltas, errors, snorms = [], [], []
        for xi, s in zip(validation, truth):
            sol = cache.solve(xi, method)
            rec = estimate_preconditioned(model, sol, P)
            deltas.append(rec.delta)
            errors.append(model.z_norm(s - sol.s_tilde))
            snorms.append(model.z_norm(s))
        rep = effectivity_report(deltas, errors, s_norms=snorms, bins=30)
        l2 = np.sqrt(np.mean(np.square(errors)))
        print(f"{m:3d} {resid:17.2e} {rep.mean:9.2f} {rep.maxmin_ratio:9.2f} "
              f"{rep.nstd:7.3f} {l2:12.4e}")

print("\nAt stored interpolation points the sketched residual vanishes and "
      "the derived test\nspace is ideal there; the effectivity spread of the "
      "surrogates narrows with m.")
