"""Spans around the public functions of each gorom module, recorded from outside.

The traced run patches the package in place: every module attribute that is
one of the functions below is replaced by a wrapper, which also catches the
``from .x import f`` bindings in ``cli``, ``greedy`` and ``estimators``, and
methods are wrapped on their class.  ``src/`` is not edited.

A span is ``[name, start, end, parent]`` in process CPU seconds, the clock
of the end-to-end metrics (see ``workloads.Runner._cli``).  The stack of open spans is one per
process, not per thread: every command runs with ``--threads 1``, so the one
pool worker runs while the main thread waits and spans nest strictly.  A span
that closes out of order would mean concurrent workers; it raises.
"""

import functools
import sys
import time

import numpy as np

from gorom import (affine, bundle, cli, estimators, greedy, model, preconditioner,
                   problems, projectors, spaces)

LAYERS = ("cli", "bundle", "problems", "affine", "model", "spaces",
          "projectors", "estimators", "preconditioner", "greedy")

ROUTES = {"solve_primal": "primal", "solve_dual_only": "dual",
          "solve_primal_dual": "primal-dual", "solve_saddle": "saddle"}

# (owner, attribute, span name)
TARGETS = [
    (cli, "main", "cli.main"),
    (bundle, "load_bundle", "bundle.load_bundle"),
    (bundle, "store_bundle", "bundle.store_bundle"),
    (problems, "make_problem", "problems.make_problem"),
    (problems, "truth_solve", "problems.truth_solve"),
    (affine, "assemble", "affine.assemble"),
    (affine.AffineForm, "__call__", "affine.AffineForm.__call__"),
    (model.Factorization, "__init__", "model.factorize"),
    (model.Factorization, "solve", "model.solve"),
    (model.FullOrderModel, "riesz_v0", "model.riesz_v0"),
    (model.FullOrderModel, "factorize_operator", "model.factorize_operator"),
    (spaces.Basis, "append", "spaces.append"),
    (spaces.Basis, "load", "spaces.load"),
    (spaces.Basis, "save", "spaces.save"),
    (spaces, "union_basis", "spaces.union_basis"),
    (projectors.ReducedCache, "__init__", "projectors.cache_build"),
    *[(projectors.ReducedCache, meth, f"projectors.solve.{route}")
      for meth, route in ROUTES.items()],
    *[(projectors.ReducedCache, meth, f"projectors.{meth}")
      for meth in ("primal_residual_norm", "pd_dual_matrix", "dual_schur",
                   "dual_schur_dynamic", "min_residual_over_T",
                   "residual_vector", "saddle_corrected_point")],
    *[(estimators, fn, f"estimators.{fn}")
      for fn in ("alpha_min_theta", "estimate_primal_dual", "estimate_saddle",
                 "estimate_preconditioned", "select_output_direction",
                 "effectivity_report")],
    (preconditioner.InverseInterpolant, "__init__", "preconditioner.build"),
    *[(preconditioner.InverseInterpolant, meth, f"preconditioner.{meth}")
      for meth in ("coefficients", "add_point", "apply", "apply_adjoint")],
    (greedy, "run_greedy", "greedy.run_greedy"),
]


class Tracer:
    """Records spans while installed; ``spans`` outlives ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.rejected_appends = 0
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if name == "spaces.append" and result is False:
                    self.rejected_appends += 1
                return result
            finally:
                span[2] = clock()
                if stack.pop() != idx:
                    raise RuntimeError(f"span {name} closed out of order: "
                                       "the traced run must be single-threaded")
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "gorom" or key.startswith("gorom.")]
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name))
            else:
                wrapper = self._wrap(original, name)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                setattr(o, attr, wrapper)
                self._undo.append((o, attr, original))

    def uninstall(self):
        for o, attr, original in reversed(self._undo):
            setattr(o, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _percentiles(durations, scale, unit, prefix, out):
    """p50 needs 20 samples and p90 100: ten or more beyond the percentile."""
    n = len(durations)
    if n >= 20:
        out[f"{prefix}.p50_{unit}"] = float(np.percentile(durations, 50)) * scale
    if n >= 100:
        out[f"{prefix}.p90_{unit}"] = float(np.percentile(durations, 90)) * scale


def layer_metrics(tracer, passes):
    """Per-layer metrics from recorded spans, named ``<module>.<function>.<stat>``.

    Counts and times are per timed pass, so runs with different numbers of
    passes compare; percentiles are per call.  Self time is a span's duration
    minus that of its direct children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    dur, self_t = {}, {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        dur.setdefault(name, []).append(t1 - t0)
        self_t[name] = self_t.get(name, 0.0) + (t1 - t0) - child_time[i]

    def calls(name):
        return len(dur.get(name, ())) / passes

    def selfs(*names):
        return sum(self_t.get(n, 0.0) for n in names) / passes

    out = {}
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = selfs("cli.main")
    out["bundle.load_bundle.calls"] = calls("bundle.load_bundle")
    out["bundle.load_bundle.self_s"] = selfs("bundle.load_bundle")
    out["bundle.store_bundle.self_s"] = selfs("bundle.store_bundle")
    out["problems.make_problem.self_s"] = selfs("problems.make_problem")
    out["problems.truth_solve.calls"] = calls("problems.truth_solve")
    out["problems.truth_solve.self_s"] = selfs("problems.truth_solve")
    _percentiles(dur.get("problems.truth_solve", []), 1e3, "ms",
                 "problems.truth_solve", out)

    # assembly through assemble() and direct AffineForm calls, counted once
    direct = sum(1 for name, _, _, parent in spans
                 if name == "affine.AffineForm.__call__"
                 and (parent < 0 or spans[parent][0] != "affine.assemble")) / passes
    out["affine.assemble.calls"] = calls("affine.assemble") + direct
    out["affine.assemble.self_s"] = selfs("affine.assemble",
                                          "affine.AffineForm.__call__")

    out["model.factorize.calls"] = calls("model.factorize")
    out["model.factorize.self_s"] = selfs("model.factorize")
    _percentiles(dur.get("model.factorize", []), 1e3, "ms", "model.factorize", out)
    out["model.solve.calls"] = calls("model.solve")
    out["model.solve.self_s"] = selfs("model.solve")
    out["model.riesz_v0.calls"] = calls("model.riesz_v0")

    out["spaces.append.calls"] = calls("spaces.append")
    out["spaces.append.rejected"] = tracer.rejected_appends / passes
    out["spaces.append.self_s"] = selfs("spaces.append")
    out["spaces.union_basis.calls"] = calls("spaces.union_basis")
    out["spaces.union_basis.self_s"] = selfs("spaces.union_basis")
    out["spaces.load.self_s"] = selfs("spaces.load")

    out["projectors.cache_build.calls"] = calls("projectors.cache_build")
    out["projectors.cache_build.self_s"] = selfs("projectors.cache_build")
    _percentiles(dur.get("projectors.cache_build", []), 1e3, "ms",
                 "projectors.cache_build", out)
    for route in ROUTES.values():
        name = f"projectors.solve.{route}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = selfs(name)
        _percentiles(dur.get(name, []), 1e6, "us", name, out)
    for meth in ("primal_residual_norm", "pd_dual_matrix", "dual_schur",
                 "dual_schur_dynamic", "min_residual_over_T", "residual_vector",
                 "saddle_corrected_point"):
        out[f"projectors.{meth}.self_s"] = selfs(f"projectors.{meth}")

    out["estimators.alpha_min_theta.calls"] = calls("estimators.alpha_min_theta")
    out["estimators.alpha_min_theta.self_s"] = selfs("estimators.alpha_min_theta")
    for kind in ("primal_dual", "saddle", "preconditioned"):
        name = f"estimators.estimate_{kind}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = selfs(name)
        _percentiles(dur.get(name, []), 1e3, "ms", name, out)

    out["preconditioner.coefficients.calls"] = calls("preconditioner.coefficients")
    out["preconditioner.coefficients.self_s"] = selfs("preconditioner.coefficients")
    _percentiles(dur.get("preconditioner.coefficients", []), 1e3, "ms",
                 "preconditioner.coefficients", out)
    out["preconditioner.add_point.calls"] = calls("preconditioner.add_point")
    out["preconditioner.add_point.self_s"] = selfs("preconditioner.add_point")
    out["preconditioner.apply.self_s"] = selfs("preconditioner.apply",
                                               "preconditioner.apply_adjoint")

    out.update(_greedy_split(spans, passes))

    # layer totals: the self time of every span of the module
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs(*[k for k in self_t if k.split(".")[0] == layer])
    return out


def _greedy_split(spans, passes):
    """Split each ``run_greedy`` span into its iterations' four stages.

    An iteration starts where its ``ReducedCache`` build starts and ends where
    the next one starts.  Its sweep runs from the end of that build to the
    start of ``factorize_operator``; enrichment is what follows the
    factorization (solves, basis appends, interpolant growth).
    """
    kids = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == "greedy.run_greedy":
            kids.setdefault(parent, []).append(spans[i])
    split = dict.fromkeys(("sweep_s", "factorize_s", "enrich_s", "cache_build_s"), 0.0)
    iterations = []
    for parent, children in kids.items():
        end_of_run = spans[parent][2]
        builds = [c for c in children if c[0] == "projectors.cache_build"]
        for j, build in enumerate(builds):
            end = builds[j + 1][1] if j + 1 < len(builds) else end_of_run
            facts = [c for c in children if c[0] == "model.factorize_operator"
                     and build[2] <= c[1] < end]
            split["cache_build_s"] += build[2] - build[1]
            if facts:
                f = facts[0]
                split["sweep_s"] += f[1] - build[2]
                split["factorize_s"] += f[2] - f[1]
                split["enrich_s"] += end - f[2]
            else:                       # stopped on the threshold
                split["sweep_s"] += end - build[2]
            iterations.append(end - build[1])
    out = {f"greedy.{k}": v / passes for k, v in split.items()}
    out["greedy.iterations"] = len(iterations) / passes
    if len(iterations) >= 20:
        out["greedy.iteration.p50_s"] = float(np.median(iterations))
    return out


def compact_spans(tracer):
    """Spans as ``{"names": [...], "spans": [[name_index, t0, t1, parent]]}``."""
    names, index = [], {}
    rows = []
    base = tracer.spans[0][1] if tracer.spans else 0.0
    for name, t0, t1, parent in tracer.spans:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        rows.append([index[name], round(t0 - base, 7), round(t1 - base, 7), parent])
    return {"names": names, "spans": rows}
