#!/usr/bin/env python3
"""Benchmark of the gorom pipeline, driven through its CLI entry point.

    python3 perfbench/run.py --workload spd-online --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it spends half the run on untraced passes and half on
traced ones, and reports the per-layer metrics (see ``tracing.py``) and the
tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.  A fuller report (environment, workload
dimensions, every computed metric, failure reasons, the online-cost table
and, when traced, the spans) goes to ``.perfbench/reports/``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, each in
its own process, and checks that every declared metric is emitted with a
finite value and that the run is correct.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_THREADS = 1
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and check the output")
    args = p.parse_args(argv)
    if not args.smoke and not args.workload:
        p.error("--workload is required")
    return args


def load_declaration():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds():
    """CPU time of a fresh interpreter that imports the CLI: median of three."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import gorom.cli"
    times = []
    for _ in range(3):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(_children_cpu() - t0)
    return statistics.median(times)


def run_passes(runner, passes, walls, until, between=lambda: None):
    """Append passes while the next, if it lasts as long as the last, ends
    within ``until`` seconds of pass wall time (``walls``); at least one.
    ``between`` runs before each pass."""
    while not walls or sum(walls) + walls[-1] <= until:
        between()
        t0 = time.perf_counter()
        passes.append(runner.timed_pass())
        walls.append(time.perf_counter() - t0)


def measure(runner, seconds, trace):
    """Set-up, then timed passes; returns (metrics, detail).

    Untraced, the set-ups are spread over the run: set-up i runs before the
    first pass that starts after i shares of the run (any not yet run follow
    the last pass), so that the set-up samples do not all land in one slow
    spell of the machine.  The passes read the first set-up's outputs, and
    the truth of a workload with ``truth_chunks`` is made right after it.
    """
    import tracing

    med = statistics.median
    passes, walls = [], []

    def first_setup():
        seconds = runner.setup(0)
        if runner.spec.truth_chunks:
            runner.chunked_truth()
        return seconds

    if not trace:
        setups = [first_setup()]

        def due_setup():
            if len(setups) < SETUP_REPEATS \
                    and sum(walls) >= seconds * len(setups) / SETUP_REPEATS:
                setups.append(runner.setup(len(setups)))

        run_passes(runner, passes, walls, seconds, due_setup)
        while len(setups) < SETUP_REPEATS:
            setups.append(runner.setup(len(setups)))
        setup_s = import_seconds() + med(setups)
        return _end_to_end(runner, setup_s, passes), {"setup_runs_s": setups,
                                                      "pipeline_runs_s": passes}

    # untraced passes for the overhead, then traced ones, half the run each
    first_setup()
    untraced = []
    run_passes(runner, untraced, walls, seconds / 2)
    with tracing.Tracer() as tracer:
        run_passes(runner, passes, [], seconds / 2)
    metrics = tracing.layer_metrics(tracer, len(passes))
    metrics["trace.passes"] = len(passes)
    metrics["trace.overhead_s"] = med(passes) - med(untraced)
    detail = {"untraced_pipeline_s": untraced, "traced_pipeline_s": passes,
              "online_cost": online_cost_table(runner, metrics),
              "spans": tracing.compact_spans(tracer)}
    return metrics, detail


def _end_to_end(runner, setup_s, passes):
    med, spec, t = statistics.median, runner.spec, runner.times
    metrics = {
        "setup_s": setup_s,
        "pipeline_s": med(passes),
        "offline_s": med(t["offline"]),
        "truth_pts_per_s": med(runner.truth_size / x for x in t["truth"]),
    }
    for route in ("primal", "dual", "primal-dual", "saddle"):
        key = route.replace("-", "_")
        metrics[f"eval_{key}_pts_per_s"] = med(spec.points / x for x in t[f"eval {route}"])
    for route in ("primal-dual", "saddle"):
        key = route.replace("-", "_")
        metrics[f"estimate_{key}_pts_per_s"] = med(
            spec.estimate_points / x for x in t[f"estimate {route}"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def online_cost_table(runner, metrics):
    """The greedy's cubic online-cost model next to the measured solve times.

    The greedy's own method takes its final ``online_cost`` from trace.json;
    the other routes use the same model as ``gorom compare``.
    """
    from gorom.greedy import online_cost

    dims = runner.dims
    if dims is None:
        return None
    sym = "spd" if runner.spec.kind == "diffusion" else "general"
    r, k = dims["r"], dims["k"]
    model = {"primal": online_cost("primal-dual", sym, r, 0),
             "dual": online_cost("primal-dual", sym, 0, k),
             "primal-dual": online_cost("primal-dual", sym, r, k),
             "saddle": online_cost("saddle", sym, r, k)}
    model[dims["method"]] = dims["online_cost"]
    rows = []
    for route, cost in model.items():
        p50 = metrics.get(f"projectors.solve.{route}.p50_us")
        rows.append({
            "route": route, "online_cost": cost,
            "source": "trace.json" if route == dims["method"] else "online_cost()",
            "solve_calls_per_pass": metrics[f"projectors.solve.{route}.calls"],
            "solve_p50_us": p50,
            "ns_per_model_flop": None if p50 is None else 1e3 * p50 / cost,
        })
    return rows


def run_one(args):
    import envinfo
    import workloads

    declared = load_declaration()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    spec = workloads.get(args.workload, tiny=args.tiny)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = workloads.Runner(spec, args.seed, workdir)
    metrics, detail, crashed = {}, {}, None
    try:
        metrics, detail = measure(runner, args.seconds, args.trace)
    except workloads.CommandFailed as exc:
        crashed = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = crashed is None and tally.wrong == 0 and not missing
    result = {
        "correct": correct,
        # a run that crashed before its first operation reports that one as failed
        "attempted": tally.attempted or 1,
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    spans = detail.pop("spans", None)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": envinfo.environment(ROOT, CLI_THREADS),
        "dims": {"n": spec.n, "d": spec.d, "l": spec.l, **(runner.dims or {})},
        "greedy": spec.greedy, "truth_points": spec.truth_points, "points": spec.points,
        "estimate_points": spec.estimate_points, "truth_chunks": spec.truth_chunks,
        "prepared": list(spec.prepared),
        "tolerance": spec.tolerance, "max_relative_error": runner.max_rel_error,
        "failures": tally.reasons, "crashed": crashed, "missing_metrics": missing,
        "command_cpu_s": runner.times, "command_wall_s": runner.wall_times,
        "metrics": metrics, **detail,
        "result": result,
    }
    out = ROOT / ".perfbench" / "reports"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

def smoke():
    declared = load_declaration()
    problems = []
    for w in declared["workloads"]:
        for trace in (0, 1):
            wanted = declared["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = f"{w['name']} trace={trace}"
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {done.returncode}, no result\n"
                                f"{done.stderr[-2000:]}")
                continue
            got = result["metrics"]
            bad = [m["name"] for m in wanted
                   if m["name"] not in got or not math.isfinite(got[m["name"]]["value"])]
            if done.returncode or not result["correct"] or bad:
                problems.append(f"{label}: exit {done.returncode}, correct="
                                f"{result['correct']}, missing or non-finite {bad}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print("SMOKE FAILURE", p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


def main():
    args = parse_args()
    if args.smoke:
        return smoke()
    # One BLAS thread, fixed before numpy loads: the workloads are
    # single-process and the default pool oversubscribes a small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import gorom
        import workloads  # noqa: F401  (imports numpy and scipy)
        import tracing  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not Path(gorom.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: gorom comes from {gorom.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
