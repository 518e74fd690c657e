#!/usr/bin/env python3
"""Run every workload over several seeds and record the numbers.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline/seed

runs ``run.py --trace 0`` once per seed and workload (each in its own
process, one after another), then one traced run per workload, and writes
``<out>.json`` and ``<out>.md``: for every end-to-end metric its median,
quartiles, sample count and spread ((q3 - q1) / median) against a third of
its bound, and for every workload the traced per-layer table and the
online-cost table.  ``--first-seed`` sets the first seed; ``--no-trace``
skips the traced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench" / "reports" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report, time.perf_counter() - t0


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
            "bound": bound, "within_third_of_bound": spread < bound / 3,
            "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out", required=True, help="output path without suffix")
    args = p.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, report, wall = run(name, seed, seconds, 0)
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "failures": report["failures"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        entry = {
            "environment": report["environment"], "dims": report["dims"],
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]] for r in runs],
                                                m["bound"])
                           for m in declared["end_to_end"]},
            "runs": runs,
        }
        if not args.no_trace:
            result, report, wall = run(name, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "wall_s": wall,
                               "correct": result["correct"], "failed": result["failed"],
                               "dims": report["dims"], "per_layer": report["metrics"],
                               "untraced_pipeline_s": report["untraced_pipeline_s"],
                               "traced_pipeline_s": report["traced_pipeline_s"],
                               "online_cost": report["online_cost"]}
        record["workloads"][name] = entry

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    out.with_suffix(".md").write_text(markdown(record))
    print(markdown(record))


def _g(x):
    return "—" if x is None else f"{x:.4g}"


def markdown(record):
    lines = [f"Runs of {record['run_seconds']} s, seeds {record['seeds'][0]}–"
             f"{record['seeds'][-1]}; spread is (q3 − q1) / median.", ""]
    for name, entry in record["workloads"].items():
        env, dims = entry["environment"], entry["dims"]
        lines += [f"## {name}", "",
                  f"n={dims['n']} d={dims['d']} l={dims['l']} r={dims.get('r')} "
                  f"k={dims.get('k')} p={dims.get('p')} m={dims.get('m')}; "
                  f"commit {env['commit']}, nproc {env['nproc']}, numpy {env['numpy']}, "
                  f"scipy {env['scipy']}, BLAS "
                  + ", ".join(f"{b['library']} ({b['threads']} thread)" for b in env["blas"])
                  + f", --threads {env['cli_threads']}", "",
                  "| metric | median | q1 | q3 | n | spread | bound |",
                  "|---|---|---|---|---|---|---|"]
        for metric, s in entry["end_to_end"].items():
            lines.append(f"| {metric} | {_g(s['median'])} | {_g(s['q1'])} | {_g(s['q3'])} "
                         f"| {s['n']} | {s['spread']:.3f} | {s['bound']} |")
        failed = sum(r["failed"] for r in entry["runs"])
        attempted = sum(r["attempted"] for r in entry["runs"])
        reasons = {}
        for r in entry["runs"]:
            for k, v in r["failures"].items():
                reasons[k] = reasons.get(k, 0) + v
        lines += ["", f"Operations failed: {failed} of {attempted}"
                  + "".join(f"; {k}: {v}" for k, v in reasons.items()), ""]
        traced = entry.get("traced")
        if traced:
            lines += [f"Traced run (seed {traced['seed']}): untraced passes "
                      + ", ".join(f"{x:.3f}" for x in traced["untraced_pipeline_s"])
                      + " s, traced passes "
                      + ", ".join(f"{x:.3f}" for x in traced["traced_pipeline_s"]) + " s.",
                      "", "| per-layer metric | value |", "|---|---|"]
            lines += [f"| {k} | {_g(v)} |" for k, v in traced["per_layer"].items()]
            if traced["online_cost"]:
                lines += ["", "| route | online_cost model | from | solve calls per pass "
                          "| solve p50 µs | ns per model flop |", "|---|---|---|---|---|---|"]
                lines += [f"| {r['route']} | {_g(r['online_cost'])} | {r['source']} "
                          f"| {_g(r['solve_calls_per_pass'])} | {_g(r['solve_p50_us'])} "
                          f"| {_g(r['ns_per_model_flop'])} |" for r in traced["online_cost"]]
            lines.append("")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
