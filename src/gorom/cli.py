"""Command-line front end.

Subcommands::

    gorom generate  --kind diffusion --n 900 --d 6 --l 30 --seed 7 --out dir/
    gorom offline   --bundle dir/ --config greedy.json --out spaces/
    gorom truth     --bundle dir/ --xi-file xi.csv --out truth.csv
    gorom eval      --bundle dir/ --spaces spaces/ --method primal-dual \
                    --xi-file xi.csv --out est.csv
    gorom constants --bundle dir/ --spaces spaces/ --xi-file xi.csv --out const.csv
    gorom estimate  --bundle dir/ --spaces spaces/ --method saddle \
                    --xi-file xi.csv --out delta.csv
    gorom stats     --est delta.csv --truth truth.csv --bins 50 --out report.json
    gorom compare   --bundle dir/ --spaces spaces/ --xi-file xi.csv --out compare.csv

Any command that takes ``--xi-file`` accepts a CSV with columns
``xi1..xid`` (extra columns are ignored, so the output of ``truth`` can
seed ``eval``) or, alternatively, ``--sample-count/--sample-seed`` to draw
the points from the bundle's parameter domain.  All numeric CSV fields are
written with full float64 round-trip precision; reruns with identical
seeds produce identical rows (the ``wall_time_ms`` column of ``eval`` is
the one measurement-driven exception).
"""

import argparse
import csv
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import load_bundle, store_bundle
from .constants import compute_constants
from .estimators import effectivity_report, estimate_error
from .exceptions import GoromError, GreedyAborted
from .greedy import GreedyConfig, online_cost, run_greedy
from .preconditioner import InverseInterpolant
from .problems import ProblemConfig, make_problem, sample_parameters, truth_solve
from .projectors import ReducedCache, map_points
from .spaces import Basis

METHODS = ("primal", "dual", "primal-dual", "saddle")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _read_xi(args, model):
    if args.xi_file:
        with open(args.xi_file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            try:
                cols = [header.index(f"xi{j + 1}") for j in range(model.d)]
            except ValueError:
                raise GoromError(
                    f"{args.xi_file}: expected columns xi1..xi{model.d}"
                ) from None
            rows = []
            for row in reader:
                try:
                    rows.append([float(row[c]) for c in cols])
                except (ValueError, IndexError):
                    raise GoromError(f"{args.xi_file}: line {reader.line_num} needs a "
                                     f"number in each of xi1..xi{model.d}") from None
            return np.array(rows)
    if args.sample_count:
        return sample_parameters(model.domain, args.sample_count, args.sample_seed)
    raise GoromError("provide --xi-file or --sample-count")


def _bundle_hash(path):
    """sha256 over the bundle's files; its own manifest (a timestamp) is left out."""
    digest = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        if f.is_file() and f.name != "manifest.json":
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def _write_manifest(outdir, command, config, seeds, bundle=None):
    manifest = {
        "tool": "gorom",
        "version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "bundle_hash": _bundle_hash(bundle) if bundle else None,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(Path(outdir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def save_spaces(result, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result.V.save(outdir / "V.mtx")
    result.WQ.save(outdir / "WQ.mtx")
    result.trace.save(outdir / "trace.json")
    if result.precond is not None:
        with open(outdir / "precond.json", "w") as fh:
            json.dump(result.precond.to_dict(), fh, indent=1)
            fh.write("\n")


def load_spaces(model, path, bundle):
    """Load (V, WQ, precond-or-None) written by ``gorom offline``.

    Spaces whose ``manifest.json`` names another hash than that of the
    ``bundle`` directory are refused, and so are bases of another size than
    the model's; spaces without a manifest load.
    """
    path = Path(path)
    mfile = path / "manifest.json"
    if mfile.is_file():
        with open(mfile) as fh:
            expected = json.load(fh).get("bundle_hash")
        if expected is not None and expected != _bundle_hash(bundle):
            raise GoromError(f"{path} was built from another bundle than {bundle}, "
                             "or by an older gorom; re-run gorom offline on this bundle")
    V = Basis.load(path / "V.mtx", model.gram_v0)
    WQ = Basis.load(path / "WQ.mtx", model.gram_v0)
    precond = None
    pfile = path / "precond.json"
    if pfile.is_file():
        with open(pfile) as fh:
            precond = InverseInterpolant.from_dict(model, json.load(fh))
    return V, WQ, precond


def _load_all(args):
    model = load_bundle(args.bundle)
    V, WQ, precond = load_spaces(model, args.spaces, args.bundle)
    return model, V, WQ, precond


def _xi_header(d):
    return [f"xi{j + 1}" for j in range(d)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    kind = {"diffusion": "diffusion-spd",
            "advection-diffusion": "advection-diffusion"}[args.kind]
    cfg = ProblemConfig(n=args.n, d=args.d, l=args.l, seed=args.seed, kind=kind)
    model = make_problem(cfg)
    store_bundle(model, args.out)
    cfg_echo = {"kind": args.kind, "n": args.n, "d": args.d,
                "l": args.l, "seed": args.seed}
    _write_manifest(args.out, "generate", cfg_echo, {"problem": args.seed})
    print(f"wrote bundle with n={model.n}, l={model.l}, d={model.d} to {args.out}")
    return 0


def cmd_offline(args):
    model = load_bundle(args.bundle)
    with open(args.config) as fh:
        raw = json.load(fh)
    if args.precond:
        raw["precondition"] = True
    cfg = GreedyConfig.from_dict(raw)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_greedy(model, cfg, threads=args.threads)
    except GreedyAborted as exc:
        if exc.trace is not None:
            exc.trace.save(outdir / "trace.json")
        raise
    save_spaces(result, outdir)
    _write_manifest(outdir, "offline", cfg.to_dict(),
                    {"train": cfg.train_seed, "sketch": cfg.precond_seed},
                    bundle=args.bundle)
    last = result.trace.iterations[-1]
    print(f"greedy finished: r={last.r}, k={last.k}, "
          f"{last.factorizations} factorizations, sup_delta={last.sup_delta:.3e}")
    return 0


def cmd_truth(args):
    model = load_bundle(args.bundle)
    xis = _read_xi(args, model)
    outs = map_points(lambda xi: truth_solve(model, xi)[1], xis, args.threads)
    rows = [list(xi) + list(s) for xi, s in zip(xis, outs)]
    header = _xi_header(model.d) + [f"s{j + 1}" for j in range(model.l)]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} truth outputs to {args.out}")
    return 0


def cmd_eval(args):
    model, V, WQ, precond = _load_all(args)
    xis = _read_xi(args, model)
    cache = ReducedCache(model, V, WQ, precond=precond)

    def solve_one(xi):
        t0 = time.perf_counter()
        s = cache.solve(xi, args.method).s_tilde
        return s, 1e3 * (time.perf_counter() - t0)

    results = map_points(solve_one, xis, args.threads)
    rows = [list(xi) + list(s) + [args.method, f"{ms:.3f}"]
            for xi, (s, ms) in zip(xis, results)]
    header = _xi_header(model.d) + [f"s{j + 1}" for j in range(model.l)] \
        + ["method", "wall_time_ms"]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} estimates ({args.method}) to {args.out}")
    return 0


def cmd_constants(args):
    model, V, WQ, _ = _load_all(args)
    xis = _read_xi(args, model)
    rows = []
    for xi in xis:
        rep = compute_constants(model, xi, V, WQ if args.space == "dual" else V)
        rows.append(list(xi) + [rep.delta_vw, rep.delta_l, rep.alpha])
    header = _xi_header(model.d) + ["delta_vw", "delta_l", "alpha"]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} constant reports to {args.out}")
    return 0


def _estimates(model, cache, precond, method, alpha, xis, threads=None):
    """(s_tilde, EstimateRecord) per point; a point's blocks end with its solution."""
    def one(xi):
        sol = cache.solve(xi, method)
        return sol.s_tilde, estimate_error(model, sol, alpha, precond)

    return map_points(one, xis, threads)


def cmd_estimate(args):
    model, V, WQ, precond = _load_all(args)
    xis = _read_xi(args, model)
    cache = ReducedCache(model, V, WQ, precond=precond)
    rows = []
    for xi, (s, rec) in zip(xis, _estimates(model, cache, precond, args.method,
                                              args.alpha, xis, args.threads)):
        rows.append(list(xi) + [rec.delta, rec.primal_factor, rec.dual_factor,
                                "" if rec.alpha is None else rec.alpha,
                                rec.method, int(rec.certified)]
                    + list(s))
    header = _xi_header(model.d) + ["delta", "primal_factor", "dual_factor",
                                    "alpha", "method", "certified"] \
        + [f"s{j + 1}" for j in range(model.l)]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} error estimates to {args.out}")
    return 0


def _numbered(header, prefix):
    """Column index by name of the columns prefix1, prefix2, ... of a header."""
    return {h: j for j, h in enumerate(header)
            if h.startswith(prefix) and h[len(prefix):].isdigit()}


def cmd_stats(args):
    def load(path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            return header, list(reader)

    est_header, est_rows = load(args.est)
    if "delta" not in est_header:
        raise GoromError(f"{args.est} has no delta column; give the output of "
                         "gorom estimate")
    truth_header, truth_rows = load(args.truth)
    pair = f"{args.est} against {args.truth}"
    if len(est_rows) != len(truth_rows):
        raise GoromError(f"{pair}: the files have different sample counts")
    est_xi, truth_xi = _numbered(est_header, "xi"), _numbered(truth_header, "xi")
    if not est_xi or est_xi.keys() != truth_xi.keys():
        raise GoromError(f"{pair}: the files have different parameter columns")
    est_s, truth_s = _numbered(est_header, "s"), _numbered(truth_header, "s")
    if not est_s or est_s.keys() != truth_s.keys():
        raise GoromError(f"{pair}: {len(est_s)} output columns against {len(truth_s)}")
    dcol = est_header.index("delta")
    deltas, errors, snorms = [], [], []
    for i, (er, tr) in enumerate(zip(est_rows, truth_rows)):
        try:
            xi_est = [float(er[est_xi[h]]) for h in est_xi]
            xi_true = [float(tr[truth_xi[h]]) for h in est_xi]
            s_true = np.array([float(tr[truth_s[h]]) for h in est_s])
            s_est = np.array([float(er[est_s[h]]) for h in est_s])
            deltas.append(float(er[dcol]))
        except (ValueError, IndexError):
            raise GoromError(f"{pair}: row {i + 1} needs a number in each "
                             "xi, s and delta column") from None
        if xi_est != xi_true:
            raise GoromError(f"{pair}: row {i + 1} is at another parameter point")
        errors.append(float(np.linalg.norm(s_true - s_est)))
        snorms.append(float(np.linalg.norm(s_true)))
    try:
        report = effectivity_report(deltas, errors, s_norms=snorms, bins=args.bins)
    except ValueError as exc:
        raise GoromError(f"{pair}: {exc}") from None
    payload = {
        "mean": report.mean,
        "maxmin_ratio": report.maxmin_ratio,
        "nstd": report.nstd,
        "included_count": report.n_included,
        "excluded_count": report.n_excluded,
        "histogram": {
            "edges": report.hist_edges.tolist(),
            "counts": report.hist_counts.tolist(),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"eta mean={report.mean:.4g} maxmin={report.maxmin_ratio:.4g} "
          f"nstd={report.nstd:.4g} -> {args.out}")
    return 0


def cmd_compare(args):
    model, V, WQ, precond = _load_all(args)
    xis = _read_xi(args, model)
    trace_file = Path(args.spaces) / "trace.json"
    nfact = ""
    if trace_file.is_file():
        with open(trace_file) as fh:
            tr = json.load(fh)
        if tr["iterations"]:
            nfact = tr["iterations"][-1]["factorizations"]
    truth = map_points(lambda xi: truth_solve(model, xi)[1], xis,
                          args.threads)
    cache = ReducedCache(model, V, WQ, precond=precond)
    rows = []
    for method in METHODS:
        sup_delta = ""
        if method in ("primal-dual", "saddle"):
            results = _estimates(model, cache, precond, method, "auto", xis,
                                 args.threads)
            sup_delta = max(rec.delta for _, rec in results)
            ss = [s for s, _ in results]
        else:
            ss = map_points(lambda xi: cache.solve(xi, method).s_tilde,
                               xis, args.threads)
        errors = [model.z_norm(s - st) for s, st in zip(ss, truth)]
        r, k = V.dim, WQ.dim
        cost = {
            "primal": online_cost("primal-dual", model.symmetry, r, 0),
            "dual": online_cost("primal-dual", model.symmetry, 0, k),
            "primal-dual": online_cost("primal-dual", model.symmetry, r, k),
            "saddle": online_cost("saddle", model.symmetry, r, k),
        }[method]
        rows.append([
            method, r, k, r + k,
            float(np.sqrt(np.mean(np.square(errors)))),
            float(np.max(errors)),
            sup_delta, nfact, cost,
        ])
    header = ["method", "r", "k", "p", "l2_error", "linf_error",
              "sup_delta", "offline_factorizations", "online_cost"]
    _write_csv(args.out, header, rows)
    print(f"wrote method comparison over {len(xis)} points to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_xi_args(p):
    p.add_argument("--xi-file", help="CSV with columns xi1..xid")
    p.add_argument("--sample-count", type=int, default=0,
                   help="draw this many points from the parameter domain")
    p.add_argument("--sample-seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gorom",
        description="goal-oriented reduced-order modeling toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a problem bundle")
    p.add_argument("--kind", choices=("diffusion", "advection-diffusion"),
                   default="diffusion")
    p.add_argument("--n", type=int, default=900)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--l", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("offline", help="greedy construction of reduced spaces")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True, help="greedy config JSON")
    p.add_argument("--precond", action="store_true",
                   help="enable the operator-inverse interpolant "
                        "(config key precondition)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for the estimate sweep (default: serial)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("truth", help="full-order outputs at sample points")
    p.add_argument("--bundle", required=True)
    _add_xi_args(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for per-point work (default: cores)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_truth)

    p = sub.add_parser("eval", help="online reduced output estimates")
    p.add_argument("--bundle", required=True)
    p.add_argument("--spaces", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    _add_xi_args(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for per-point solves (default: cores)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("constants", help="quasi-optimality constants")
    p.add_argument("--bundle", required=True)
    p.add_argument("--spaces", required=True)
    p.add_argument("--space", choices=("dual", "primal"), default="dual",
                   help="test space for delta_L (default: the dual space)")
    _add_xi_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("estimate", help="online error estimates")
    p.add_argument("--bundle", required=True)
    p.add_argument("--spaces", required=True)
    p.add_argument("--method", choices=("primal-dual", "saddle"), required=True)
    p.add_argument("--alpha", choices=("auto", "min-theta", "none"),
                   default="auto")
    _add_xi_args(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for per-point work (default: cores)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("stats", help="effectivity statistics")
    p.add_argument("--est", required=True, help="output of gorom estimate")
    p.add_argument("--truth", required=True,
                   help="output of gorom truth at the same points, in the same order")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", help="error norms and costs per method")
    p.add_argument("--bundle", required=True)
    p.add_argument("--spaces", required=True)
    _add_xi_args(p)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for per-point work (default: cores)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GoromError as exc:
        print(f"gorom {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
