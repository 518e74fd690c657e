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

The point commands (``truth``, ``eval``, ``constants``, ``estimate`` and
``compare``) share one declaration of ``--bundle``, ``--spaces``, the point
source and ``--out``, and all but ``compare`` write their tables through one
writer that puts ``xi1..xid`` first.  The JSON and MatrixMarket formats, and
the refusal of an input file that does not parse, live in :mod:`gorom.bundle`.
"""

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import check_fields, load_bundle, read_json, store_bundle, write_json
from .constants import compute_constants
from .estimators import effectivity_report, estimate_error
from .exceptions import GoromError, GreedyAborted
from .greedy import GreedyConfig, online_cost, run_greedy
from .preconditioner import InverseInterpolant
from .problems import ProblemConfig, make_problem, sample_parameters, truth_solve
from .projectors import BlockStore, ReducedCache, map_points
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


def _columns(prefix, count):
    return [f"{prefix}{j + 1}" for j in range(count)]


def _write_points(args, model, xis, header, rows, what):
    """A point command's table: one row per point, ``xi1..xid`` first."""
    _write_csv(args.out, _columns("xi", model.d) + header,
               [[*xi, *row] for xi, row in zip(xis, rows)])
    print(f"wrote {len(xis)} {what} to {args.out}")


def _read_xi(args, model):
    if args.xi_file:
        with open(args.xi_file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            try:
                cols = [header.index(h) for h in _columns("xi", model.d)]
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


def _write_manifest(outdir, command, config, seeds, bundle_hash=None):
    write_json(Path(outdir) / "manifest.json", {
        "tool": "gorom",
        "version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "bundle_hash": bundle_hash,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


# the reduced blocks of the greedy's final spaces
_BLOCKS = "blocks.npz"


def _ids(bundle_hash, V, WQ, precond):
    """The identity of the blocks of spaces V, WQ and precond (or None): the
    bundle hash and a sha256 of the float64 columns of each basis, with
    their shape, and of the interpolant's record, keyed by their files."""
    ids = {"bundle": bundle_hash}
    for name, basis in (("V.mtx", V), ("WQ.mtx", WQ)):
        cols = np.ascontiguousarray(basis.columns)
        digest = hashlib.sha256(str(cols.shape).encode())
        digest.update(cols)  # the array's own buffer: no copy of the columns
        ids[name] = digest.hexdigest()
    if precond is not None:
        record = json.dumps(precond.to_dict(), sort_keys=True)
        ids["precond.json"] = hashlib.sha256(record.encode()).hexdigest()
    return ids


def save_spaces(result, outdir, bundle_hash):
    """Write the spaces, trace, interpolant and reduced blocks of a greedy
    ``result``; the blocks record the identity of ``result``'s spaces and
    of the bundle, of hash ``bundle_hash``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result.V.save(outdir / "V.mtx")
    result.WQ.save(outdir / "WQ.mtx")
    result.trace.save(outdir / "trace.json")
    if result.precond is not None:
        write_json(outdir / "precond.json", result.precond.to_dict())
    result.cache.save(outdir / _BLOCKS,
                      _ids(bundle_hash, result.V, result.WQ, result.precond))


def load_spaces(model, path, bundle, bundle_hash):
    """Load (V, WQ, precond or None, store or None) written by ``gorom
    offline``: the store reads the blocks stored with the spaces.

    Spaces whose ``manifest.json`` names another hash than ``bundle_hash``,
    that of the ``bundle`` directory, are refused, and so are bases of
    another size than the model's, and stored blocks written with other
    spaces or another bundle; spaces without a manifest load.  The model
    takes the deviation of R_V0 from A(xi_ref) that the checked blocks record.
    """
    path = Path(path)
    mfile = path / "manifest.json"
    if mfile.is_file():
        expected = read_json(mfile, fields={"bundle_hash": (str, type(None))})["bundle_hash"]
        if expected is not None and expected != bundle_hash:
            raise GoromError(f"{path} was built from another bundle than {bundle}, "
                             "or by an older gorom; re-run gorom offline on this bundle")
    V = Basis.load(path / "V.mtx", model.deferred_gram_v0)
    WQ = Basis.load(path / "WQ.mtx", model.deferred_gram_v0)
    pfile, sfile = path / "precond.json", path / _BLOCKS
    precond = (InverseInterpolant.from_dict(model, read_json(pfile, fields={}), pfile)
               if pfile.is_file() else None)
    if not sfile.is_file():
        return V, WQ, precond, None
    store, found = BlockStore(sfile), _ids(bundle_hash, V, WQ, precond)
    for name in sorted(set(store.ids) | set(found)):
        if store.ids.get(name) != found.get(name):
            where = bundle if name == "bundle" else path / name
            raise GoromError(f"{sfile} was not written with {where}; re-run gorom offline")
    if store.v0_ref_deviation is not None:
        model.v0_ref_deviation = store.v0_ref_deviation
    return V, WQ, precond, store


def _load_all(args):
    """The model, the cache over the loaded spaces and their stored blocks,
    and the points of a command over spaces."""
    model, bundle_hash = load_bundle(args.bundle), _bundle_hash(args.bundle)
    V, WQ, precond, store = load_spaces(model, args.spaces, args.bundle, bundle_hash)
    cache = ReducedCache(model, V, WQ, precond=precond, store=store)
    return model, cache, _read_xi(args, model)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    kind = {"diffusion": "diffusion-spd",
            "advection-diffusion": "advection-diffusion"}[args.kind]
    try:
        model = make_problem(ProblemConfig(n=args.n, d=args.d, l=args.l,
                                           seed=args.seed, kind=kind))
    except ValueError as exc:
        raise GoromError(f"invalid problem settings: {exc}") from None
    store_bundle(model, args.out)
    cfg_echo = {"kind": args.kind, "n": args.n, "d": args.d,
                "l": args.l, "seed": args.seed}
    _write_manifest(args.out, "generate", cfg_echo, {"problem": args.seed})
    print(f"wrote bundle with n={model.n}, l={model.l}, d={model.d} to {args.out}")
    return 0


def cmd_offline(args):
    model = load_bundle(args.bundle)
    try:
        raw = read_json(args.config)
        if args.precond:
            raw["precondition"] = True
        cfg = GreedyConfig.from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise GoromError(f"{args.config}: invalid greedy config: {exc}") from None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_greedy(model, cfg, threads=args.threads)
    except GreedyAborted as exc:
        if exc.trace is not None:
            exc.trace.save(outdir / "trace.json")
        raise
    bundle_hash = _bundle_hash(args.bundle)
    save_spaces(result, outdir, bundle_hash)
    _write_manifest(outdir, "offline", cfg.to_dict(),
                    {"train": cfg.train_seed, "sketch": cfg.precond_seed}, bundle_hash)
    last = result.trace.iterations[-1]
    print(f"greedy finished: r={last.r}, k={last.k}, "
          f"{last.factorizations} factorizations, sup_delta={last.sup_delta:.3e}")
    return 0


def cmd_truth(args):
    model = load_bundle(args.bundle)
    xis = _read_xi(args, model)
    outs = map_points(lambda xi: truth_solve(model, xi)[1], xis, args.threads)
    _write_points(args, model, xis, _columns("s", model.l), outs, "truth outputs")
    return 0


def cmd_eval(args):
    model, cache, xis = _load_all(args)

    def solve_one(xi):
        t0 = time.perf_counter()
        s = cache.solve(xi, args.method).s_tilde
        return s, 1e3 * (time.perf_counter() - t0)

    results = map_points(solve_one, xis, args.threads)
    _write_points(args, model, xis, _columns("s", model.l) + ["method", "wall_time_ms"],
                  [[*s, args.method, f"{ms:.3f}"] for s, ms in results],
                  f"estimates ({args.method})")
    return 0


def cmd_constants(args):
    model, cache, xis = _load_all(args)
    test = cache.WQc if args.space == "dual" else cache.Vc
    reps = [compute_constants(model, xi, cache.Vc, test) for xi in xis]
    _write_points(args, model, xis, ["delta_vw", "delta_l", "alpha"],
                  [[rep.delta_vw, rep.delta_l, rep.alpha] for rep in reps],
                  "constant reports")
    return 0


def _estimates(cache, method, alpha, xis, threads):
    """(s_tilde, EstimateRecord) per point; a point's blocks end with its solution."""
    def one(xi):
        sol = cache.solve(xi, method)
        return sol.s_tilde, estimate_error(cache.model, sol, alpha, cache.precond)

    return map_points(one, xis, threads)


def cmd_estimate(args):
    model, cache, xis = _load_all(args)
    results = _estimates(cache, args.method, args.alpha, xis, args.threads)
    rows = [[rec.delta, rec.primal_factor, rec.dual_factor,
             "" if rec.alpha is None else rec.alpha, rec.method, int(rec.certified), *s]
            for s, rec in results]
    _write_points(args, model, xis, ["delta", "primal_factor", "dual_factor", "alpha",
                                     "method", "certified"] + _columns("s", model.l),
                  rows, "error estimates")
    return 0


def _numbered(header, prefix):
    """Column index by name of the columns prefix1, prefix2, ... of a header."""
    return {h: j for j, h in enumerate(header)
            if h.startswith(prefix) and h[len(prefix):].isdigit()}


def cmd_stats(args):
    def load(path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
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
    write_json(args.out, {
        "mean": report.mean,
        "maxmin_ratio": report.maxmin_ratio,
        "nstd": report.nstd,
        "included_count": report.n_included,
        "excluded_count": report.n_excluded,
        "histogram": {
            "edges": report.hist_edges.tolist(),
            "counts": report.hist_counts.tolist(),
        },
    })
    print(f"eta mean={report.mean:.4g} maxmin={report.maxmin_ratio:.4g} "
          f"nstd={report.nstd:.4g} -> {args.out}")
    return 0


def cmd_compare(args):
    model, cache, xis = _load_all(args)
    trace_file = Path(args.spaces) / "trace.json"
    iterations = (read_json(trace_file, fields={"iterations": list})["iterations"]
                  if trace_file.is_file() else [])
    nfact = (check_fields(trace_file, iterations[-1], {"factorizations": int})
             ["factorizations"] if iterations else "")
    truth = map_points(lambda xi: truth_solve(model, xi)[1], xis, args.threads)
    rows = []
    for method in METHODS:
        sup_delta = ""
        if method in ("primal-dual", "saddle"):
            results = _estimates(cache, method, "auto", xis, args.threads)
            sup_delta = max(rec.delta for _, rec in results)
            ss = [s for s, _ in results]
        else:
            ss = map_points(lambda xi: cache.solve(xi, method).s_tilde,
                               xis, args.threads)
        errors = [model.z_norm(s - st) for s, st in zip(ss, truth)]
        r, k = cache.r, cache.k
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

def _at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def count(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected at least {low}, not {text}")
        return int(text)
    return count


# map_points leaves the pool size to ThreadPoolExecutor when --threads is absent
_THREADS = dict(type=_at_least(1), default=None, help="worker threads for per-point "
                "work (default: min(32, cores + 4), the thread pool's own)")


def _point_command(sub, name, help, func, spaces=True):
    """A subcommand over parameter points with --bundle, --spaces, the point
    source and --out; the caller adds the command's own flags."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--bundle", required=True)
    if spaces:
        p.add_argument("--spaces", required=True)
    p.add_argument("--xi-file", help="CSV with columns xi1..xid")
    p.add_argument("--sample-count", type=_at_least(0), default=0,
                   help="draw this many points from the parameter domain")
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process."""
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
    p.add_argument("--threads", type=_at_least(1), default=None,
                   help="worker threads for the estimate sweep (default: serial)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_offline)

    p = _point_command(sub, "truth", "full-order outputs at sample points", cmd_truth,
                       spaces=False)
    p.add_argument("--threads", **_THREADS)

    p = _point_command(sub, "eval", "online reduced output estimates", cmd_eval)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--threads", **_THREADS)

    p = _point_command(sub, "constants", "quasi-optimality constants", cmd_constants)
    p.add_argument("--space", choices=("dual", "primal"), default="dual",
                   help="test space for delta_L (default: the dual space)")

    p = _point_command(sub, "estimate", "online error estimates", cmd_estimate)
    p.add_argument("--method", choices=("primal-dual", "saddle"), required=True)
    p.add_argument("--alpha", choices=("auto", "min-theta", "none"), default="auto")
    p.add_argument("--threads", **_THREADS)

    p = sub.add_parser("stats", help="effectivity statistics")
    p.add_argument("--est", required=True, help="output of gorom estimate")
    p.add_argument("--truth", required=True,
                   help="output of gorom truth at the same points, in the same order")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = _point_command(sub, "compare", "error norms and costs per method", cmd_compare)
    p.add_argument("--threads", **_THREADS)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GoromError, OSError) as exc:
        print(f"gorom {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
