"""The workloads and the loop that runs, times and checks them.

Every workload drives the public entry point ``gorom.cli.main`` in-process
through the whole pipeline ``generate -> offline -> truth -> eval (4 routes)
-> estimate (2 routes) -> stats``, so every end-to-end metric exists on every
workload.  The ``prepared`` commands form the set-up.  A workload with
``truth_chunks`` runs ``truth`` once, after the first set-up, as that many
commands on equal shares of the points; otherwise ``truth`` is part of the
pass.  The remaining commands form one timed pass, repeated until the run's
seconds are spent.  The first pass is checked; the later ones compute the
same outputs from the same inputs and are only timed, so the count of checked
operations does not depend on how many passes fit into the run.  Every
command gets ``--threads 1``: one pool worker, on BLAS pinned to one thread.
"""

import contextlib
import csv
import gc
import io
import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

from gorom import cli
from gorom.bundle import load_bundle
from gorom.problems import sample_parameters

import checks

ROUTES = ("primal", "dual", "primal-dual", "saddle")
ESTIMATE_ROUTES = ("primal-dual", "saddle")
STAGES = ("generate", "offline", "truth", "eval", "estimate", "stats")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # --kind of ``gorom generate``
    n: int
    d: int
    l: int
    greedy: dict            # greedy config; the train seed comes from --seed
    precond: bool           # ``offline --precond``
    truth_points: int       # points of ``truth``
    points: int             # the first of those, given to ``eval``
    estimate_points: int    # the first of those, given to ``estimate`` and ``stats``
    prepared: tuple         # commands of the set-up, run before the timed passes
    truth_chunks: int       # > 0: truth runs once, before the passes, in this many commands
    tolerance: dict         # route -> largest relative Z-norm error against truth
    certified: bool         # estimate emits certified bounds (spd) or surrogates


def _greedy(method, max_iter, train_count):
    return {"max_iter": max_iter, "enrichment": "full", "schedule": "simultaneous",
            "method": method, "train_count": train_count}


# Tolerances sit well above the errors the seed's spaces reach at these sizes
# (about 1e-10 on spd-online, 1e-4 on spd-offline, 1e-2 on adv-precond).  The
# primal-only route has no dual correction, so its output error is of the
# order of the output itself; its tolerance only catches garbage.
def _tol(primal, dual, corrected):
    return {"primal": primal, "dual": dual, "primal-dual": corrected, "saddle": corrected}


WORKLOADS = {
    # the online phase: eval and estimate over fixed spaces; projectors and
    # estimators do the work, the model factorizes nothing in the timed part.
    # eval on 400 points and estimate (about 10 ms a point) on 100, so that
    # per-point work outweighs each command's fixed cost (loading the bundle
    # and building its ReducedCache, about 0.3 s) and a pass is short enough
    # to repeat several times in a run.  The truth for the checks runs once,
    # in 10 commands of 40 points, each a sample of truth_pts_per_s.
    "spd-online": Workload(
        "spd-online", "diffusion", 900, 6, 30, _greedy("primal-dual", 10, 12),
        False, 400, 400, 100, ("generate", "offline"), 10,
        _tol(2.0, 1e-6, 1e-6), True),
    # full-order work: dense factorizations, truth solves and a ReducedCache
    # rebuilt every greedy iteration (spd-online only reads its spaces)
    "spd-offline": Workload(
        "spd-offline", "diffusion", 1600, 6, 15, _greedy("saddle", 5, 16),
        False, 10, 10, 10, (), 0, _tol(2.0, 1e-2, 1e-2), True),
    # the nonsymmetric path: interpolated inverse, parameter-dependent test
    # space and dynamic T; the only workload that fits interpolant weights
    "adv-precond": Workload(
        "adv-precond", "advection-diffusion", 400, 4, 2, _greedy("primal-dual", 6, 12),
        True, 150, 5, 5, (), 0, _tol(0.5, 0.5, 0.1), False),
}

# tiny sizes for the smoke mode: every command and metric, in seconds
_TINY_TOL = _tol(10.0, 10.0, 10.0)
TINY = {
    "spd-online": dict(n=64, d=2, l=5, greedy=_greedy("primal-dual", 3, 8),
                       truth_points=8, points=8, estimate_points=4, truth_chunks=2,
                       tolerance=_TINY_TOL),
    "spd-offline": dict(n=100, d=2, l=5, greedy=_greedy("saddle", 3, 8),
                        truth_points=8, points=8, estimate_points=8, tolerance=_TINY_TOL),
    "adv-precond": dict(n=64, d=3, l=2, greedy=_greedy("primal-dual", 3, 8),
                        truth_points=8, points=4, estimate_points=4, tolerance=_TINY_TOL),
}


def get(name, tiny=False):
    spec = WORKLOADS[name]
    return replace(spec, **TINY[name]) if tiny else spec


class CommandFailed(Exception):
    pass


class Runner:
    """Runs one workload's commands in a work directory and keeps their times."""

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.problem_seed = seed
        self.train_seed = seed + 1
        self.sample_seed = seed + 2
        self.workdir = Path(workdir)
        self.tally = checks.Tally()
        self.times = {}              # command label -> CPU seconds, one per run
        self.wall_times = {}         # command label -> wall seconds, one per run
        self.clock = 0.0             # CPU seconds spent in CLI commands so far
        self.max_rel_error = {}      # output label -> largest relative error seen
        self.dims = None             # the final greedy iteration, from trace.json
        self.inputs = None           # directory of the set-up the passes read
        self.truth_size = None       # points per truth command
        self.checked = False         # whether a pass has been checked

    # -- one CLI command ---------------------------------------------------

    def _cli(self, label, argv):
        """Run one command; its time is the process's CPU time during it.

        With one BLAS thread and one pool worker that equals the wall time of
        an unloaded machine, and it leaves out the time the hypervisor takes
        the virtual CPU away (steal), which makes wall time drift by up to 2x
        over minutes on a shared two-core VM.
        """
        out = io.StringIO()
        gc.collect()                 # each command starts from a collected heap
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash of one command fails the run, not the benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds, wall = time.process_time() - t0, time.perf_counter() - w0
        if rc != 0:
            self.tally.fail(f"{label}: command failed ({rc}) {out.getvalue().strip()[-200:]}")
            raise CommandFailed(label)
        self.times.setdefault(label, []).append(seconds)
        self.wall_times.setdefault(label, []).append(wall)
        self.clock += seconds

    def _in_pass(self, cmd):
        return cmd not in self.spec.prepared \
            and not (cmd == "truth" and self.spec.truth_chunks)

    def _inputs(self, dst):
        """Bundle, spaces, truth, eval points and estimate points: from the
        set-up directory unless the pass makes them."""
        def where(cmd):
            return dst if self._in_pass(cmd) else self.inputs
        truth = where("truth")
        return (where("generate") / "bundle", where("offline") / "spaces",
                truth / "truth.csv", truth / "points.csv", truth / "estimate-points.csv")

    def _split_truth(self, truth):
        """The first ``points`` and ``estimate_points`` rows of the truth file."""
        s, lines = self.spec, truth.read_text().splitlines(keepends=True)
        truth.with_name("points.csv").write_text("".join(lines[:s.points + 1]))
        truth.with_name("estimate-points.csv").write_text(
            "".join(lines[:s.estimate_points + 1]))

    def _run(self, cmd, dst, check):
        """Run one pipeline stage, writing its outputs under dst."""
        s, threads = self.spec, ("--threads", 1)
        bundle, spaces, truth, points, est_points = self._inputs(dst)
        if cmd == "generate":
            self._cli(cmd, ["generate", "--kind", s.kind, "--n", s.n, "--d", s.d,
                            "--l", s.l, "--seed", self.problem_seed, "--out", bundle])
            if check:
                checks.check_generate(self.tally, bundle, s.n, s.l)
        elif cmd == "offline":
            config = dst / "greedy.json"
            config.write_text(json.dumps({**s.greedy, "train_seed": self.train_seed}))
            self._cli(cmd, ["offline", "--bundle", bundle, "--config", config,
                            *(["--precond"] if s.precond else []), *threads,
                            "--out", spaces])
            if check:
                self.dims = checks.check_offline(self.tally, spaces, s.greedy["max_iter"])
        elif cmd == "truth":
            self._cli(cmd, ["truth", "--bundle", bundle, "--sample-count", s.truth_points,
                            "--sample-seed", self.sample_seed, *threads, "--out", truth])
            self.truth_size = s.truth_points
            if check:
                checks.check_truth(self.tally, checks.Truth.load(truth, bundle),
                                   s.truth_points)
            self._split_truth(truth)
        elif cmd == "eval":
            for route in ROUTES:
                self._cli(f"eval {route}", [
                    "eval", "--bundle", bundle, "--spaces", spaces, "--method", route,
                    "--xi-file", points, *threads, "--out", dst / f"eval-{route}.csv"])
        elif cmd == "estimate":
            for route in ESTIMATE_ROUTES:
                self._cli(f"estimate {route}", [
                    "estimate", "--bundle", bundle, "--spaces", spaces, "--method", route,
                    "--xi-file", est_points, *threads,
                    "--out", dst / f"estimate-{route}.csv"])
        elif cmd == "stats":
            self._cli(cmd, ["stats", "--est", dst / "estimate-primal-dual.csv",
                            "--truth", est_points, "--out", dst / "stats.json"])

    def chunked_truth(self):
        """``truth`` at the set-up's sample points, once, in equal chunks.

        The points are those ``truth --sample-count`` would draw.  Each chunk
        is one checked command and one sample of the truth time; the chunks'
        rows, in order, form the truth file the passes read and are checked
        against.
        """
        s, dst = self.spec, self.inputs
        bundle = self._inputs(dst)[0]
        xis = sample_parameters(load_bundle(bundle).domain, s.truth_points,
                                self.sample_seed)
        header, rows = None, []
        for j in range(s.truth_chunks):
            chunk = xis[j * len(xis) // s.truth_chunks:(j + 1) * len(xis) // s.truth_chunks]
            xi_file, out = dst / f"xi-{j}.csv", dst / f"truth-{j}.csv"
            with open(xi_file, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow([f"xi{i + 1}" for i in range(s.d)])
                writer.writerows([repr(float(x)) for x in xi] for xi in chunk)
            self._cli("truth", ["truth", "--bundle", bundle, "--xi-file", xi_file,
                                "--threads", 1, "--out", out])
            checks.check_truth(self.tally, checks.Truth.load(out, bundle), len(chunk))
            lines = out.read_text().splitlines(keepends=True)
            header, rows = lines[0], rows + lines[1:]
        self.truth_size = s.truth_points / s.truth_chunks
        truth = dst / "truth.csv"
        truth.write_text(header + "".join(rows))
        self._split_truth(truth)

    def _check_pass(self, dst):
        s = self.spec
        bundle, _, _, points, est_points = self._inputs(dst)
        truth = checks.Truth.load(points, bundle)
        for route in ROUTES:
            self._note(f"eval {route}", checks.check_eval(
                self.tally, route, truth, dst / f"eval-{route}.csv", s.tolerance[route]))
        truth = checks.Truth.load(est_points, bundle)
        for route in ESTIMATE_ROUTES:
            self._note(f"estimate {route}", checks.check_estimate(
                self.tally, route, truth, dst / f"estimate-{route}.csv",
                s.tolerance[route], s.certified))
        checks.check_stats(self.tally, dst / "stats.json", s.estimate_points)

    def _note(self, label, rel):
        if rel is not None:
            self.max_rel_error[label] = max(rel, self.max_rel_error.get(label, 0.0))

    # -- set-up and passes -------------------------------------------------

    def setup(self, index):
        """One set-up into a fresh directory, checked; returns its CPU time.

        The first set-up makes the inputs of every pass; a later one makes
        the same files again, for its time only, and is removed.
        """
        dst = self.workdir / f"setup{index}"
        first, self.inputs = self.inputs, dst
        t0 = time.process_time()
        dst.mkdir(parents=True)
        for cmd in self.spec.prepared:
            self._run(cmd, dst, check=True)
        seconds = time.process_time() - t0
        if first is not None:
            self.inputs = first
            shutil.rmtree(dst)
        return seconds

    def timed_pass(self):
        """One pass of the commands the set-up did not run; only the first is checked.

        Returns the CPU seconds spent in those CLI commands; the benchmark's
        own work between them (checks, collecting garbage) is not counted.
        """
        dst = self.workdir / "pass"
        shutil.rmtree(dst, ignore_errors=True)
        dst.mkdir(parents=True)
        check, self.checked = not self.checked, True
        start = self.clock
        for cmd in STAGES:
            if self._in_pass(cmd):
                self._run(cmd, dst, check)
        seconds = self.clock - start
        if check:
            self._check_pass(dst)
        return seconds
