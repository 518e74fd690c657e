"""Checks of every CLI output against full-order truth.

One operation is one CLI command or one checked point of an ``eval`` or
``estimate`` command.  A failed check makes the run incorrect, with one
exception: a certified ``delta`` of exactly 0 while the error is nonzero is
a failed operation but leaves the run correct.  It is a known defect of the
program, reported and never dropped.  A certified ``delta`` above 0 but
below the true error (where that error is above the floor of
``effectivity_report``) makes the run incorrect.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import mmread

# the relative floor below which effectivity_report excludes an error
ERROR_FLOOR = 1e-14


@dataclass
class Tally:
    """Operations attempted and failed, with a count per failure reason."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict = field(default_factory=dict)

    def ok(self):
        self.attempted += 1

    def fail(self, reason, wrong=True):
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _outputs(header, rows):
    cols = [j for j, h in enumerate(header) if h[:1] == "s" and h[1:].isdigit()]
    return np.array([[float(r[j]) for j in cols] for r in rows]).reshape(len(rows), -1)


def _xi(header, rows):
    cols = [j for j, h in enumerate(header) if h.startswith("xi")]
    return [[r[j] for j in cols] for r in rows]


@dataclass
class Truth:
    """Truth outputs at the checked points, with the output Gram R_Z."""

    xi: list
    s: np.ndarray
    gram_z: np.ndarray

    @classmethod
    def load(cls, truth_csv, bundle_dir):
        header, rows = _read_csv(truth_csv)
        gram_z = mmread(str(Path(bundle_dir) / "R_Z.mtx"))
        gram_z = gram_z.toarray() if hasattr(gram_z, "toarray") else gram_z
        return cls(_xi(header, rows), _outputs(header, rows),
                   np.asarray(gram_z, dtype=float))

    def z_norms(self, diff):
        return np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", diff, self.gram_z, diff), 0.0))


def check_generate(tally, bundle_dir, n, l):
    meta = json.loads((Path(bundle_dir) / "model.json").read_text())
    if meta["n"] == n and meta["l"] == l:
        tally.ok()
    else:
        tally.fail(f"generate: bundle has n={meta['n']}, l={meta['l']}")


def check_offline(tally, spaces_dir, max_iter):
    """Checks the greedy trace; returns the final (r, k, p, m, online_cost)."""
    spaces_dir = Path(spaces_dir)
    trace = json.loads((spaces_dir / "trace.json").read_text())
    its = trace["iterations"]
    dims = [json.loads((spaces_dir / f"{b}.json").read_text())["dim"]
            for b in ("V", "WQ")]
    pfile = spaces_dir / "precond.json"
    m = len(json.loads(pfile.read_text())["points"]) if pfile.is_file() else 0
    if trace["aborted"] or len(its) != max_iter \
            or dims != [its[-1]["r"], its[-1]["k"]]:
        tally.fail("offline: greedy aborted or its trace disagrees with the spaces")
        return None
    tally.ok()
    last = its[-1]
    return {"r": last["r"], "k": last["k"], "p": last["p"], "m": m,
            "method": trace["config"]["method"], "online_cost": last["online_cost"]}


def check_truth(tally, truth, points):
    if len(truth.xi) == points and np.all(np.isfinite(truth.s)):
        tally.ok()
    else:
        tally.fail("truth: wrong row count or non-finite outputs")


def _point_errors(tally, what, truth, path):
    """Rows of a CLI output file with Z-norm errors against truth, or None."""
    header, rows = _read_csv(path)
    if _xi(header, rows) != truth.xi:
        tally.fail(f"{what}: rows do not match the truth points")
        return None
    err = truth.z_norms(_outputs(header, rows) - truth.s)
    snorm = truth.z_norms(truth.s)
    rel = err / np.maximum(snorm, np.finfo(float).tiny)
    return header, rows, err, snorm, rel


def _too_far(rel, tol):
    return not np.isfinite(rel) or rel > tol


def check_eval(tally, route, truth, path, tol):
    """Each point's output within ``tol`` relative Z-norm error of truth.

    Returns the largest relative error, or None when the file is unusable.
    """
    what = f"eval {route}"
    found = _point_errors(tally, what, truth, path)
    if found is None:
        return None
    rel = found[-1]
    for value in rel:
        if _too_far(value, tol):
            tally.fail(f"{what}: output error above the tolerance {tol:g}")
        else:
            tally.ok()
    return float(np.max(rel))


def check_estimate(tally, route, truth, path, tol, certified):
    """Output accuracy, plus ``delta >= ||s - s~||_Z`` for certified bounds."""
    what = f"estimate {route}"
    found = _point_errors(tally, what, truth, path)
    if found is None:
        return None
    header, rows, err, snorm, rel = found
    delta = np.array([float(r[header.index("delta")]) for r in rows])
    flags = [r[header.index("certified")] for r in rows]
    for j in range(len(rows)):
        if _too_far(rel[j], tol):
            tally.fail(f"{what}: output error above the tolerance {tol:g}")
        elif flags[j] != str(int(certified)) or not np.isfinite(delta[j]) \
                or delta[j] < 0.0:
            tally.fail(f"{what}: malformed estimate record")
        elif certified and delta[j] == 0.0 and err[j] > 0.0:
            tally.fail(f"{what}: certified delta is 0 while the error is nonzero",
                       wrong=False)
        elif certified and err[j] > ERROR_FLOOR * snorm[j] and delta[j] < err[j]:
            tally.fail(f"{what}: certified delta below the true error")
        elif not certified and delta[j] == 0.0:
            tally.fail(f"{what}: surrogate delta is 0")
        else:
            tally.ok()
    return float(np.max(rel))


def check_stats(tally, report_path, points):
    rep = json.loads(Path(report_path).read_text())
    if rep["included_count"] + rep["excluded_count"] == points \
            and np.isfinite(rep["mean"]) and rep["mean"] > 0.0:
        tally.ok()
    else:
        tally.fail("stats: counts do not add up or the mean is not positive")
