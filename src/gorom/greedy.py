"""Greedy construction of the primal and dual reduced spaces.

Two schedules are provided: the simultaneous construction enriches both
spaces from the same selected parameter each iteration; the alternate
construction enriches the primal space on odd iterations and the dual
space on even ones (one factorization either way, so reaching equal
dimensions costs about twice the factorizations).  Dual enrichment is
either full (all columns of the dual snapshot) or partial (a single
vector along the worst output direction).

Each iteration's :class:`ReducedCache` grows the blocks the previous one
read by the columns the enrichment added, so an iteration's Riesz solves and
block products scale with what it added, not with the space dimensions.
The saddle route's T = V + WQ is therefore in enrichment order, the
previous T followed by the new V and then the new WQ columns.  After the
last iteration the cache grows once more, to the final spaces, and the
result carries it: ``gorom offline`` saves the reduced blocks the last
iteration read, T among them when it read T, and the online commands read
them.

Each iteration records the selected point, the estimate supremum over the
training set, space dimensions, the cumulative factorization count, and a
cubic online-cost estimate for the active method.

trace.json schema (written by ``GreedyTrace.save``)::

    {
      "config": { ... echo of GreedyConfig ... },
      "aborted": null | "iteration <i>: <reason>",
      "iterations": [
        {
          "index": 1,                 # 1-based iteration counter
          "selected_index": 17,       # position of xi in the training set
          "xi": [ ... ],              # the selected parameter point
          "sup_delta": 0.123,         # estimate supremum before enrichment
          "enriched": "primal+dual-full",
          "accepted_primal": 1, "rejected_primal": 0,
          "accepted_dual": 6,  "rejected_dual": 0,
          "r": 1, "k": 6, "p": 7,     # dimensions after enrichment
          "factorizations": 1,        # cumulative operator factorizations
          "online_cost": 228.6,       # cubic estimate for the active method
          "delta_at_previous": [...]  # estimates at earlier selected points
        }, ...
      ]
    }
"""

import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._linalg import dense
from .bundle import write_json
from .estimators import estimate_error, select_output_direction
from .exceptions import GoromError, GreedyAborted
from .preconditioner import InverseInterpolant
from .problems import sample_parameters
from .projectors import ReducedCache, map_points
from .spaces import Basis

__all__ = ["GreedyConfig", "GreedyIteration", "GreedyTrace", "GreedyResult",
           "argmax_delta", "run_greedy"]

ONLINE_COST_C = 2.0 / 3.0


@dataclass
class GreedyConfig:
    """Knobs of the greedy offline phase."""

    max_iter: int = 10
    enrichment: str = "full"            # "full" | "partial"
    schedule: str = "simultaneous"      # "simultaneous" | "alternate"
    method: str = "primal-dual"         # "primal-dual" | "saddle"
    train_count: int = 200
    train_seed: int = 0
    train_points: list | None = None    # explicit training set, overrides sampler
    stop_threshold: float = 0.0
    precondition: bool = False
    precond_sketch: int = 400
    precond_seed: int = 13
    precond_positivity: bool = True

    def __post_init__(self):
        kinds = {int: numbers.Integral, float: numbers.Real, bool: bool}
        for f in fields(self):
            value, kind = getattr(self, f.name), kinds.get(f.type)
            if kind and (not isinstance(value, kind)
                         or isinstance(value, bool) and f.type is not bool):
                raise TypeError(f"{f.name} must be of type {f.type.__name__}, not {value!r}")
        for name, low in (("max_iter", 1), ("precond_sketch", 1), ("train_seed", 0),
                          ("precond_seed", 0), ("stop_threshold", 0)):
            if not getattr(self, name) >= low:  # refuses a NaN threshold too
                raise ValueError(f"{name} must be at least {low}")
        if self.enrichment not in ("full", "partial"):
            raise ValueError(f"unknown enrichment {self.enrichment!r}")
        if self.schedule not in ("simultaneous", "alternate"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.method not in ("primal-dual", "saddle"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.train_points is not None:
            points = np.asarray(self.train_points, dtype=float)
            if points.ndim != 2 or len(points) == 0:
                raise ValueError("train_points must be a nonempty list of points")
        elif self.train_count < 1:
            raise ValueError("training set must be nonempty")

    def to_dict(self):
        d = asdict(self)
        if d["train_points"] is not None:
            d["train_points"] = [list(map(float, p)) for p in d["train_points"]]
        return d

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise GoromError(
                f"unknown greedy config keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**d)


@dataclass
class GreedyIteration:
    index: int
    selected_index: int
    xi: list
    sup_delta: float
    enriched: str
    accepted_primal: int
    rejected_primal: int
    accepted_dual: int
    rejected_dual: int
    r: int
    k: int
    p: int
    factorizations: int
    online_cost: float
    delta_at_previous: list


@dataclass
class GreedyTrace:
    config: dict
    iterations: list = field(default_factory=list)
    aborted: str | None = None

    def to_dict(self):
        return {
            "config": self.config,
            "aborted": self.aborted,
            "iterations": [asdict(it) for it in self.iterations],
        }

    def save(self, path):
        write_json(path, self.to_dict())


@dataclass
class GreedyResult:
    """The spaces, interpolant and trace of a greedy run, and ``cache``, the
    blocks its last iteration read, grown to the final spaces."""

    V: Basis
    WQ: Basis
    precond: InverseInterpolant | None
    trace: GreedyTrace
    cache: ReducedCache


def argmax_delta(deltas):
    """Index of the largest estimate; ties break to the lowest index."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("empty estimate list")
    return int(np.argmax(deltas))


def online_cost(method, symmetry, r, k):
    """Cubic flop-count estimate of one online reduced solve."""
    if method == "primal-dual":
        return ONLINE_COST_C * (r ** 3 + k ** 3)
    if symmetry == "spd":
        return ONLINE_COST_C * (r + k) ** 3
    return ONLINE_COST_C * (2 * r + k) ** 3


def _training_set(model, cfg):
    if cfg.train_points is not None:
        return np.asarray(cfg.train_points, dtype=float)
    return sample_parameters(model.domain, cfg.train_count, cfg.train_seed)


def run_greedy(model, cfg, threads=None):
    """Run the configured greedy construction; returns a GreedyResult.

    ``threads`` parallelizes the per-point estimate sweep (the threads share
    each iteration's cache, whose blocks are built once); selection,
    enrichment, and the trace are identical to the serial run.
    """
    train = _training_set(model, cfg)
    V = Basis(model.gram_v0, model.n, name="V")
    WQ = Basis(model.gram_v0, model.n, name="WQ")
    precond = None
    if cfg.precondition:
        precond = InverseInterpolant(model, cfg.precond_sketch,
                                     cfg.precond_seed, cfg.precond_positivity)
    trace = GreedyTrace(config=cfg.to_dict())
    selected = []
    nfact = 0
    cache = None

    for i in range(1, cfg.max_iter + 1):
        cache = ReducedCache(model, V, WQ, precond=precond, previous=cache)
        try:
            deltas = [rec.delta for rec in map_points(
                lambda xi: estimate_error(model, cache.solve(xi, cfg.method),
                                          precond=precond),
                train, threads or 1)]
            jstar = argmax_delta(deltas)
            sup_delta = float(deltas[jstar])
            delta_prev = [float(deltas[j]) for j in selected]
            if sup_delta < cfg.stop_threshold:
                break
            xi_star = train[jstar]
            fact = model.factorize_operator(xi_star)
            nfact += 1
            if precond is not None:
                precond.add_point(xi_star, fact)

            do_primal = cfg.schedule == "simultaneous" or i % 2 == 1
            do_dual = cfg.schedule == "simultaneous" or i % 2 == 0
            # snapshots first: the factor is freed before the bases and the cache grow
            u = fact.solve(model.rhs_at(xi_star)) if do_primal else None
            if do_dual:
                Lt = dense(model.output_at(xi_star)).T
                if cfg.enrichment == "partial":
                    Lt = Lt @ select_output_direction(model, xi_star, cache, cfg.method)
                Q = fact.solve(Lt, transpose=True)
            del fact
            acc_p = rej_p = acc_d = rej_d = 0
            kinds = []
            if do_primal:
                ok = V.append(u)
                acc_p, rej_p = int(ok), int(not ok)
                kinds.append("primal")
            if do_dual and cfg.enrichment == "full":
                acc_d = WQ.extend(Q)
                rej_d = model.l - acc_d
                kinds.append("dual-full")
            elif do_dual:
                ok = WQ.append(Q)
                acc_d, rej_d = int(ok), int(not ok)
                kinds.append("dual-partial")
        except GoromError as exc:
            trace.aborted = f"iteration {i}: {exc}"
            raise GreedyAborted(str(exc), trace=trace) from exc
        selected.append(jstar)
        p = V.dim + WQ.dim
        trace.iterations.append(GreedyIteration(
            index=i,
            selected_index=jstar,
            xi=[float(x) for x in xi_star],
            sup_delta=sup_delta,
            enriched="+".join(kinds),
            accepted_primal=acc_p,
            rejected_primal=rej_p,
            accepted_dual=acc_d,
            rejected_dual=rej_d,
            r=V.dim,
            k=WQ.dim,
            p=p,
            factorizations=nfact,
            online_cost=online_cost(cfg.method, model.symmetry, V.dim, WQ.dim),
            delta_at_previous=delta_prev,
        ))
    cache = ReducedCache(model, V, WQ, precond=precond, previous=cache)
    return GreedyResult(V=V, WQ=WQ, precond=precond, trace=trace, cache=cache)
