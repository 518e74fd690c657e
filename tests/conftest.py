import numpy as np
import pytest

from gorom import (
    Basis,
    InverseInterpolant,
    ProblemConfig,
    ReducedCache,
    dual_truth_solve,
    make_advection_diffusion_problem,
    make_diffusion_problem,
    truth_solve,
)


@pytest.fixture(scope="session")
def spd_small():
    cfg = ProblemConfig(n=100, d=3, l=8, seed=1, kind="diffusion-spd")
    return make_diffusion_problem(cfg)


@pytest.fixture(scope="session")
def gen_small():
    cfg = ProblemConfig(n=100, d=4, l=2, seed=2, kind="advection-diffusion")
    return make_advection_diffusion_problem(cfg)


def snapshot_spaces(model, n_primal, n_dual, seed):
    """Primal/dual bases from truth snapshots at sampled points."""
    rng = np.random.default_rng(seed)
    xis = model.domain.sample(n_primal + n_dual, rng)
    V = Basis(model.gram_v0, model.n, name="V")
    WQ = Basis(model.gram_v0, model.n, name="WQ")
    for xi in xis[:n_primal]:
        u, _ = truth_solve(model, xi)
        V.append(u)
    for xi in xis[n_primal:]:
        WQ.extend(dual_truth_solve(model, xi))
    return V, WQ


@pytest.fixture(scope="session")
def spd_spaces(spd_small):
    return snapshot_spaces(spd_small, 4, 1, seed=101)


@pytest.fixture(scope="session")
def gen_spaces(gen_small):
    return snapshot_spaces(gen_small, 4, 2, seed=102)


def model_cache(which, spd_small, gen_small, spd_spaces, gen_spaces):
    """(model, V, WQ, interpolant or None, ReducedCache) for "spd", "general"
    or "general-precond" (two interpolation points)."""
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    P = None
    if which == "general-precond":
        P = InverseInterpolant(model, sketch_size=40, seed=7)
        for pt in model.domain.sample(2, np.random.default_rng(29)):
            P.add_point(pt)
    return model, V, WQ, P, ReducedCache(model, V, WQ, precond=P)


@pytest.fixture
def reduced_factors(monkeypatch):
    """(kind, matrix) of every reduced factor made while the test runs: "lu"
    for a CheckedLU, "cho" for an SpdFactor."""
    from gorom import _linalg
    made = []
    for cls, kind in ((_linalg.CheckedLU, "lu"), (_linalg.SpdFactor, "cho")):
        def init(self, M, what=None, _original=cls.__init__, _kind=kind):
            made.append((_kind, np.array(M)))
            _original(self, M, what)

        monkeypatch.setattr(cls, "__init__", init)
    return made
