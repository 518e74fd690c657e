import numpy as np
import pytest

from gorom import (
    FullOrderModel,
    GreedyConfig,
    ProblemConfig,
    ReducedCache,
    argmax_delta,
    greedy,
    make_diffusion_problem,
    run_greedy,
    truth_solve,
)


@pytest.fixture(scope="module")
def tiny_spd():
    cfg = ProblemConfig(n=64, d=2, l=5, seed=20, kind="diffusion-spd")
    return make_diffusion_problem(cfg)


def test_argmax_basics():
    assert argmax_delta([3.0]) == 0
    assert argmax_delta([1.0, 5.0, 5.0, 2.0]) == 1  # tie -> lowest index
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = rng.uniform(size=rng.integers(1, 30))
        # linear-scan oracle
        best, arg = -np.inf, -1
        for i, v in enumerate(vals):
            if v > best:
                best, arg = v, i
        assert argmax_delta(vals) == arg
    with pytest.raises(ValueError):
        argmax_delta([])


def test_single_iteration_full(tiny_spd):
    cfg = GreedyConfig(max_iter=1, enrichment="full", train_count=15, train_seed=1)
    res = run_greedy(tiny_spd, cfg)
    it = res.trace.iterations[0]
    assert it.r == 1 and it.k == tiny_spd.l
    assert it.factorizations == 1
    assert np.isfinite(it.sup_delta) and it.sup_delta > 0


def test_single_iteration_partial(tiny_spd):
    cfg = GreedyConfig(max_iter=1, enrichment="partial",
                       train_count=15, train_seed=1)
    res = run_greedy(tiny_spd, cfg)
    assert res.trace.iterations[0].k == 1


def test_full_enrichment_kills_selected_point(tiny_spd):
    cfg = GreedyConfig(max_iter=3, enrichment="full", train_count=15, train_seed=2)
    res = run_greedy(tiny_spd, cfg)
    first_sup = res.trace.iterations[0].sup_delta
    for it in res.trace.iterations[1:]:
        # estimates at all previously selected points are annihilated
        assert all(d <= 1e-8 * first_sup for d in it.delta_at_previous)


def test_dimension_growth_caps(tiny_spd):
    l = tiny_spd.l
    cfg = GreedyConfig(max_iter=4, enrichment="full", train_count=15, train_seed=3)
    res = run_greedy(tiny_spd, cfg)
    ks = [it.k for it in res.trace.iterations]
    rejected = sum(it.rejected_dual for it in res.trace.iterations)
    assert ks[-1] == 4 * l - rejected
    assert all(b - a <= l for a, b in zip([0] + ks, ks))
    cfgp = GreedyConfig(max_iter=4, enrichment="partial",
                        train_count=15, train_seed=3)
    resp = run_greedy(tiny_spd, cfgp)
    assert resp.trace.iterations[-1].k <= 4


def test_alternate_schedule(tiny_spd):
    cfg = GreedyConfig(max_iter=2, schedule="alternate", enrichment="full",
                       train_count=15, train_seed=4)
    res = run_greedy(tiny_spd, cfg)
    its = res.trace.iterations
    assert its[0].enriched == "primal" and its[1].enriched == "dual-full"
    assert its[-1].r == 1 and its[-1].k in (1, tiny_spd.l)
    # exactly one dimension moves per iteration
    dims = [(0, 0)] + [(it.r, it.k) for it in its]
    for (r0, k0), (r1, k1) in zip(dims, dims[1:]):
        assert (r1 > r0) != (k1 > k0)


def test_alternate_doubles_offline_cost(tiny_spd):
    # matching (r, k) needs about twice the factorizations of simultaneous
    sim = run_greedy(tiny_spd, GreedyConfig(
        max_iter=3, enrichment="partial", train_count=15, train_seed=5))
    alt = run_greedy(tiny_spd, GreedyConfig(
        max_iter=6, schedule="alternate", enrichment="partial",
        train_count=15, train_seed=5))
    s_last = sim.trace.iterations[-1]
    a_last = alt.trace.iterations[-1]
    assert (a_last.r, a_last.k) == (s_last.r, s_last.k)
    assert a_last.factorizations == 2 * s_last.factorizations


@pytest.mark.one_blas_thread
def test_determinism(tiny_spd):
    cfg = GreedyConfig(max_iter=3, enrichment="full", train_count=15, train_seed=6)
    t1 = run_greedy(tiny_spd, cfg)
    t2 = run_greedy(tiny_spd, cfg)
    assert t1.trace.to_dict() == t2.trace.to_dict()
    np.testing.assert_array_equal(t1.V.columns, t2.V.columns)
    np.testing.assert_array_equal(t1.WQ.columns, t2.WQ.columns)


def test_monotone_best_approximation(tiny_spd):
    cfg = GreedyConfig(max_iter=4, enrichment="partial",
                       train_count=15, train_seed=7)
    xis = tiny_spd.domain.sample(3, np.random.default_rng(8))
    errors = {i: [] for i in range(len(xis))}
    V_snapshots = []
    res = run_greedy(tiny_spd, cfg)
    # rebuild intermediate spaces by replaying the trace
    from gorom import Basis
    V = Basis(tiny_spd.gram_v0, tiny_spd.n)
    for it in res.trace.iterations:
        u = tiny_spd.factorize_operator(np.array(it.xi)).solve(
            tiny_spd.rhs_at(np.array(it.xi)))
        V.append(u)
        for i, xi in enumerate(xis):
            u_val, _ = truth_solve(tiny_spd, xi)
            c = V.project_coeffs(u_val)
            err = tiny_spd.v0_norm(u_val - V.columns @ c)
            errors[i].append(err)
    for seq in errors.values():
        assert all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))


def test_stop_threshold(tiny_spd):
    cfg = GreedyConfig(max_iter=10, enrichment="full", train_count=15,
                       train_seed=9, stop_threshold=1e-10)
    res = run_greedy(tiny_spd, cfg)
    assert len(res.trace.iterations) < 10


def test_saddle_method_runs(tiny_spd):
    cfg = GreedyConfig(max_iter=2, method="saddle", enrichment="partial",
                       train_count=10, train_seed=10)
    res = run_greedy(tiny_spd, cfg)
    assert len(res.trace.iterations) == 2
    sups = [it.sup_delta for it in res.trace.iterations]
    assert all(np.isfinite(sups))


def test_online_cost_formulas(tiny_spd):
    from gorom.greedy import online_cost
    assert online_cost("primal-dual", "spd", 3, 4) == pytest.approx(
        (2 / 3) * (27 + 64))
    assert online_cost("saddle", "spd", 3, 4) == pytest.approx((2 / 3) * 343)
    assert online_cost("saddle", "general", 3, 4) == pytest.approx(
        (2 / 3) * 1000)


def test_abort_attaches_partial_trace(tiny_spd):
    from gorom import GreedyAborted, sample_parameters
    # an out-of-domain training point fails estimation at iteration 1
    good = sample_parameters(tiny_spd.domain, 5, seed=12)
    bad = np.full(tiny_spd.d, 1e6)
    cfg = GreedyConfig(max_iter=3, train_points=[*good, bad])
    with pytest.raises(GreedyAborted) as err:
        run_greedy(tiny_spd, cfg)
    assert err.value.trace is not None
    assert err.value.trace.aborted.startswith("iteration 1")


def test_config_rejects_unknown_keys():
    from gorom import GoromError
    with pytest.raises(GoromError, match="unknown greedy config"):
        GreedyConfig.from_dict({"max_iter": 2, "enrich": "full"})


def test_config_validation():
    with pytest.raises(ValueError):
        GreedyConfig(max_iter=0)
    with pytest.raises(ValueError):
        GreedyConfig(enrichment="both")
    with pytest.raises(ValueError):
        GreedyConfig(schedule="nope")
    with pytest.raises(ValueError):
        GreedyConfig(method="galerkin")
    cfg = GreedyConfig(train_points=[[1.0, 1.0]])
    assert GreedyConfig.from_dict(cfg.to_dict()) == cfg


def test_threaded_sweep_matches_serial(tiny_spd):
    cfg = GreedyConfig(max_iter=3, enrichment="full", train_count=15,
                       train_seed=6)
    serial = run_greedy(tiny_spd, cfg)
    threaded = run_greedy(tiny_spd, cfg, threads=4)
    assert serial.trace.to_dict() == threaded.trace.to_dict()
    np.testing.assert_array_equal(serial.V.columns, threaded.V.columns)


# model, greedy config, and the Riesz families the sweep reads per added
# column of V, WQ and T (zA_V, XQ, and zA_T or XT, Q_A terms each)
_CARRIED = {
    "spd-primal-dual": ("spd", dict(method="primal-dual"), (1, 1, 0)),
    "spd-saddle": ("spd", dict(method="saddle"), (0, 0, 1)),
    "general-primal-dual-precond": ("general", dict(method="primal-dual",
                                                    precondition=True), (0, 1, 0)),
    "general-saddle": ("general", dict(method="saddle"), (0, 0, 1)),
}


def _carried_case(case, spd_small, gen_small):
    which, options, per_column = _CARRIED[case]
    cfg = GreedyConfig(max_iter=5, train_count=10, train_seed=3, **options)
    return (spd_small if which == "spd" else gen_small), cfg, per_column


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("case", sorted(_CARRIED))
def test_carried_cache_blocks_match_fresh(case, spd_small, gen_small, monkeypatch):
    # each iteration's cache, and the one the run grows to its final spaces,
    # grows the groups the one before read; right after it is made, every such
    # group equals the one a new cache builds over the same spaces and
    # interpolant.  T is in enrichment order there, so T is
    # compared by T T^T (its R_V0 projector times R_V0^{-1}), and the new
    # cache builds the groups over T from the carried T's columns.  The
    # final spaces are not compared so: on spd-saddle the last enrichment
    # keeps 5 of 8 dual columns, and near such dependent columns the span
    # of V + WQ depends on the order of Gram-Schmidt by about 1e-7, which is
    # why the stored blocks keep the carried T
    model, cfg, _ = _carried_case(case, spd_small, gen_small)
    xis = model.domain.sample(3, np.random.default_rng(40))
    checked = []

    def make(*args, **kwargs):
        cache = ReducedCache(*args, **kwargs)
        if kwargs.get("previous") is None:
            return cache
        groups = dict(cache._groups)
        fresh = ReducedCache(model, cache.Vc, cache.WQc, precond=cache.precond)
        T = groups.pop("T", None)
        if T is not None:
            got, want = T.columns @ T.columns.T, fresh._get("T").columns
            want = want @ want.T
            final = len(checked) == 4
            assert final or np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            fresh._groups["T"] = T
        for xi in xis:
            carried_at, fresh_at = cache.at(xi), fresh.at(xi)
            for name, group in groups.items():
                got, want = group.at(carried_at), fresh._get(name).at(fresh_at)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        checked.append(sorted(groups))
        return cache

    monkeypatch.setattr(greedy, "ReducedCache", make)
    res = run_greedy(model, cfg)
    assert len(res.trace.iterations) == 5
    assert len(checked) == 5 and all(checked)
    assert res.cache.r == res.V.dim and res.cache.k == res.WQ.dim


@pytest.mark.parametrize("case", sorted(_CARRIED))
def test_carried_cache_riesz_work_per_iteration(case, spd_small, gen_small, monkeypatch):
    # an iteration Riesz-solves the images of the columns it added, once per
    # term of each family its sweep reads, and extends the T it carried: the
    # same basis object, whose earlier columns are left as they were.  So does
    # the final growth to the spaces of the last enrichment, the sixth cache.
    # Only block solves count: a 1-D right-hand side is one point's residual
    model, cfg, (per_v, per_q, per_t) = _carried_case(case, spd_small, gen_small)
    columns, dims, bases = [], [], []
    riesz = FullOrderModel.riesz_v0

    def counting_riesz(self, X):
        X = np.asarray(X)
        if X.ndim == 2:
            columns[-1] += X.shape[1]
        return riesz(self, X)

    def make(*args, **kwargs):
        columns.append(0)
        cache = ReducedCache(*args, **kwargs)
        T = cache._groups.get("T")
        dims.append(np.array([cache.r, cache.k, T.dim if T is not None else 0]))
        bases.append(None if T is None else (T, T.columns.copy()))
        return cache

    monkeypatch.setattr(FullOrderModel, "riesz_v0", counting_riesz)
    monkeypatch.setattr(greedy, "ReducedCache", make)
    run_greedy(model, cfg)
    assert len(columns) == 6
    q = model.A.nterms
    for i in range(1, 6):
        added = dims[i] - dims[i - 1]
        assert added.min() >= 0 and added[:2].sum() > 0
        assert columns[i] == q * (per_v * added[0] + per_q * added[1] + per_t * added[2]), i
    if per_t:
        # the first cache, over empty spaces, may build no T
        assert all(bases[1:])
        for (T0, cols0), (T1, cols1) in zip(bases[1:], bases[2:]):
            assert T1 is T0 and cols1.shape[1] > cols0.shape[1]
            np.testing.assert_array_equal(cols1[:, :cols0.shape[1]], cols0)


def test_greedy_carries_and_stores_only_the_groups_read(gen_small, tmp_path, monkeypatch):
    # a preconditioned saddle greedy reads the groups over the fixed T only
    # in its first iteration, before the interpolant has a point; from then
    # on it solves over T(xi), so the caches that follow stop carrying T's
    # full-order families and the final blocks hold no group over T
    from gorom.projectors import BlockStore
    held = []

    class Recording(ReducedCache):
        def _carry(self, previous):
            held.append(set(previous._groups))
            super()._carry(previous)

    monkeypatch.setattr(greedy, "ReducedCache", Recording)
    res = run_greedy(gen_small, GreedyConfig(max_iter=5, method="saddle", precondition=True))
    assert len(held) == 5 and {"FAt_T", "XT"} <= held[0]
    for groups in held[2:] + [set(res.cache._groups)]:
        assert not groups & {"FAt_T", "XT"}
    res.cache.save(tmp_path / "blocks.npz", {})
    stored = set(BlockStore(tmp_path / "blocks.npz").groups)
    assert not stored & {"T", "Tb", "TAT", "LT", "TAV", "KT", "CT", "RTT", "RTb"}
