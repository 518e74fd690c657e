"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime budgets are timed and asserted.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg as la

import gorom
from gorom import (
    Basis,
    GreedyConfig,
    InverseInterpolant,
    ProblemConfig,
    ReducedCache,
    alpha_min_theta,
    compliant_variant,
    delta_L,
    delta_VW,
    dual_truth_solve,
    effectivity_report,
    estimate_preconditioned,
    estimate_primal_dual,
    estimate_saddle,
    make_advection_diffusion_problem,
    make_diffusion_problem,
    orthogonal_project,
    petrov_galerkin_solve,
    primal_dual_solve,
    run_greedy,
    saddle_general_solve,
    truth_solve,
    union_basis,
)
from gorom.cli import main as cli_main
from tests.conftest import snapshot_spaces


def ok(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def spd_mid():
    cfg = ProblemConfig(n=900, d=6, l=30, seed=31, kind="diffusion-spd")
    return make_diffusion_problem(cfg)


@pytest.fixture(scope="module")
def gen_mid():
    cfg = ProblemConfig(n=400, d=4, l=2, seed=32, kind="advection-diffusion")
    return make_advection_diffusion_problem(cfg)


@pytest.fixture(scope="module")
def spd_mid_spaces(spd_mid):
    return snapshot_spaces(spd_mid, 8, 2, seed=201)


@pytest.fixture(scope="module")
def gen_mid_spaces(gen_mid):
    return snapshot_spaces(gen_mid, 8, 2, seed=202)


def expand(V, c):
    cols = getattr(V, "columns", V)
    return cols @ c if c.size else np.zeros(cols.shape[0])


def test_criterion_01_galerkin_orthogonal_identity(spd_mid):
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    V = Basis(spd_mid.gram_v0, spd_mid.n, name="V")
    for xi in spd_mid.domain.sample(10, rng):
        u, _ = truth_solve(spd_mid, xi)
        V.append(u)
    assert V.dim == 10
    worst = 0.0
    for xi in spd_mid.domain.sample(50, rng):
        u, _ = truth_solve(spd_mid, xi)
        est = petrov_galerkin_solve(spd_mid, xi, V)     # W_r = V_r
        c = orthogonal_project(spd_mid, xi, V, u=u)
        diff = spd_mid.v_norm(xi, expand(V, est.primal_coeffs - c))
        worst = max(worst, diff / spd_mid.v_norm(xi, u))
        assert diff <= 1e-9 * spd_mid.v_norm(xi, u)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(1, f"Galerkin == orthogonal projection (energy norm), "
          f"worst rel diff {worst:.2e}, {elapsed:.1f}s < 30s")


@pytest.mark.parametrize("kind", ["spd", "general"])
def test_criterion_02_ideal_test_space_collapse(kind, spd_mid, gen_mid,
                                                spd_mid_spaces, gen_mid_spaces):
    model = spd_mid if kind == "spd" else gen_mid
    V, WQ = spd_mid_spaces if kind == "spd" else gen_mid_spaces
    xi = model.domain.sample(1, np.random.default_rng(302))[0]
    fact = model.factorize_operator(xi)
    ideal = fact.solve(np.asarray(model.gram_v0 @ V.columns), transpose=True)
    T = union_basis([ideal, WQ], gram=model.gram_v0)
    delta = delta_VW(model, xi, V, T, gram="v0")
    assert delta <= 1e-8
    u, _ = truth_solve(model, xi, factorization=fact)
    est = saddle_general_solve(model, xi, V, T)
    c = orthogonal_project(model, xi, V, u=u, gram="v0")
    diff = model.v0_norm(expand(V, est.primal_coeffs - c))
    assert diff <= 1e-8 * model.v0_norm(u)
    ok(2, f"[{kind}] ideal test space: delta={delta:.2e}, "
          f"|u_rp - u_orth|/|u| = {diff / model.v0_norm(u):.2e}")


def test_criterion_03_quasi_optimality_bounds(gen_mid, spd_mid):
    rng = np.random.default_rng(303)
    checked = 0
    for model in (spd_mid, gen_mid):
        xis = model.domain.sample(50, rng)
        for cfg_seed, (np_, nd) in zip((211, 212, 213), ((3, 1), (6, 2), (9, 3))):
            V, WQ = snapshot_spaces(model, np_, nd, seed=cfg_seed)
            T = union_basis([V, WQ], gram=model.gram_v0)
            for xi in xis:
                fact = model.factorize_operator(xi)
                u, _ = truth_solve(model, xi, factorization=fact)
                unorm = model.v_norm(xi, u)
                # Petrov-Galerkin with W = V
                d = delta_VW(model, xi, V, V)
                c = orthogonal_project(model, xi, V, u=u)
                best = model.v_norm(xi, u - expand(V, c))
                est = petrov_galerkin_solve(model, xi, V)
                lhs = model.v_norm(xi, u - expand(V, est.primal_coeffs))
                assert lhs <= best / np.sqrt(1 - d * d) * (1 + 1e-10) + 1e-10 * unorm
                # saddle projection over T (fixed R_V0 norm)
                d_t = delta_VW(model, xi, V, T, gram="v0")
                c0 = orthogonal_project(model, xi, V, u=u, gram="v0")
                best0 = model.v0_norm(u - expand(V, c0))
                sd = saddle_general_solve(model, xi, V, T)
                lhs0 = model.v0_norm(u - expand(V, sd.primal_coeffs))
                assert lhs0 <= best0 / np.sqrt(1 - d_t * d_t) * (1 + 1e-10) \
                    + 1e-10 * model.v0_norm(u)
                checked += 2
    ok(3, f"quasi-optimality bounds hold at {checked} (xi, space, method) cases")


@pytest.mark.parametrize("kind", ["spd", "general"])
def test_criterion_04_output_bounds(kind, spd_mid, gen_mid,
                                    spd_mid_spaces, gen_mid_spaces):
    model = spd_mid if kind == "spd" else gen_mid
    V, WQ = spd_mid_spaces if kind == "spd" else gen_mid_spaces
    T = union_basis([V, WQ], gram=model.gram_v0)
    rng = np.random.default_rng(304)
    for xi in model.domain.sample(20, rng):
        fact = model.factorize_operator(xi)
        u, s = truth_solve(model, xi, factorization=fact)
        c = orthogonal_project(model, xi, V, u=u)
        best = model.v_norm(xi, u - expand(V, c))
        dl_q = delta_L(model, xi, WQ)
        dl_t = delta_L(model, xi, T)
        d_vw = delta_VW(model, xi, V, V)
        d_vt = delta_VW(model, xi, V, T)
        # monotonicity on the computed constants (absolute floor covers the
        # spd case where both deltas are exact zeros up to roundoff)
        assert dl_t <= dl_q * (1 + 1e-12) + 1e-12
        assert d_vt <= d_vw * (1 + 1e-12) + 1e-12
        rhs_pd = dl_q / np.sqrt(1 - d_vw ** 2) * best
        rhs_sd = dl_t / np.sqrt(1 - d_vt ** 2) * best
        assert rhs_sd <= rhs_pd * (1 + 1e-12)
        pd = primal_dual_solve(model, xi, V, WQ)
        assert model.z_norm(s - pd.s_tilde) <= rhs_pd * (1 + 1e-9) \
            + 1e-12 * model.z_norm(s)
        if kind == "spd":
            sd = gorom.saddle_spd_solve(model, xi, T)
        else:
            sd = saddle_general_solve(model, xi, V, T)
        assert model.z_norm(s - sd.s_tilde) <= rhs_sd * (1 + 1e-9) \
            + 1e-12 * model.z_norm(s)
    ok(4, f"[{kind}] output bounds and saddle<=primal-dual RHS at 20 points")


def test_criterion_05_squared_effect(spd_mid):
    comp = compliant_variant(spd_mid)
    rng = np.random.default_rng(305)
    V = Basis(comp.gram_v0, comp.n, name="V")
    for xi in comp.domain.sample(8, rng):
        u, _ = truth_solve(comp, xi)
        V.append(u)
    worst = 0.0
    for xi in comp.domain.sample(50, rng):
        u, s = truth_solve(comp, xi)
        est = petrov_galerkin_solve(comp, xi, V)
        err2 = comp.v_norm(xi, u - expand(V, est.primal_coeffs)) ** 2
        gap = abs(s[0] - est.s_tilde[0])
        assert gap <= err2 * (1 + 1e-9) + 1e-14 * abs(s[0])
        worst = max(worst, gap / err2 if err2 else 0.0)
    ok(5, f"compliant squared effect at 50 points (max ratio {worst:.6f})")


def test_criterion_06_certified_effectivity(spd_mid, spd_mid_spaces):
    V, WQ = spd_mid_spaces
    cache = ReducedCache(spd_mid, V, WQ)
    xis = spd_mid.domain.sample(200, np.random.default_rng(306))
    stats = {}
    data = {}
    for method in ("primal-dual", "saddle"):
        deltas, errors, snorms = [], [], []
        for xi in xis:
            alpha = alpha_min_theta(spd_mid, xi)
            if method == "primal-dual":
                sol = cache.solve_primal_dual(xi)
                rec = estimate_primal_dual(spd_mid, sol, alpha)
            else:
                sol = cache.solve_saddle(xi)
                rec = estimate_saddle(spd_mid, sol, alpha)
            _, s = truth_solve(spd_mid, xi)
            deltas.append(rec.delta)
            errors.append(spd_mid.z_norm(s - sol.s_tilde))
            snorms.append(spd_mid.z_norm(s))
        deltas, errors = np.array(deltas), np.array(errors)
        assert np.all(deltas >= errors * (1 - 1e-9)), "eta >= 1 must hold everywhere"
        rep = effectivity_report(deltas, errors, s_norms=snorms, bins=40)
        assert rep.n_included == 200
        stats[method] = rep
        data[method] = deltas
    sp, pd = stats["saddle"], stats["primal-dual"]
    assert sp.mean <= pd.mean
    assert sp.maxmin_ratio <= pd.maxmin_ratio
    assert sp.nstd <= pd.nstd
    assert np.all(data["saddle"] <= data["primal-dual"] * (1 + 1e-9))
    ok(6, "certified eta>=1 on 200/200 samples; saddle stats "
          f"(mean {sp.mean:.2f}, maxmin {sp.maxmin_ratio:.2f}, nstd {sp.nstd:.3f}) "
          f"<= primal-dual ({pd.mean:.2f}, {pd.maxmin_ratio:.2f}, {pd.nstd:.3f})")


def test_criterion_07_dual_correction_equivalence():
    cfg = ProblemConfig(n=49, d=3, l=5, seed=33, kind="diffusion-spd")
    model = make_diffusion_problem(cfg)
    V, WQ = snapshot_spaces(model, 3, 1, seed=203)
    rng = np.random.default_rng(307)
    worst = 0.0
    for xi in model.domain.sample(20, rng):
        fact = model.factorize_operator(xi)
        primal = petrov_galerkin_solve(model, xi, V)
        pd = primal_dual_solve(model, xi, V, WQ)
        corr = pd.s_tilde - primal.s_tilde
        A = model.operator_at(xi)
        W = WQ.columns
        resid = model.rhs_at(xi) - A @ expand(V, primal.primal_coeffs)
        Lt = model.output_at(xi).toarray().T
        AtW = A.T @ W
        K = AtW.T @ fact.solve(AtW)
        C = AtW.T @ fact.solve(Lt)
        Qk = W @ la.solve(K, C)
        corr_explicit = Qk.T @ resid
        rel = np.linalg.norm(corr - corr_explicit) / np.linalg.norm(corr_explicit)
        worst = max(worst, rel)
        assert rel <= 1e-10
    ok(7, f"dual-operator-free correction matches explicit assembly, "
          f"worst rel {worst:.2e} <= 1e-10 over 20 points")


def test_criterion_08_greedy_snapshot_kill():
    t0 = time.perf_counter()
    # ten parameters keep sup-delta well above the roundoff floor over
    # 15 iterations, so the relative kill factor stays meaningful
    cfg_p = ProblemConfig(n=400, d=10, l=6, seed=34, kind="diffusion-spd")
    model = make_diffusion_problem(cfg_p)
    cfg = GreedyConfig(max_iter=15, enrichment="full", schedule="simultaneous",
                       method="primal-dual", train_count=200, train_seed=35)
    res = run_greedy(model, cfg)
    its = res.trace.iterations
    assert len(its) == 15
    for i, it in enumerate(its):
        for j, d in enumerate(it.delta_at_previous):
            pre = its[j].sup_delta
            assert d <= 1e-8 * pre, (i, j, d, pre)
    drop = its[0].sup_delta / its[14].sup_delta
    assert drop >= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ok(8, f"snapshot-kill holds at all {sum(len(i.delta_at_previous) for i in its)}"
          f" revisits; sup-delta drop x{drop:.1f} >= 10 in 15 iterations; "
          f"{elapsed:.0f}s < 120s")


def test_criterion_09_partial_vs_full_dimensions():
    cfg_p = ProblemConfig(n=1024, d=6, l=30, seed=36, kind="diffusion-spd")
    model = make_diffusion_problem(cfg_p)
    base = dict(max_iter=10, schedule="simultaneous", method="primal-dual",
                train_count=60, train_seed=37)
    res_full = run_greedy(model, GreedyConfig(enrichment="full", **base))
    res_part = run_greedy(model, GreedyConfig(enrichment="partial", **base))
    k_full = res_full.trace.iterations[-1].k
    rejected = sum(it.rejected_dual for it in res_full.trace.iterations)
    assert k_full == 10 * model.l - rejected
    k_part = res_part.trace.iterations[-1].k
    assert k_part <= 10
    assert len(res_full.trace.iterations) == len(res_part.trace.iterations) == 10
    ok(9, f"full dual: k={k_full} (=10*l - {rejected} rejected); "
          f"partial dual: k={k_part} <= 10; both traces recorded")


def test_criterion_10_preconditioner_exact_point(gen_mid, gen_mid_spaces):
    V, _ = gen_mid_spaces
    rng = np.random.default_rng(308)
    pts = gen_mid.domain.sample(2, rng)
    P = InverseInterpolant(gen_mid, sketch_size=400, seed=38, positivity=True)
    for pt in pts:
        P.add_point(pt)
    xi = pts[0]
    obj = P.sketched_objective(xi)
    assert obj <= 1e-8 * np.linalg.norm(P.omega)
    W = gorom.build_test_space(gen_mid, V, P, xi)
    est = petrov_galerkin_solve(gen_mid, xi, V, W)
    u, _ = truth_solve(gen_mid, xi)
    c = orthogonal_project(gen_mid, xi, V, u=u, gram="v0")
    diff = gen_mid.v0_norm(expand(V, est.primal_coeffs - c))
    ref = gen_mid.v0_norm(expand(V, c))
    assert diff <= 1e-6 * ref
    ok(10, f"exact-point interpolation: sketched residual {obj:.2e}, "
           f"ideal-test-space recovery rel {diff / ref:.2e} <= 1e-6")


def test_criterion_11_effectivity_improves_with_m(gen_mid):
    rng = np.random.default_rng(309)
    snap_xis = gen_mid.domain.sample(12, rng)
    V = Basis(gen_mid.gram_v0, gen_mid.n, name="V")
    WQ = Basis(gen_mid.gram_v0, gen_mid.n, name="WQ")
    for xi in snap_xis[:10]:
        u, _ = truth_solve(gen_mid, xi)
        V.append(u)
    for xi in snap_xis[10:12]:
        WQ.extend(dual_truth_solve(gen_mid, xi))
    xis = gen_mid.domain.sample(200, np.random.default_rng(310))
    truth = [truth_solve(gen_mid, xi)[1] for xi in xis]
    candidates = gen_mid.domain.sample(30, np.random.default_rng(311))
    ratios = {"primal-dual": {}, "saddle": {}}
    for method in ("primal-dual", "saddle"):
        for m in (0, 2, 4):
            # interpolation points picked greedily on the sketched residual
            P = InverseInterpolant(gen_mid, sketch_size=400, seed=39,
                                   positivity=True)
            P.add_greedy_points(candidates, m)
            cache = ReducedCache(gen_mid, V, WQ, precond=P)
            deltas, errors, snorms = [], [], []
            for xi, s in zip(xis, truth):
                sol = cache.solve(xi, method)
                rec = estimate_preconditioned(gen_mid, sol, P)
                deltas.append(rec.delta)
                errors.append(gen_mid.z_norm(s - sol.s_tilde))
                snorms.append(gen_mid.z_norm(s))
            rep = effectivity_report(deltas, errors, s_norms=snorms, bins=40)
            ratios[method][m] = rep.maxmin_ratio
        seq = ratios[method]
        assert seq[2] <= seq[0], (method, seq)
        assert seq[4] <= seq[2], (method, seq)
    pd, sd = ratios["primal-dual"], ratios["saddle"]
    ok(11, "surrogate eta max/min ratio nonincreasing in m: primal-dual "
           f"{pd[0]:.1f} >= {pd[2]:.1f} >= {pd[4]:.1f}; "
           f"saddle {sd[0]:.1f} >= {sd[2]:.1f} >= {sd[4]:.1f}")


def test_criterion_12_pipeline_determinism(tmp_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    outs = []
    for run_id in ("a", "b"):
        root = tmp_path / run_id
        root.mkdir()
        run("generate", "--kind", "diffusion", "--n", "100", "--d", "3",
            "--l", "8", "--seed", "40", "--out", root / "bundle")
        cfg = {"max_iter": 4, "enrichment": "full", "schedule": "simultaneous",
               "method": "primal-dual", "train_count": 30, "train_seed": 41}
        (root / "greedy.json").write_text(json.dumps(cfg))
        run("offline", "--bundle", root / "bundle", "--config",
            root / "greedy.json", "--out", root / "spaces")
        run("truth", "--bundle", root / "bundle", "--sample-count", "20",
            "--sample-seed", "42", "--out", root / "truth.csv")
        run("eval", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--method", "saddle", "--xi-file", root / "truth.csv",
            "--out", root / "est.csv")
        run("estimate", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--method", "saddle", "--xi-file", root / "truth.csv",
            "--out", root / "delta.csv")
        run("stats", "--est", root / "delta.csv", "--truth", root / "truth.csv",
            "--bins", "10", "--out", root / "report.json")
        run("compare", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--xi-file", root / "truth.csv", "--out", root / "compare.csv")
        outs.append(root)
    a, b = outs
    identical = ["bundle/model.json", "spaces/trace.json", "spaces/V.mtx",
                 "spaces/WQ.mtx", "truth.csv", "delta.csv", "report.json",
                 "compare.csv"]
    for rel in identical:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    # est.csv documents a measured wall-time column; byte-identical modulo it
    import csv as _csv

    def strip(path):
        with open(path, newline="") as fh:
            rows = list(_csv.reader(fh))
        idx = rows[0].index("wall_time_ms")
        return [tuple(v for j, v in enumerate(r) if j != idx) for r in rows]

    assert strip(a / "est.csv") == strip(b / "est.csv")
    ok(12, f"two pipeline runs byte-identical on {len(identical)} artifacts "
           "(est.csv identical modulo its wall-time column)")
