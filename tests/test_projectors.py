import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as la

from gorom import (
    Basis,
    InverseInterpolant,
    ReducedCache,
    build_test_space,
    compliant_variant,
    delta_L,
    delta_VW,
    dual_only_solve,
    dual_truth_solve,
    orthogonal_project,
    petrov_galerkin_solve,
    primal_dual_solve,
    saddle_general_solve,
    saddle_spd_solve,
    truth_solve,
    union_basis,
)
from tests.conftest import model_cache


def expand(V, coeffs):
    cols = getattr(V, "columns", V)
    return cols @ coeffs if coeffs.size else np.zeros(cols.shape[0])


def test_orthogonal_project_recovers_member(spd_small, spd_spaces):
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(0))[0]
    u_in = V.columns @ np.arange(1.0, V.dim + 1.0)
    c = orthogonal_project(spd_small, xi, V, u=u_in)
    assert spd_small.v_norm(xi, u_in - expand(V, c)) <= 1e-11 * spd_small.v_norm(xi, u_in)


def test_orthogonal_project_empty_space(spd_small):
    xi = spd_small.domain.sample(1, np.random.default_rng(1))[0]
    V0 = Basis(spd_small.gram_v0, spd_small.n)
    assert orthogonal_project(spd_small, xi, V0).size == 0


def test_orthogonal_project_best_approximation(spd_small, spd_spaces):
    V, _ = spd_spaces
    rng = np.random.default_rng(2)
    xi = spd_small.domain.sample(1, rng)[0]
    u, _ = truth_solve(spd_small, xi)
    c = orthogonal_project(spd_small, xi, V, u=u)
    best = spd_small.v_norm(xi, u - expand(V, c))
    for _ in range(100):
        v = V.columns @ rng.standard_normal(V.dim)
        assert best <= spd_small.v_norm(xi, u - v) * (1 + 1e-12)


def test_galerkin_equals_orthogonal_in_energy(spd_small, spd_spaces):
    V, _ = spd_spaces
    for xi in spd_small.domain.sample(5, np.random.default_rng(3)):
        u, _ = truth_solve(spd_small, xi)
        est = petrov_galerkin_solve(spd_small, xi, V)
        c = orthogonal_project(spd_small, xi, V, u=u)
        diff = spd_small.v_norm(xi, expand(V, est.primal_coeffs - c))
        assert diff <= 1e-11 * spd_small.v_norm(xi, u)


def test_pg_consistent_when_solution_in_span(spd_small, spd_spaces):
    V, _ = spd_spaces
    rng = np.random.default_rng(4)
    # build a space containing the solution at xi
    xi = spd_small.domain.sample(1, rng)[0]
    u, s = truth_solve(spd_small, xi)
    V2 = V.copy()
    V2.append(u)
    est = petrov_galerkin_solve(spd_small, xi, V2)
    assert np.linalg.norm(est.s_tilde - s) <= 1e-9 * np.linalg.norm(s)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_pg_quasi_optimality(which, spd_small, gen_small, spd_spaces, gen_spaces):
    model = spd_small if which == "spd" else gen_small
    V, _ = spd_spaces if which == "spd" else gen_spaces
    for xi in model.domain.sample(5, np.random.default_rng(5)):
        u, _ = truth_solve(model, xi)
        est = petrov_galerkin_solve(model, xi, V)
        delta = delta_VW(model, xi, V, V)
        c = orthogonal_project(model, xi, V, u=u)
        best = model.v_norm(xi, u - expand(V, c))
        lhs = model.v_norm(xi, u - expand(V, est.primal_coeffs))
        assert delta < 1.0
        bound = best / np.sqrt(1.0 - delta ** 2)
        assert lhs <= bound * (1 + 1e-10) + 1e-10 * model.v_norm(xi, u)


def test_dual_only_exact_space_is_exact(spd_small):
    xi = spd_small.domain.sample(1, np.random.default_rng(6))[0]
    Q = dual_truth_solve(spd_small, xi)
    WQ = Basis(spd_small.gram_v0, spd_small.n)
    WQ.extend(Q)
    _, s = truth_solve(spd_small, xi)
    est = dual_only_solve(spd_small, xi, WQ)
    assert np.linalg.norm(est.s_tilde - s) <= 1e-9 * np.linalg.norm(s)


@pytest.mark.one_blas_thread
def test_dual_only_empty_space(spd_small, gen_small):
    # with V, WQ and T empty, every route, residual norm and Schur complement
    # runs its ordinary path on both providers: zero outputs of length l,
    # empty coefficient vectors, and Schur complements equal to G_LL
    from gorom import ReducedSolveError
    from gorom.projectors import DirectBlocks
    for model in (spd_small, gen_small):
        xi = model.domain.sample(1, np.random.default_rng(7))[0]
        empty = Basis(model.gram_v0, model.n)
        assert np.array_equal(dual_only_solve(model, xi, empty).s_tilde, np.zeros(model.l))
        for blocks in (DirectBlocks(model, xi), ReducedCache(model, None, None).at(xi)):
            assert (blocks.r, blocks.k, blocks.p) == (0, 0, 0)
            saddle = (blocks.solve_saddle_spd if model.symmetry == "spd"
                      else blocks.solve_saddle_general)
            for est in (blocks.solve_primal(), blocks.solve_dual_only(),
                        blocks.solve_primal_dual(), saddle()):
                assert np.array_equal(est.s_tilde, np.zeros(model.l))
                for coeffs in (est.primal_coeffs, est.dual_coeffs, est.t_coeffs):
                    assert coeffs is None or coeffs.shape == (0,)
            norm_b = np.sqrt(blocks.Rbb.item())
            assert blocks.primal_residual_norm(np.zeros(0)) == norm_b
            assert blocks.min_residual_over_T() == norm_b
            for M in (blocks.dual_schur("WQ"), blocks.dual_schur("T"),
                      blocks.pd_dual_matrix()):
                assert np.array_equal(M, blocks.GLL)
        # an empty saddle space under a nonempty primal space is refused
        V = Basis(model.gram_v0, model.n)
        V.append(truth_solve(model, xi)[0])
        with pytest.raises(ReducedSolveError, match="inf-sup"):
            saddle_general_solve(model, xi, V, empty)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_dual_only_is_primal_dual_with_zero_primal(which, spd_small, gen_small,
                                                   spd_spaces, gen_spaces):
    model = spd_small if which == "spd" else gen_small
    _, WQ = spd_spaces if which == "spd" else gen_spaces
    xi = model.domain.sample(1, np.random.default_rng(8))[0]
    d = dual_only_solve(model, xi, WQ)
    V0 = Basis(model.gram_v0, model.n)
    pd = primal_dual_solve(model, xi, V0, WQ)
    np.testing.assert_allclose(d.s_tilde, pd.s_tilde, rtol=0,
                               atol=1e-12 * max(np.abs(d.s_tilde).max(), 1e-300))


def test_primal_dual_zero_residual_has_zero_correction(spd_small, spd_spaces):
    V, WQ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(9))[0]
    u, s = truth_solve(spd_small, xi)
    V2 = V.copy()
    V2.append(u)
    est = primal_dual_solve(spd_small, xi, V2, WQ)
    assert np.linalg.norm(est.dual_coeffs) <= 1e-8 * np.linalg.norm(u)
    assert np.linalg.norm(est.s_tilde - s) <= 1e-9 * np.linalg.norm(s)


def test_compliant_squared_effect(spd_small, spd_spaces):
    comp = compliant_variant(spd_small)
    V, _ = spd_spaces
    for xi in comp.domain.sample(5, np.random.default_rng(10)):
        u, s = truth_solve(comp, xi)
        est = petrov_galerkin_solve(comp, xi, V)
        err = comp.v_norm(xi, u - expand(V, est.primal_coeffs))
        assert abs(s[0] - est.s_tilde[0]) <= err ** 2 * (1 + 1e-9) + 1e-14


@pytest.mark.parametrize("which", ["spd", "general"])
def test_correction_equals_explicit_dual_operator(which, spd_small, gen_small,
                                                  spd_spaces, gen_spaces):
    # the correction computed through the small system must match Q_k^* r
    # with Q_k assembled columnwise from its normal equations
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    rng = np.random.default_rng(11)
    for xi in model.domain.sample(5, rng):
        est = primal_dual_solve(model, xi, V, WQ)
        primal = petrov_galerkin_solve(model, xi, V)
        A = model.operator_at(xi)
        resid = model.rhs_at(xi) - A @ expand(V, primal.primal_coeffs)
        W = WQ.columns
        Lt = model.output_at(xi).toarray().T
        if model.symmetry == "spd":
            fact = model.factorize_operator(xi)
            RinvAtW = fact.solve(A.T @ W)
        else:
            RinvAtW = model.riesz_v0(A.T @ W)
        K = (A.T @ W).T @ RinvAtW
        C = (A.T @ W).T @ (fact.solve(Lt) if model.symmetry == "spd"
                           else model.riesz_v0(Lt))
        Qk = W @ la.solve(K, C)          # explicit dual operator, columnwise
        corr_explicit = Qk.T @ resid
        corr = est.s_tilde - primal.s_tilde
        assert np.linalg.norm(corr - corr_explicit) <= 1e-10 * max(
            np.linalg.norm(corr_explicit), 1e-300)


def test_saddle_spd_contains_solution(spd_small, spd_spaces):
    V, WQ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(12))[0]
    u, s = truth_solve(spd_small, xi)
    T = union_basis([V, WQ], gram=spd_small.gram_v0)
    T.append(u)
    est = saddle_spd_solve(spd_small, xi, T)
    assert np.linalg.norm(est.s_tilde - s) <= 1e-9 * np.linalg.norm(s)


def test_saddle_spd_reduces_to_galerkin(spd_small, spd_spaces):
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(13))[0]
    est_t = saddle_spd_solve(spd_small, xi, V)
    est_g = petrov_galerkin_solve(spd_small, xi, V)
    np.testing.assert_allclose(est_t.s_tilde, est_g.s_tilde, rtol=0,
                               atol=1e-12 * np.abs(est_g.s_tilde).max())


def test_saddle_spd_is_orthogonal_projection_on_T(spd_small, spd_spaces):
    V, WQ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(14))[0]
    u, _ = truth_solve(spd_small, xi)
    T = union_basis([V, WQ], gram=spd_small.gram_v0)
    est = saddle_spd_solve(spd_small, xi, T)
    c = orthogonal_project(spd_small, xi, T, u=u)
    s_proj = spd_small.output_at(xi) @ expand(T, c)
    np.testing.assert_allclose(est.s_tilde, np.asarray(s_proj).ravel(),
                               rtol=1e-10, atol=1e-13 * np.abs(s_proj).max())


@pytest.mark.parametrize("which", ["spd", "general"])
def test_saddle_general_ideal_space_collapses(which, spd_small, gen_small,
                                              spd_spaces, gen_spaces):
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    xi = model.domain.sample(1, np.random.default_rng(15))[0]
    fact = model.factorize_operator(xi)
    ideal = fact.solve(np.asarray(model.gram_v0 @ V.columns), transpose=True)
    T = union_basis([ideal, WQ], gram=model.gram_v0)
    u, _ = truth_solve(model, xi, factorization=fact)
    est = saddle_general_solve(model, xi, V, T)
    c = orthogonal_project(model, xi, V, u=u, gram="v0")
    diff = expand(V, est.primal_coeffs - c)
    assert model.v0_norm(diff) <= 1e-8 * model.v0_norm(u)


def test_saddle_general_zero_residual(gen_small, gen_spaces):
    V, WQ = gen_spaces
    xi = gen_small.domain.sample(1, np.random.default_rng(16))[0]
    u, s = truth_solve(gen_small, xi)
    V2 = V.copy()
    V2.append(u)
    T = union_basis([V2, WQ], gram=gen_small.gram_v0)
    est = saddle_general_solve(gen_small, xi, V2, T)
    assert np.linalg.norm(est.s_tilde - s) <= 1e-9 * np.linalg.norm(s)
    # y solves the first saddle equation; with u in V it vanishes
    assert np.linalg.norm(est.dual_coeffs) <= 1e-8 * np.linalg.norm(u)


def test_saddle_general_quasi_optimality(gen_small, gen_spaces):
    V, WQ = gen_spaces
    for xi in gen_small.domain.sample(5, np.random.default_rng(17)):
        u, _ = truth_solve(gen_small, xi)
        T = union_basis([V, WQ], gram=gen_small.gram_v0)
        est = saddle_general_solve(gen_small, xi, V, T)
        delta = delta_VW(gen_small, xi, V, T)
        c = orthogonal_project(gen_small, xi, V, u=u)
        best = gen_small.v0_norm(u - expand(V, c))
        lhs = gen_small.v0_norm(u - expand(V, est.primal_coeffs))
        assert lhs <= best / np.sqrt(1 - delta ** 2) * (1 + 1e-10) \
            + 1e-10 * gen_small.v0_norm(u)


def test_saddle_residual_identity(gen_small, gen_spaces):
    # || u - u_rp - R^{-1} A^T y_rp || <= || u - u_rp ||
    V, WQ = gen_spaces
    for xi in gen_small.domain.sample(5, np.random.default_rng(18)):
        u, _ = truth_solve(gen_small, xi)
        T = union_basis([V, WQ], gram=gen_small.gram_v0)
        est = saddle_general_solve(gen_small, xi, V, T)
        u_rp = expand(V, est.primal_coeffs)
        corr = est.blocks.XT @ est.dual_coeffs
        lhs = gen_small.v0_norm(u - u_rp - corr)
        rhs = gen_small.v0_norm(u - u_rp)
        assert lhs <= rhs * (1 + 1e-12)


def test_monotone_delta_comparison(gen_small, gen_spaces):
    # T = W + WQ can only improve both constants
    V, WQ = gen_spaces
    xi = gen_small.domain.sample(1, np.random.default_rng(19))[0]
    T = union_basis([V, WQ], gram=gen_small.gram_v0)
    assert delta_VW(gen_small, xi, V, T) <= delta_VW(gen_small, xi, V, V) + 1e-12
    assert delta_L(gen_small, xi, T) <= delta_L(gen_small, xi, WQ) + 1e-12


@pytest.mark.parametrize("which", ["spd", "general"])
def test_output_bound_chain(which, spd_small, gen_small, spd_spaces, gen_spaces):
    # primal-dual and saddle output bounds, and their ordering at T = W + WQ
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    T = union_basis([V, WQ], gram=model.gram_v0)
    for xi in model.domain.sample(3, np.random.default_rng(20)):
        u, s = truth_solve(model, xi)
        c = orthogonal_project(model, xi, V, u=u)
        best = model.v_norm(xi, u - expand(V, c))
        d_vw = delta_VW(model, xi, V, V)
        d_vt = delta_VW(model, xi, V, T)
        dl_q = delta_L(model, xi, WQ)
        dl_t = delta_L(model, xi, T)
        pd = primal_dual_solve(model, xi, V, WQ)
        err_pd = model.z_norm(s - pd.s_tilde)
        bound_pd = dl_q / np.sqrt(1 - d_vw ** 2) * best
        assert err_pd <= bound_pd * (1 + 1e-9) + 1e-12 * model.z_norm(s)
        sd = (saddle_spd_solve(model, xi, T) if which == "spd"
              else saddle_general_solve(model, xi, V, T))
        err_sd = model.z_norm(s - sd.s_tilde)
        bound_sd = dl_t / np.sqrt(1 - d_vt ** 2) * best
        assert err_sd <= bound_sd * (1 + 1e-9) + 1e-12 * model.z_norm(s)
        assert bound_sd <= bound_pd * (1 + 1e-12)


def test_build_test_space_identity_without_points(gen_small, gen_spaces):
    V, _ = gen_spaces
    xi = gen_small.domain.sample(1, np.random.default_rng(21))[0]
    W = build_test_space(gen_small, V, None, xi)
    np.testing.assert_array_equal(W, V.columns)
    P0 = InverseInterpolant(gen_small, sketch_size=30, seed=5)
    W0 = build_test_space(gen_small, V, P0, xi)
    np.testing.assert_array_equal(W0, V.columns)


def test_ideal_test_space_from_interpolation_point(gen_small, gen_spaces):
    V, _ = gen_spaces
    xi = gen_small.domain.sample(1, np.random.default_rng(22))[0]
    P = InverseInterpolant(gen_small, sketch_size=60, seed=5)
    P.add_point(xi)
    W = build_test_space(gen_small, V, P, xi)
    # exact-point interpolation turns the test space ideal: PG == best approx
    u, _ = truth_solve(gen_small, xi)
    est = petrov_galerkin_solve(gen_small, xi, V, W)
    c = orthogonal_project(gen_small, xi, V, u=u)
    diff = expand(V, est.primal_coeffs - c)
    assert gen_small.v0_norm(diff) <= 1e-8 * gen_small.v0_norm(u)


def test_test_space_matches_dense_combination(gen_small, gen_spaces):
    V, _ = gen_spaces
    rng = np.random.default_rng(23)
    pts = gen_small.domain.sample(2, rng)
    P = InverseInterpolant(gen_small, sketch_size=40, seed=6)
    for pt in pts:
        P.add_point(pt)
    xi = gen_small.domain.sample(1, rng)[0]
    lam = P.coefficients(xi)
    W = build_test_space(gen_small, V, P, xi)
    dense = np.zeros_like(W)
    for li, pt in zip(lam, pts):
        Ad = gen_small.operator_at(pt).toarray()
        dense += li * la.solve(Ad.T, np.asarray(gen_small.gram_v0 @ V.columns))
    np.testing.assert_allclose(W, dense, rtol=1e-9, atol=1e-12 * np.abs(dense).max())


# ---------------------------------------------------------------------------
# cache vs direct agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["spd", "general"])
def test_cache_matches_direct_methods(which, spd_small, gen_small,
                                      spd_spaces, gen_spaces):
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    cache = ReducedCache(model, V, WQ)
    T = union_basis([V, WQ], gram=model.gram_v0)
    for xi in model.domain.sample(4, np.random.default_rng(24)):
        pg = petrov_galerkin_solve(model, xi, V)
        np.testing.assert_allclose(cache.solve(xi, "primal").s_tilde, pg.s_tilde,
                                   rtol=1e-11, atol=1e-14)
        du = dual_only_solve(model, xi, WQ)
        np.testing.assert_allclose(cache.solve(xi, "dual").s_tilde, du.s_tilde,
                                   rtol=1e-11, atol=1e-14)
        pd = primal_dual_solve(model, xi, V, WQ)
        np.testing.assert_allclose(cache.solve(xi, "primal-dual").s_tilde,
                                   pd.s_tilde, rtol=1e-11, atol=1e-14)
        sd = (saddle_spd_solve(model, xi, T) if which == "spd"
              else saddle_general_solve(model, xi, V, T))
        np.testing.assert_allclose(cache.solve(xi, "saddle").s_tilde,
                                   sd.s_tilde, rtol=1e-10, atol=1e-14)


def test_cache_precond_test_space_matches_direct(gen_small, gen_spaces):
    V, WQ = gen_spaces
    rng = np.random.default_rng(25)
    P = InverseInterpolant(gen_small, sketch_size=40, seed=7)
    for pt in gen_small.domain.sample(2, rng):
        P.add_point(pt)
    cache = ReducedCache(gen_small, V, WQ, precond=P)
    for xi in gen_small.domain.sample(3, rng):
        W = build_test_space(gen_small, V, P, xi)
        pg = petrov_galerkin_solve(gen_small, xi, V, W)
        np.testing.assert_allclose(cache.solve(xi, "primal").s_tilde,
                                   pg.s_tilde, rtol=1e-9, atol=1e-14)
        T = union_basis([W, WQ], gram=gen_small.gram_v0)
        sd = saddle_general_solve(gen_small, xi, V, T)
        np.testing.assert_allclose(cache.solve(xi, "saddle").s_tilde,
                                   sd.s_tilde, rtol=1e-8, atol=1e-13)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_cache_concurrent_first_use_builds_each_group_once(
        which, spd_small, gen_small, spd_spaces, gen_spaces, monkeypatch):
    from gorom import projectors
    model = spd_small if which == "spd" else gen_small
    V, WQ = spd_spaces if which == "spd" else gen_spaces
    builds = []
    for name, build in list(projectors._GROUPS.items()):
        monkeypatch.setitem(projectors._GROUPS, name,
                            lambda c, g, o, name=name, build=build:
                            builds.append(name) or build(c, g, o))
    work = [(xi, method) for xi in model.domain.sample(6, np.random.default_rng(27))
            for method in ("primal", "dual", "primal-dual", "saddle")]
    serial = ReducedCache(model, V, WQ)
    expected = [serial.solve(xi, method).s_tilde for xi, method in work]
    serial_builds = sorted(builds)
    builds.clear()
    cache = ReducedCache(model, V, WQ)
    start = threading.Barrier(8)

    def run_all():
        start.wait(timeout=60)  # every thread asks for the first block at once
        return [cache.solve(xi, method).s_tilde for xi, method in work]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_all) for _ in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(set(serial_builds)) == len(serial_builds)
    assert sorted(builds) == serial_builds  # each group built once, by one thread
    for got in results:
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("method", ["primal", "dual", "primal-dual", "saddle"])
def test_map_points_builds_blocks_in_calling_thread(
        method, spd_small, spd_spaces, monkeypatch):
    from gorom import projectors
    V, WQ = spd_spaces
    builders = []
    for name, build in list(projectors._GROUPS.items()):
        monkeypatch.setitem(projectors._GROUPS, name,
                            lambda c, g, o, build=build:
                            builders.append(threading.get_ident()) or build(c, g, o))
    cache = ReducedCache(spd_small, V, WQ)
    xis = spd_small.domain.sample(12, np.random.default_rng(28))
    got = projectors.map_points(lambda xi: cache.solve(xi, method).s_tilde,
                                xis, threads=4)
    assert builders and set(builders) == {threading.get_ident()}
    for xi, s in zip(xis, got):  # order preserved
        np.testing.assert_array_equal(s, cache.solve(xi, method).s_tilde)


def test_consistency_when_exact_everywhere(spd_small, spd_spaces):
    # every method reproduces s when its exactness precondition holds
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(26))[0]
    fact = spd_small.factorize_operator(xi)
    u, s = truth_solve(spd_small, xi, factorization=fact)
    Q = dual_truth_solve(spd_small, xi, factorization=fact)
    Vx = V.copy()
    Vx.append(u)
    WQx = Basis(spd_small.gram_v0, spd_small.n)
    WQx.extend(Q)
    T = union_basis([Vx, WQx], gram=spd_small.gram_v0)
    tol = 1e-9 * np.linalg.norm(s)
    assert np.linalg.norm(petrov_galerkin_solve(spd_small, xi, Vx).s_tilde - s) <= tol
    assert np.linalg.norm(dual_only_solve(spd_small, xi, WQx).s_tilde - s) <= tol
    assert np.linalg.norm(primal_dual_solve(spd_small, xi, Vx, WQx).s_tilde - s) <= tol
    assert np.linalg.norm(saddle_spd_solve(spd_small, xi, T).s_tilde - s) <= tol


@pytest.mark.one_blas_thread
def test_cancelled_residual_norms_fall_back_to_full_order(spd_small, spd_spaces):
    # at a point whose solution lies in V and in T the residual norms that
    # are expanded over the cached blocks cancel to rounding.  Where they
    # cancel to zero or below (forced here by lowering b^T R_V0^{-1} b), the
    # norm is taken at full order instead of clamped to a certified 0
    V, WQ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(27))[0]
    u, _ = truth_solve(spd_small, xi)
    Vx = V.copy()
    Vx.append(u)
    blocks = ReducedCache(spd_small, Vx, WQ).at(xi)
    b_norm = spd_small.v0_dual_norm(spd_small.rhs_at(xi))
    U = blocks.solve_primal().primal_coeffs
    assert blocks.p > Vx.dim
    blocks.Rbb = blocks.Rbb - b_norm ** 2
    for got in (blocks.primal_residual_norm(U), blocks.min_residual_over_T()):
        assert 0.0 < got <= 1e-10 * b_norm
    # empty spaces: both expansions are b^T R_V0^{-1} b alone, so a cancelled
    # one is the full-order || b ||, not 0
    empty = ReducedCache(spd_small, None, None).at(xi)
    empty.Rbb = -empty.Rbb
    for got in (empty.primal_residual_norm(np.zeros(0)), empty.min_residual_over_T()):
        assert got == pytest.approx(b_norm, rel=1e-12)


# ---------------------------------------------------------------------------
# cached blocks one by one, coefficient evaluations and the domain guard
# ---------------------------------------------------------------------------

@pytest.mark.one_blas_thread
@pytest.mark.parametrize("which", ["spd", "general", "general-precond"])
def test_cache_blocks_match_direct_blocks(which, spd_small, gen_small,
                                          spd_spaces, gen_spaces):
    # block by block, so that a transposed block taken for the direct one on
    # a general model shows even where a route would not read it
    from gorom.projectors import _GROUPS, _TRANSPOSES, DirectBlocks
    model, V, WQ, P, cache = model_cache(which, spd_small, gen_small,
                                         spd_spaces, gen_spaces)
    names = sorted(set(DirectBlocks._RECIPES) & (set(_GROUPS) | set(_TRANSPOSES)))
    assert {"WAV", "Wb", "LV", "KQ", "CQ", "LXQ", "QAQ", "LQ", "QL", "GLL",
            "KT", "CT", "LXT", "TAT", "TAV", "Tb", "LT", "zL", "b", "XQ", "XT",
            "Rbb", "RAA", "RAb", "RTT", "RTb"} <= set(names)
    for xi in model.domain.sample(3, np.random.default_rng(30)):
        W = build_test_space(model, V, P, xi) if P is not None else None
        direct = DirectBlocks(model, xi, V=V, WQ=WQ, W=W, T=cache._get("T").columns)
        cached = cache.at(xi)
        for name in names:
            got = getattr(cached, name)
            want = np.reshape(getattr(direct, name), got.shape)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), name


# each packed Gram group with the families of its dual images and of their
# Riesz representers
_GRAM_FAMILIES = {"RAA": ("FA_V", "zA_V"), "Rbb": ("b", "zb"), "KQ": ("FAt_Q", "XQ"),
                  "GLL": ("FL", "zL"), "KT": ("FAt_T", "XT"), "RTT": ("FA_T", "zA_T")}


@pytest.mark.parametrize("which", ["spd", "general"])
def test_packed_gram_blocks_are_symmetric_and_match_all_pairs(
        which, spd_small, gen_small, spd_spaces, gen_spaces):
    from gorom.projectors import _pairs
    model, _, _, _, cache = model_cache(which, spd_small, gen_small,
                                        spd_spaces, gen_spaces)
    for name, (fam, zfam) in _GRAM_FAMILIES.items():
        F, Z = cache._get(fam), cache._get(zfam)
        Q = len(F.stack)
        assert cache._get(name).stack.shape[0] == Q * (Q + 1) // 2, name  # i <= j
        for xi in model.domain.sample(3, np.random.default_rng(33)):
            blocks = cache.at(xi)
            got = getattr(blocks, name)
            want = _pairs(F, Z).at(blocks)  # all Q^2 ordered pairs
            np.testing.assert_array_equal(got, got.T)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


@pytest.mark.parametrize("which,method", [("spd", "primal-dual"), ("spd", "saddle"),
                                          ("general", "primal-dual"),
                                          ("general", "saddle")])
def test_estimate_factors_each_reduced_matrix_once(which, method, spd_small, gen_small,
                                                   spd_spaces, gen_spaces, reduced_factors):
    from gorom import estimate_error
    model, _, _, _, cache = model_cache(which, spd_small, gen_small,
                                        spd_spaces, gen_spaces)
    made = reduced_factors
    for xi in model.domain.sample(3, np.random.default_rng(34)):
        made.clear()
        sol = cache.solve(xi, method)
        estimate_error(model, sol)
        b = sol.blocks

        def count(kind, M):
            return sum(k == kind and np.array_equal(X, M) for k, X in made)

        assert len(made) == 2
        if method == "saddle" and which == "spd":
            # the saddle point reads TAT; the residual and dual factor RTT = KT
            assert count("cho", b.RTT) == 1
            assert count("cho", 0.5 * (b.TAT + b.TAT.T)) == 1
        elif method == "saddle":  # the block system, and KT for the dual factor
            assert count("cho", b.KT) == 1 and [k for k, _ in made].count("lu") == 1
        elif which == "spd":  # dual correction and dual factor share QAQ
            assert count("lu", b.QAQ) == 1 and count("lu", b.WAV) == 1
        else:  # dual correction and dual Schur complement share KQ
            assert count("cho", b.KQ) == 1 and count("lu", b.WAV) == 1


def test_general_primal_dual_refuses_a_rank_deficient_dual_space(gen_small, gen_spaces):
    from gorom import ReducedSolveError
    V, WQ = gen_spaces
    Q = WQ.columns[:, :2].copy()
    Q[:, 1] = Q[:, 0]  # K = (A^T WQ)^T R_V0^{-1} A^T WQ is singular
    xi = gen_small.domain.sample(1, np.random.default_rng(37))[0]
    with pytest.raises(ReducedSolveError, match="dual reduced system"):
        primal_dual_solve(gen_small, xi, V, Q)
    with pytest.raises(ReducedSolveError, match="dual reduced system"):
        ReducedCache(gen_small, V, Q).solve_primal_dual(xi)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_saddle_grams_over_dependent_columns_are_refused(which, spd_small, gen_small,
                                                         spd_spaces, gen_spaces):
    # a repeated column of T makes RTT and KT singular; their checked factors
    # refuse them where a least-squares fallback used to give an answer
    from gorom import ReducedSolveError
    from gorom.projectors import DirectBlocks
    model, V, _, _, _ = model_cache(which, spd_small, gen_small, spd_spaces, gen_spaces)
    T = np.column_stack([V.columns, V.columns[:, 0]])
    xi = model.domain.sample(1, np.random.default_rng(38))[0]
    blocks = DirectBlocks(model, xi, V=V, T=T)
    if which == "spd":
        with pytest.raises(ReducedSolveError, match="saddle residual system"):
            blocks.min_residual_over_T()
    else:
        with pytest.raises(ReducedSolveError, match="saddle dual system"):
            blocks.dual_schur("T")


def test_map_points_threads_give_bitwise_equal_estimates():
    # large enough (n >= 400, p >= 100) that the block contractions are
    # GEMVs a multi-threaded BLAS splits over its threads
    from gorom import estimate_error, make_diffusion_problem, ProblemConfig
    from gorom.projectors import map_points
    from tests.conftest import snapshot_spaces
    model = make_diffusion_problem(ProblemConfig(n=400, d=6, l=20, seed=4,
                                                 kind="diffusion-spd"))
    V, WQ = snapshot_spaces(model, 4, 6, seed=35)
    xis = model.domain.sample(12, np.random.default_rng(36))
    for method in ("primal-dual", "saddle"):
        cache = ReducedCache(model, V, WQ)
        assert cache.p >= 100

        def one(xi):
            sol = cache.solve(xi, method)
            rec = estimate_error(model, sol)
            return np.concatenate([sol.s_tilde, [rec.delta, rec.primal_factor,
                                                 rec.dual_factor]])

        serial = map_points(one, xis, threads=1)
        pooled = map_points(one, xis, threads=4)
        for a, b in zip(serial, pooled):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("which", ["spd", "general", "general-precond"])
def test_cache_point_evaluates_each_coefficient_once(
        which, spd_small, gen_small, spd_spaces, gen_spaces, monkeypatch):
    from collections import Counter

    from gorom import AffineForm
    from gorom.projectors import _GROUPS
    model, V, WQ, P, cache = model_cache(which, spd_small, gen_small,
                                         spd_spaces, gen_spaces)
    names = [n for n in _GROUPS if n != "T" and (n != "Ys" or P is not None)]
    xi0, xi = model.domain.sample(2, np.random.default_rng(31))
    for name in names:  # every group built beforehand, at another point
        getattr(cache.at(xi0), name)
    calls = Counter()
    original = AffineForm.coefficients_at

    def counting(self, x):  # a form evaluates all its coefficients at once
        calls[id(self)] += 1
        return original(self, x)

    monkeypatch.setattr(AffineForm, "coefficients_at", counting)
    blocks = cache.at(xi)
    for name in names:
        getattr(blocks, name)
    blocks.solve_primal()
    blocks.solve_dual_only()
    blocks.solve_primal_dual()
    if which == "spd":
        blocks.solve_saddle_spd()
    else:
        blocks.solve_saddle_general()
    blocks.primal_residual_norm(np.ones(blocks.r))
    blocks.min_residual_over_T()
    blocks.dual_schur("T")
    blocks.pd_dual_matrix()
    assert [calls[id(form)] for form in (model.A, model.b, model.L)] == [1, 1, 1]
    assert sum(calls.values()) == 3


@pytest.mark.parametrize("which", ["spd", "general", "general-precond"])
def test_cache_refuses_points_outside_the_domain(which, spd_small, gen_small,
                                                 spd_spaces, gen_spaces):
    from gorom import DomainError
    model, V, WQ, P, cache = model_cache(which, spd_small, gen_small,
                                         spd_spaces, gen_spaces)
    lo, hi = model.domain.lo, model.domain.hi
    for xi in (hi + (hi - lo), np.full(model.d, np.nan)):
        for method in ("primal", "dual", "primal-dual", "saddle"):
            with pytest.raises(DomainError):
                cache.solve(xi, method)
        with pytest.raises(DomainError):
            cache.primal_residual_norm(xi, np.ones(cache.r))


@pytest.mark.parametrize("case", ["spd-primal-dual", "spd-saddle", "general-precond"])
def test_stored_blocks_match_rebuilt_cache(case, spd_small, gen_small, tmp_path):
    # the blocks a greedy's final cache saves give every route's output of a
    # cache that builds them anew, and the certified bounds still bound the
    # error wherever it is above the rounding of s (1e-14 of |s|, the floor
    # of gorom stats)
    from gorom.estimators import estimate_error
    from gorom.greedy import GreedyConfig, run_greedy
    from gorom.projectors import BlockStore
    model, options = {
        "spd-primal-dual": (spd_small, dict(method="primal-dual")),
        "spd-saddle": (spd_small, dict(method="saddle", enrichment="partial")),
        "general-precond": (gen_small, dict(method="primal-dual", precondition=True,
                                            precond_sketch=30)),
    }[case]
    res = run_greedy(model, GreedyConfig(max_iter=4, train_count=10, train_seed=3,
                                         **options))
    res.cache.save(tmp_path / "blocks.npz", {})
    stored = ReducedCache(model, res.V, res.WQ, precond=res.precond,
                          store=BlockStore(tmp_path / "blocks.npz"))
    rebuilt = ReducedCache(model, res.V, res.WQ, precond=res.precond)
    for xi in model.domain.sample(6, np.random.default_rng(17)):
        _, s = truth_solve(model, xi)
        for method in ("primal", "dual", "primal-dual", "saddle"):
            got, want = stored.solve(xi, method), rebuilt.solve(xi, method)
            assert np.linalg.norm(got.s_tilde - want.s_tilde) \
                <= 1e-12 * np.linalg.norm(want.s_tilde), method
            if method in ("primal-dual", "saddle") and model.symmetry == "spd":
                rec, err = estimate_error(model, got), model.z_norm(s - got.s_tilde)
                assert rec.certified
                assert rec.delta >= err or err <= 1e-14 * np.linalg.norm(s), method
    # the solves read their blocks from the store
    assert {"WAV", "QAQ", "KQ"} & set(stored._store.groups) & set(stored._groups)


@pytest.mark.parametrize("which", ["spd", "general-precond"])
def test_growth_appends_panels_and_copies_none(which, spd_small, gen_small, gen_spaces):
    # a cache grown by a column of V (and, under an interpolant, by a point)
    # keeps the very panel arrays of each full-order family it carries and
    # appends new ones, so growing by a column allocates less than the
    # largest family holds
    import tracemalloc

    from gorom import ProblemConfig, make_diffusion_problem
    from gorom.estimators import estimate_error
    from gorom.projectors import _IMAGES
    from tests.conftest import snapshot_spaces
    if which == "spd":
        # large enough in n that a family outweighs the reduced blocks
        model = make_diffusion_problem(ProblemConfig(n=400, d=3, l=8, seed=1,
                                                     kind="diffusion-spd"))
        (V, WQ), P = snapshot_spaces(model, 4, 2, seed=101), None
    else:
        model, V, WQ, P, _ = model_cache(which, spd_small, gen_small, None, gen_spaces)
    xi = model.domain.sample(1, np.random.default_rng(8))[0]
    previous = ReducedCache(model, V.columns[:, :-1], WQ, precond=P)
    for method in ("primal-dual", "saddle"):
        estimate_error(model, previous.solve(xi, method), precond=P)
    families = {name: [panel for _, _, panel in group.panels]
                for name, group in previous._groups.items() if name in _IMAGES and name != "T"}
    if P is not None:
        P.add_point(model.domain.sample(1, np.random.default_rng(9))[0])
    tracemalloc.start()
    try:
        cache = ReducedCache(model, V, WQ, precond=P, previous=previous)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "FA_V" in families and (P is None or "Ys" in families)
    for name, panels in families.items():
        grown = [panel for _, _, panel in cache._groups[name].panels]
        assert all(a is b for a, b in zip(grown, panels)), name
    assert len(cache._groups["FA_V"].panels) == len(families["FA_V"]) + 1
    if P is not None:
        # Ys gains a panel of the new column over the old points, and one of
        # the new point over every column
        assert len(cache._groups["Ys"].panels) == len(families["Ys"]) + 2
    else:
        assert peak < max(sum(panel.nbytes for panel in panels) for panels in families.values())
