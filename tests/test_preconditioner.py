import json

import numpy as np
import pytest
import scipy.linalg as la
from scipy.optimize import nnls

from gorom import (
    Factorization,
    GoromError,
    InverseInterpolant,
    ProblemConfig,
    ReducedSolveError,
    make_advection_diffusion_problem,
)


@pytest.fixture(scope="module")
def model():
    cfg = ProblemConfig(n=49, d=3, l=2, seed=4, kind="advection-diffusion")
    return make_advection_diffusion_problem(cfg)


@pytest.fixture()
def precond(model):
    return InverseInterpolant(model, sketch_size=40, seed=9, positivity=True)


def test_exact_point_coefficients(model, precond):
    pts = model.domain.sample(3, np.random.default_rng(0))
    for pt in pts:
        precond.add_point(pt)
    lam = precond.coefficients(pts[1])
    expected = np.zeros(3)
    expected[1] = 1.0
    np.testing.assert_allclose(lam, expected, atol=1e-7)
    assert precond.sketched_objective(pts[1]) <= 1e-8 * np.linalg.norm(precond.omega)


def test_single_point_unit_coefficient(model, precond):
    pt = model.domain.sample(1, np.random.default_rng(1))[0]
    assert precond.add_point(pt)
    assert precond.m == 1
    np.testing.assert_allclose(precond.coefficients(pt), [1.0], atol=1e-10)


def test_duplicate_point_rejected(model, precond):
    pt = model.domain.sample(1, np.random.default_rng(2))[0]
    assert precond.add_point(pt)
    assert not precond.add_point(pt.copy())
    assert precond.m == 1


def test_blocks_match_dense_inverse(model, precond):
    pt = model.domain.sample(1, np.random.default_rng(3))[0]
    precond.add_point(pt)
    Ad = model.operator_at(pt).toarray()
    for k, (_, term) in enumerate(model.A.terms):
        dense = la.solve(Ad, term.toarray() @ precond.omega)
        np.testing.assert_allclose(precond._blocks[0][k], dense,
                                   rtol=1e-9, atol=1e-11 * np.abs(dense).max())


def test_single_point_closed_form_coefficient(model):
    # m=1: lambda is the scalar quadratic minimizer <M,Omega>/<M,M>
    P = InverseInterpolant(model, sketch_size=30, seed=10, positivity=False)
    pts = model.domain.sample(2, np.random.default_rng(4))
    P.add_point(pts[0])
    xi = pts[1]
    M = P._sketched_images_at(xi)[0]
    expected = np.vdot(M, P.omega) / np.vdot(M, M)
    np.testing.assert_allclose(P.coefficients(xi), [expected], rtol=1e-12)


def test_positivity_constraint_respected(model):
    P = InverseInterpolant(model, sketch_size=30, seed=11, positivity=True)
    rng = np.random.default_rng(5)
    for pt in model.domain.sample(4, rng):
        P.add_point(pt)
    for xi in model.domain.sample(10, rng):
        lam = P.coefficients(xi)
        assert np.all(lam >= 0.0)


def test_objective_beats_unit_coefficients(model):
    P = InverseInterpolant(model, sketch_size=30, seed=12, positivity=True)
    rng = np.random.default_rng(6)
    for pt in model.domain.sample(3, rng):
        P.add_point(pt)
    for xi in model.domain.sample(5, rng):
        lam = P.coefficients(xi)
        obj = P.sketched_objective(xi, lam)
        for i in range(P.m):
            e = np.zeros(P.m)
            e[i] = 1.0
            assert obj <= P.sketched_objective(xi, e) * (1 + 1e-12)


def test_apply_m0_is_riesz(model):
    P = InverseInterpolant(model, sketch_size=20, seed=13)
    X = np.random.default_rng(7).standard_normal((model.n, 3))
    np.testing.assert_allclose(P.apply(np.zeros(0), X), model.riesz_v0(X), atol=1e-14)
    np.testing.assert_allclose(P.apply_adjoint(np.zeros(0), X), model.riesz_v0(X),
                               atol=1e-14)


def test_apply_single_point_identity(model, precond):
    pt = model.domain.sample(1, np.random.default_rng(8))[0]
    precond.add_point(pt)
    X = np.random.default_rng(9).standard_normal((model.n, 2))
    Ad = model.operator_at(pt).toarray()
    lam = precond.coefficients(pt)
    np.testing.assert_allclose(precond.apply(lam, X), la.solve(Ad, X),
                               rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(precond.apply_adjoint(lam, X), la.solve(Ad.T, X),
                               rtol=1e-8, atol=1e-10)


def test_apply_matches_dense_combination(model):
    P = InverseInterpolant(model, sketch_size=30, seed=14, positivity=False)
    rng = np.random.default_rng(10)
    pts = model.domain.sample(2, rng)
    for pt in pts:
        P.add_point(pt)
    xi = model.domain.sample(1, rng)[0]
    lam = P.coefficients(xi)
    X = rng.standard_normal((model.n, 2))
    dense = sum(li * la.solve(model.operator_at(pt).toarray().T, X)
                for li, pt in zip(lam, pts))
    np.testing.assert_allclose(P.apply_adjoint(lam, X), dense, rtol=1e-9,
                               atol=1e-11 * np.abs(dense).max())


def test_apply_linear(model, precond):
    rng = np.random.default_rng(11)
    for pt in model.domain.sample(2, rng):
        precond.add_point(pt)
    xi = model.domain.sample(1, rng)[0]
    X = rng.standard_normal((model.n, 2))
    Y = rng.standard_normal((model.n, 2))
    lam = precond.coefficients(xi)
    lhs = precond.apply(lam, 2.0 * X - 3.0 * Y)
    rhs = 2.0 * precond.apply(lam, X) - 3.0 * precond.apply(lam, Y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())


def test_interpolation_residual_small_with_point_included(model, precond):
    rng = np.random.default_rng(12)
    pts = model.domain.sample(3, rng)
    for pt in pts:
        precond.add_point(pt)
    for pt in pts:
        assert precond.sketched_objective(pt) <= 1e-8 * np.linalg.norm(precond.omega)


def test_memory_counter_grows(model, precond):
    base = precond.memory_bytes
    precond.add_point(model.domain.sample(1, np.random.default_rng(13))[0])
    assert precond.memory_bytes > base


def test_greedy_point_selection(model):
    P = InverseInterpolant(model, sketch_size=30, seed=16, positivity=True)
    rng = np.random.default_rng(14)
    candidates = model.domain.sample(12, rng)
    added = P.add_greedy_points(candidates, 3)
    assert len(added) == 3 and P.m == 3
    # each added point maximized the residual objective among candidates,
    # so the residual at every stored point is now (near) zero
    for pt in P.points:
        assert P.sketched_objective(pt) <= 1e-8 * np.linalg.norm(P.omega)
    # determinism: same candidates, same selection
    P2 = InverseInterpolant(model, sketch_size=30, seed=16, positivity=True)
    added2 = P2.add_greedy_points(candidates, 3)
    np.testing.assert_array_equal(np.array(added), np.array(added2))


def test_sketched_objective_m0_convention(model):
    # with no points P_0 = R_V0^{-1}, not 0
    P = InverseInterpolant(model, sketch_size=25, seed=17)
    xi = model.domain.sample(1, np.random.default_rng(15))[0]
    A = model.operator_at(xi).toarray()
    expected = np.linalg.norm(
        model.riesz_v0(A @ P.omega) - P.omega)
    assert P.sketched_objective(xi) == pytest.approx(expected, rel=1e-12)


def _direct_coefficients(P, xi):
    """The fit from the sketched images themselves: G_ij = <M_i, M_j>."""
    images = P._sketched_images_at(xi)
    G = np.array([[np.vdot(Mi, Mj) for Mj in images] for Mi in images])
    h = np.array([np.vdot(Mi, P.omega) for Mi in images])
    if not P.positivity:
        return la.cho_solve(la.cho_factor(G), h)
    R = la.cholesky(G)
    return nnls(R, la.solve_triangular(R, h, trans="T"))[0]


def _interpolant(model, m, positivity=True, seed=18):
    P = InverseInterpolant(model, sketch_size=35, seed=seed, positivity=positivity)
    for pt in model.domain.sample(m, np.random.default_rng(100 + m)):
        P.add_point(pt)
    return P


@pytest.mark.parametrize("positivity", [True, False])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_tensor_coefficients_match_direct_fit(model, m, positivity):
    P = _interpolant(model, m, positivity)
    assert P.gram.shape == (m, m, len(model.A.terms), len(model.A.terms))
    for xi in model.domain.sample(10, np.random.default_rng(16)):
        expected = _direct_coefficients(P, xi)
        np.testing.assert_allclose(P.coefficients(xi), expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())


def _round_trip(model, P):
    return InverseInterpolant.from_dict(model, json.loads(json.dumps(P.to_dict())))


@pytest.mark.parametrize("m", [0, 3])
def test_round_trip_fits_without_sketch_solves(model, monkeypatch, m):
    P = _interpolant(model, m)
    calls = []
    original = Factorization.solve

    def counting(self, B, transpose=False):
        calls.append(np.shape(B))
        return original(self, B, transpose)

    monkeypatch.setattr(Factorization, "solve", counting)
    Q = _round_trip(model, P)
    assert calls == []
    assert Q.m == m and np.array_equal(Q.gram, P.gram) and np.array_equal(Q.h, P.h)
    for xi in model.domain.sample(10, np.random.default_rng(17)):
        np.testing.assert_array_equal(Q.coefficients(xi), P.coefficients(xi))
    assert calls == []


def test_loaded_objective_and_growth_match_original(model):
    P = _interpolant(model, 3)
    Q = _round_trip(model, P)
    for xi in model.domain.sample(4, np.random.default_rng(19)):
        assert Q.sketched_objective(xi) == pytest.approx(P.sketched_objective(xi),
                                                         rel=1e-14)
    for pt in P.points:
        assert Q.sketched_objective(pt) <= 1e-8 * np.linalg.norm(Q.omega)
    # a loaded interpolant grows like the one it was saved from
    extra = model.domain.sample(1, np.random.default_rng(20))[0]
    assert P.add_point(extra) and Q.add_point(extra)
    np.testing.assert_allclose(Q.gram, P.gram, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(Q.h, P.h, rtol=1e-13, atol=0.0)


def test_memory_bytes_counts_tensors_before_blocks(model):
    P = _interpolant(model, 2)
    Q = _round_trip(model, P)
    unbuilt = Q.memory_bytes
    assert Q._stacks is None
    assert unbuilt == (Q.omega.nbytes + Q.gram.nbytes + Q.h.nbytes
                       + sum(f.nbytes for f in Q.factorizations))
    Q.sketched_objective(Q.points[0])
    assert Q.memory_bytes == P.memory_bytes
    assert Q.memory_bytes - unbuilt == sum(b.nbytes for b in Q._blocks)


@pytest.mark.parametrize("edit, message", [
    (lambda d: (d.pop("gram"), d.pop("h")), "lacks gram, h"),
    (lambda d: d["gram"].pop(), "gram does not have shape"),
    (lambda d: d["h"][0].append(0.0), "h does not have shape"),
    (lambda d: d["points"][1].pop(), "points does not have shape"),
    pytest.param(lambda d: d.__setitem__("points", 5), "points does not have shape",
                 id="points-not-a-list"),
    (lambda d: d["h"][1].__setitem__(0, float("nan")), "h holds non-finite"),
    (lambda d: d["gram"][0][1][0].__setitem__(0, float("inf")),
     "gram holds non-finite"),
])
def test_from_dict_refuses_bad_records(model, edit, message):
    d = json.loads(json.dumps(_interpolant(model, 2).to_dict()))
    edit(d)
    with pytest.raises(GoromError, match=message) as exc:
        InverseInterpolant.from_dict(model, json.loads(json.dumps(d)))
    assert "re-run gorom offline" in str(exc.value)


@pytest.mark.parametrize("positivity", [True, False])
def test_fit_refuses_a_record_with_two_equal_points(model, positivity):
    # equal points give a singular weight system: refused, where a jittered
    # Cholesky or least squares used to give weights
    d = json.loads(json.dumps(_interpolant(model, 1, positivity).to_dict()))
    d["points"] *= 2
    d["gram"] = [[d["gram"][0][0]] * 2] * 2
    d["h"] *= 2
    P = InverseInterpolant.from_dict(model, d)
    xi = model.domain.sample(1, np.random.default_rng(21))[0]
    with pytest.raises(ReducedSolveError, match="interpolation weight system"):
        P.coefficients(xi)


def test_loaded_interpolant_factorizes_once_under_concurrent_first_use(model, monkeypatch):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor
    from gorom import FullOrderModel
    P = _interpolant(model, 5)
    X = np.random.default_rng(21).standard_normal((model.n, 2))
    xi = model.domain.sample(1, np.random.default_rng(22))[0]
    expected = P.apply(P.coefficients(xi), X)
    calls = []
    original = FullOrderModel.factorize_operator

    def counting(self, pt):
        calls.append(tuple(pt))
        return original(self, pt)

    monkeypatch.setattr(FullOrderModel, "factorize_operator", counting)
    Q = _round_trip(model, P)
    assert calls == []  # loading factorizes nothing
    start = threading.Barrier(8)

    def first_use():
        start.wait(timeout=60)
        return Q.apply(Q.coefficients(xi), X)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(first_use) for _ in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(tuple(p) for p in P.points)  # once per point
    for got in results:
        np.testing.assert_array_equal(got, expected)
