import numpy as np
import pytest
import scipy.linalg as la

from gorom import (
    Basis,
    InverseInterpolant,
    ProblemConfig,
    ReducedCache,
    UnsupportedModelError,
    alpha_min_theta,
    dual_truth_solve,
    effectivity_report,
    estimate_error,
    estimate_preconditioned,
    estimate_primal_dual,
    estimate_saddle,
    make_advection_diffusion_problem,
    make_diffusion_problem,
    primal_dual_solve,
    saddle_general_solve,
    saddle_spd_solve,
    select_output_direction,
    truth_solve,
)
from tests.conftest import model_cache, snapshot_spaces


def test_min_theta_reference_point(spd_small):
    assert alpha_min_theta(spd_small, spd_small.xi_ref) == pytest.approx(1.0)


def test_min_theta_constant_contrast(spd_small):
    xi = np.full(spd_small.d, 0.1)
    alpha = alpha_min_theta(spd_small, xi)
    assert alpha == pytest.approx(0.1, rel=1e-14)
    # dense oracle: generalized smallest eigenvalue of (A(xi), A(xi_ref))
    lam = la.eigvalsh(spd_small.operator_at(xi).toarray(),
                      spd_small.operator_at(spd_small.xi_ref).toarray())[0]
    assert lam >= alpha - 1e-12


def test_min_theta_is_lower_bound(spd_small):
    R = np.asarray(spd_small.gram_v0.todense())
    for xi in spd_small.domain.sample(20, np.random.default_rng(0)):
        alpha = alpha_min_theta(spd_small, xi)
        lam = la.eigvalsh(spd_small.operator_at(xi).toarray(), R)[0]
        assert alpha <= lam * (1 + 1e-10)


def test_min_theta_requires_flag(gen_small):
    with pytest.raises(UnsupportedModelError):
        alpha_min_theta(gen_small, gen_small.xi_ref)


def test_min_theta_checks_reference_gram_once(monkeypatch):
    from gorom import AffineForm, FullOrderModel
    cfg = ProblemConfig(n=25, d=2, l=3, seed=5, kind="diffusion-spd")
    model = make_diffusion_problem(cfg)
    calls = []
    original = AffineForm.__call__
    monkeypatch.setattr(AffineForm, "__call__",
                        lambda form, xi: calls.append(xi) or original(form, xi))
    for xi in model.domain.sample(4, np.random.default_rng(30)):
        alpha_min_theta(model, xi)
    assert len(calls) == 1  # A(xi_ref), assembled for the first call only
    shifted = FullOrderModel(model.A, model.b, model.L, 2.0 * model.gram_v0,
                             model.gram_z, model.domain, "spd", model.xi_ref,
                             coercive_affine=True)
    with pytest.raises(UnsupportedModelError):
        alpha_min_theta(shifted, model.xi_ref)


def test_estimate_requires_alpha(spd_small, spd_spaces):
    V, WQ = spd_spaces
    cache = ReducedCache(spd_small, V, WQ)
    xi = spd_small.domain.sample(1, np.random.default_rng(1))[0]
    sol = cache.solve_primal_dual(xi)
    with pytest.raises(UnsupportedModelError):
        estimate_primal_dual(spd_small, sol, None)


def test_estimate_zero_when_spaces_exact(spd_small, spd_spaces):
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(2))[0]
    fact = spd_small.factorize_operator(xi)
    u, s = truth_solve(spd_small, xi, factorization=fact)
    Vx = V.copy()
    Vx.append(u)
    WQx = Basis(spd_small.gram_v0, spd_small.n)
    WQx.extend(dual_truth_solve(spd_small, xi, factorization=fact))
    cache = ReducedCache(spd_small, Vx, WQx)
    alpha = alpha_min_theta(spd_small, xi)
    scale_cache = ReducedCache(spd_small, None, None)
    sol0 = scale_cache.solve_primal_dual(xi)
    scale = estimate_primal_dual(spd_small, sol0, alpha).delta
    rec = estimate_primal_dual(spd_small, cache.solve_primal_dual(xi), alpha)
    assert rec.delta <= 1e-9 * scale
    rec_s = estimate_saddle(spd_small, cache.solve_saddle(xi), alpha)
    assert rec_s.delta <= 1e-9 * scale


def test_estimate_matches_dense_oracle():
    cfg = ProblemConfig(n=25, d=2, l=3, seed=5, kind="diffusion-spd")
    model = make_diffusion_problem(cfg)
    V, WQ = snapshot_spaces(model, 2, 1, seed=6)
    cache = ReducedCache(model, V, WQ)
    xi = model.domain.sample(1, np.random.default_rng(3))[0]
    sol = cache.solve_primal_dual(xi)
    alpha = alpha_min_theta(model, xi)
    rec = estimate_primal_dual(model, sol, alpha)
    # dense oracle, everything assembled explicitly
    A = model.operator_at(xi).toarray()
    R = np.asarray(model.gram_v0.todense())
    b = model.rhs_at(xi)
    Lt = model.output_at(xi).toarray().T
    W = WQ.columns
    r = b - A @ (V.columns @ sol.primal_coeffs)
    pf = np.sqrt(r @ la.solve(R, r))
    qhat = la.solve(W.T @ A @ W, W.T @ Lt)     # energy-norm dual minimizer
    D = Lt - A.T @ (W @ qhat)
    df = np.sqrt(la.eigvalsh(D.T @ la.solve(R, D))[-1])
    assert rec.primal_factor == pytest.approx(pf, rel=1e-9)
    assert rec.dual_factor == pytest.approx(df, rel=1e-9)
    assert rec.delta == pytest.approx(pf * df / alpha, rel=1e-9)


def _eta_samples(model, V, WQ, count, seed, saddle=False):
    cache = ReducedCache(model, V, WQ)
    deltas, errors, snorms = [], [], []
    for xi in model.domain.sample(count, np.random.default_rng(seed)):
        alpha = alpha_min_theta(model, xi)
        if saddle:
            sol = cache.solve_saddle(xi)
            rec = estimate_saddle(model, sol, alpha)
        else:
            sol = cache.solve_primal_dual(xi)
            rec = estimate_primal_dual(model, sol, alpha)
        _, s = truth_solve(model, xi)
        deltas.append(rec.delta)
        errors.append(model.z_norm(s - sol.s_tilde))
        snorms.append(model.z_norm(s))
    return np.array(deltas), np.array(errors), np.array(snorms)


def test_certified_effectivity_at_least_one(spd_small, spd_spaces):
    V, WQ = spd_spaces
    d_pd, e_pd, _ = _eta_samples(spd_small, V, WQ, 30, seed=7)
    assert np.all(d_pd >= e_pd * (1 - 1e-9))
    d_sp, e_sp, _ = _eta_samples(spd_small, V, WQ, 30, seed=7, saddle=True)
    assert np.all(d_sp >= e_sp * (1 - 1e-9))
    # saddle estimate is sharper at equal spaces
    assert np.all(d_sp <= d_pd * (1 + 1e-9))


def test_certified_with_exact_alpha(spd_small, spd_spaces):
    # with the exact coercivity constant lambda_min(A, R_V0) the bounds are
    # still certified; the min-theta lower bound can only enlarge them
    V, WQ = spd_spaces
    cache = ReducedCache(spd_small, V, WQ)
    R = np.asarray(spd_small.gram_v0.todense())
    for xi in spd_small.domain.sample(10, np.random.default_rng(20)):
        exact = la.eigvalsh(spd_small.operator_at(xi).toarray(), R)[0]
        mtheta = alpha_min_theta(spd_small, xi)
        assert mtheta <= exact * (1 + 1e-10)
        _, s = truth_solve(spd_small, xi)
        for solver, estimator in (
            (cache.solve_primal_dual, estimate_primal_dual),
            (cache.solve_saddle, estimate_saddle),
        ):
            sol = solver(xi)
            err = spd_small.z_norm(s - sol.s_tilde)
            rec_exact = estimator(spd_small, sol, exact)
            rec_mt = estimator(spd_small, sol, mtheta)
            assert rec_exact.delta >= err * (1 - 1e-9)
            assert rec_mt.delta >= rec_exact.delta * (1 - 1e-12)


def test_dual_factor_matches_constants_route(gen_small, gen_spaces):
    # the cached Schur-complement dual factor equals delta_L computed from
    # explicit full-order residual columns (independent code path)
    from gorom import delta_L, union_basis
    V, WQ = gen_spaces
    cache = ReducedCache(gen_small, V, WQ)
    T = union_basis([V, WQ], gram=gen_small.gram_v0)
    for xi in gen_small.domain.sample(5, np.random.default_rng(21)):
        schur_wq = cache.dual_schur(xi, "WQ")
        df_wq = np.sqrt(max(la.eigvalsh(schur_wq)[-1], 0.0))
        assert df_wq == pytest.approx(delta_L(gen_small, xi, WQ, gram="v0"),
                                      rel=1e-10, abs=1e-13)
        schur_t = cache.dual_schur(xi, "T")
        df_t = np.sqrt(max(la.eigvalsh(schur_t)[-1], 0.0))
        assert df_t == pytest.approx(delta_L(gen_small, xi, T, gram="v0"),
                                     rel=1e-10, abs=1e-13)


def test_preconditioned_primal_factor_at_exact_point(gen_small, gen_spaces):
    V, WQ = gen_spaces
    P = InverseInterpolant(gen_small, sketch_size=60, seed=15)
    xi = gen_small.domain.sample(1, np.random.default_rng(8))[0]
    P.add_point(xi)
    cache = ReducedCache(gen_small, V, WQ, precond=P)
    sol = cache.solve_primal_dual(xi)
    rec = estimate_preconditioned(gen_small, sol, P)
    u, _ = truth_solve(gen_small, xi)
    err = gen_small.v0_norm(u - V.columns @ sol.primal_coeffs)
    assert rec.primal_factor == pytest.approx(err, rel=1e-8)
    assert not rec.certified


def test_preconditioned_zero_residual(gen_small, gen_spaces):
    V, WQ = gen_spaces
    xi = gen_small.domain.sample(1, np.random.default_rng(9))[0]
    u, s = truth_solve(gen_small, xi)
    Vx = V.copy()
    Vx.append(u)
    cache = ReducedCache(gen_small, Vx, WQ)
    sol = cache.solve_primal_dual(xi)
    rec = estimate_preconditioned(gen_small, sol, None)
    scale = gen_small.v0_dual_norm(gen_small.rhs_at(xi)) * rec.dual_factor
    assert rec.delta <= 1e-9 * scale


def test_estimate_error_picks_certified_or_surrogate(spd_small, gen_small,
                                                    spd_spaces, gen_spaces):
    def values(rec):
        return (rec.delta, rec.primal_factor, rec.dual_factor, rec.alpha,
                rec.method, rec.certified)

    xi = spd_small.domain.sample(1, np.random.default_rng(40))[0]
    sol = ReducedCache(spd_small, *spd_spaces).solve(xi, "saddle")
    auto = values(estimate_error(spd_small, sol))
    assert auto == values(estimate_saddle(spd_small, sol, alpha_min_theta(spd_small, xi)))
    assert auto == values(estimate_error(spd_small, sol, "min-theta"))
    assert values(estimate_error(spd_small, sol, "none")) == values(
        estimate_preconditioned(spd_small, sol))
    xi = gen_small.domain.sample(1, np.random.default_rng(41))[0]
    sol = ReducedCache(gen_small, *gen_spaces).solve(xi, "primal-dual")
    assert not estimate_error(gen_small, sol).certified
    with pytest.raises(UnsupportedModelError):
        estimate_error(gen_small, sol, "min-theta")
    with pytest.raises(ValueError):
        estimate_error(gen_small, ReducedCache(gen_small, *gen_spaces).solve(xi, "dual"))


@pytest.mark.parametrize("which, method", [("spd", "primal-dual"), ("spd", "saddle"),
                                           ("general", "primal-dual"),
                                           ("general-precond", "primal-dual")])
def test_solve_and_estimate_contract_each_group_once(
        which, method, spd_small, gen_small, spd_spaces, gen_spaces, monkeypatch):
    # the estimate reads the blocks its solution carries, so no block of the
    # point is contracted twice (spd: KT is the point's RTT)
    from collections import Counter

    from gorom.projectors import _Affine
    model, _, _, P, cache = model_cache(which, spd_small, gen_small,
                                        spd_spaces, gen_spaces)
    calls = Counter()
    original = _Affine.at

    def counting(self, theta):
        calls[id(self)] += 1
        return original(self, theta)

    monkeypatch.setattr(_Affine, "at", counting)
    for xi in model.domain.sample(2, np.random.default_rng(42)):
        calls.clear()
        estimate_error(model, cache.solve(xi, method), precond=P)
        assert calls and max(calls.values()) == 1


def test_preconditioned_saddle_estimate_assembles_the_operator_once(
        gen_small, gen_spaces, monkeypatch):
    from gorom import FullOrderModel
    model, _, _, P, cache = model_cache("general-precond", None, gen_small,
                                        None, gen_spaces)
    calls = []
    original = FullOrderModel.operator_at
    monkeypatch.setattr(FullOrderModel, "operator_at",
                        lambda self, xi: calls.append(xi) or original(self, xi))
    for xi in model.domain.sample(3, np.random.default_rng(43)):
        calls.clear()
        estimate_error(model, cache.solve(xi, "saddle"), precond=P)
        assert len(calls) == 1


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("method", ["primal-dual", "saddle"])
def test_surrogate_estimate_fits_the_weights_once(method, gen_small, gen_spaces,
                                                  monkeypatch):
    # the route and its estimate share one fit of lambda(xi) per point
    model, _, _, P, cache = model_cache("general-precond", None, gen_small,
                                        None, gen_spaces)
    calls = []
    original = InverseInterpolant.fit
    monkeypatch.setattr(InverseInterpolant, "fit",
                        lambda self, thetas: calls.append(1) or original(self, thetas))
    for xi in model.domain.sample(3, np.random.default_rng(45)):
        calls.clear()
        estimate_error(model, cache.solve(xi, method), precond=P)
        assert len(calls) == 1


def test_weights_are_kept_per_interpolant(gen_small, gen_spaces):
    # an estimate under another interpolant than the route's fits its own
    model, _, _, P, cache = model_cache("general-precond", None, gen_small,
                                        None, gen_spaces)
    Q = InverseInterpolant(model, sketch_size=40, seed=8)
    Q.add_point(model.xi_ref)
    xi = model.domain.sample(1, np.random.default_rng(47))[0]
    blocks = cache.solve(xi, "primal-dual").blocks
    np.testing.assert_array_equal(blocks.weights(P), P.coefficients(xi))
    np.testing.assert_array_equal(blocks.weights(Q), Q.coefficients(xi))


@pytest.mark.one_blas_thread
def test_cached_general_saddle_estimate_assembles_no_operator(gen_small, gen_spaces,
                                                              monkeypatch):
    # the residual at the saddle point applies the operator terms one by one
    from gorom import FullOrderModel
    model, _, _, _, cache = model_cache("general", None, gen_small, None, gen_spaces)
    calls = []
    original = FullOrderModel.operator_at
    monkeypatch.setattr(FullOrderModel, "operator_at",
                        lambda self, xi: calls.append(xi) or original(self, xi))
    for xi in model.domain.sample(3, np.random.default_rng(46)):
        estimate_error(model, cache.solve(xi, "saddle"))
        estimate_saddle(model, cache.solve(xi, "saddle"), 0.5)
    assert calls == []


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("which", ["spd", "general", "general-precond"])
def test_estimates_of_direct_solutions_match_cached(which, spd_small, gen_small,
                                                    spd_spaces, gen_spaces):
    # every estimator reads the blocks of its solution, whichever provider
    # computed them: DirectBlocks (from the full-order operator) or the cache
    from gorom import build_test_space
    model, V, WQ, P, cache = model_cache(which, spd_small, gen_small,
                                         spd_spaces, gen_spaces)
    T = cache._get("T").columns
    for xi in model.domain.sample(3, np.random.default_rng(44)):
        W = build_test_space(model, V, P, xi) if P is not None else None
        pairs = [(cache.solve(xi, "primal-dual"),
                  primal_dual_solve(model, xi, V, WQ, W=W))]
        if which == "spd":
            pairs.append((cache.solve(xi, "saddle"), saddle_spd_solve(model, xi, T)))
        elif P is None:
            pairs.append((cache.solve(xi, "saddle"),
                          saddle_general_solve(model, xi, V, T)))
        for cached, direct in pairs:
            certified = (estimate_primal_dual if cached.method == "primal-dual"
                         else estimate_saddle)
            for estimator in (lambda sol: certified(model, sol, 0.5),
                              lambda sol: estimate_preconditioned(model, sol, P)):
                want, got = estimator(cached), estimator(direct)
                assert got.method == want.method
                for field in ("delta", "primal_factor", "dual_factor"):
                    assert getattr(got, field) == pytest.approx(
                        getattr(want, field), rel=1e-10), (cached.method, field)


def test_select_direction_scalar_output(spd_small):
    comp_cfg = ProblemConfig(n=36, d=2, l=1, seed=7, kind="diffusion-spd")
    model = make_diffusion_problem(comp_cfg)
    V, WQ = snapshot_spaces(model, 2, 1, seed=8)
    cache = ReducedCache(model, V, WQ)
    xi = model.domain.sample(1, np.random.default_rng(10))[0]
    z = select_output_direction(model, xi, cache, "saddle")
    assert z.shape == (1,)
    assert z[0] == pytest.approx(1.0)


def test_select_direction_monte_carlo_oracle():
    cfg = ProblemConfig(n=49, d=3, l=3, seed=9, kind="advection-diffusion")
    model = make_advection_diffusion_problem(cfg)
    V, WQ = snapshot_spaces(model, 2, 1, seed=10)
    cache = ReducedCache(model, V, WQ)
    xi = model.domain.sample(1, np.random.default_rng(11))[0]
    for method in ("saddle", "primal-dual"):
        z = select_output_direction(model, xi, cache, method)
        M = (cache.dual_schur(xi, "WQ") if method == "saddle"
             else cache.pd_dual_matrix(xi))
        obj = float(z @ M @ z)  # z is unit in the (canonical) output dual norm
        rng = np.random.default_rng(12)
        best = 0.0
        for _ in range(10_000):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            best = max(best, float(w @ M @ w))
        assert obj >= best * 0.99
        assert obj >= best - 1e-12  # eigen route can only beat sampling


def test_select_direction_resolved_dual(spd_small):
    xi = spd_small.domain.sample(1, np.random.default_rng(13))[0]
    WQx = Basis(spd_small.gram_v0, spd_small.n)
    WQx.extend(dual_truth_solve(spd_small, xi))
    cache = ReducedCache(spd_small, None, WQx)
    z = select_output_direction(spd_small, xi, cache, "saddle")
    M = cache.dual_schur(xi, "WQ")
    # scale: the same objective with an empty dual space
    empty = ReducedCache(spd_small, None, None)
    scale = np.abs(empty.dual_schur(xi, "WQ")).max()
    assert abs(z @ M @ z) <= 1e-8 * scale
    assert spd_small.z_dual_norm(z) == pytest.approx(1.0, rel=1e-10)


def test_effectivity_report_trivia():
    rep = effectivity_report([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], bins=4)
    assert rep.mean == 2.0 and rep.maxmin_ratio == 1.0 and rep.nstd == 0.0
    rep2 = effectivity_report([1.0, 3.0], [1.0, 1.0], bins=2)
    assert rep2.mean == 2.0 and rep2.maxmin_ratio == 3.0
    assert rep2.hist_counts.sum() == rep2.n_included
    with pytest.raises(ValueError):
        effectivity_report([], [])
    rep3 = effectivity_report([1.0, 1.0], [1.0, 0.0], s_norms=[1.0, 1.0])
    assert rep3.n_excluded == 1 and rep3.n_included == 1
