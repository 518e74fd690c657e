import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from gorom import (
    AffineForm,
    CoefficientFn,
    FullOrderModel,
    ParameterDomain,
    ProblemConfig,
    compliant_variant,
    dual_truth_solve,
    make_advection_diffusion_problem,
    make_diffusion_problem,
    sample_parameters,
    truth_solve,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(n=8)
    with pytest.raises(ValueError):
        ProblemConfig(d=0)
    with pytest.raises(ValueError):
        ProblemConfig(l=0)
    with pytest.raises(ValueError):
        ProblemConfig(kind="nope")


def test_diffusion_single_parameter_sum():
    cfg = ProblemConfig(n=36, d=1, l=4, seed=0, kind="diffusion-spd")
    m = make_diffusion_problem(cfg)
    assert m.A.nterms == 2
    A_at_one = m.operator_at(np.array([1.0])).toarray()
    direct = sum(t.toarray() for _, t in m.A.terms)
    np.testing.assert_allclose(A_at_one, direct, atol=1e-15)


def test_diffusion_coefficients_positive_on_domain(spd_small):
    xis = spd_small.domain.sample(1000, np.random.default_rng(0))
    for xi in xis:
        assert np.all(spd_small.A.coefficients_at(xi) > 0.0)


def test_diffusion_spd_at_random_points(spd_small):
    for xi in spd_small.domain.sample(20, np.random.default_rng(1)):
        A = spd_small.operator_at(xi).toarray()
        la.cholesky(A)  # raises if not SPD


def test_advection_zero_is_symmetric(gen_small):
    xi = gen_small.xi_ref.copy()
    xi[-1] = 0.0
    A = gen_small.operator_at(xi)
    assert sp.linalg.norm(A - A.T) == 0.0
    xi[-1] = 10.0
    assert sp.linalg.norm((lambda M: M - M.T)(gen_small.operator_at(xi))) > 0.0


def test_advection_output_rows_average(gen_small):
    L = gen_small.output_at(gen_small.xi_ref).toarray()
    np.testing.assert_allclose(L.sum(axis=1), 1.0, rtol=1e-12)


def test_advection_invertible_at_random_points(gen_small):
    for xi in gen_small.domain.sample(20, np.random.default_rng(2)):
        gen_small.factorize_operator(xi)  # raises on tiny pivots


def _identity_model(n=5, l=2):
    A = AffineForm([(CoefficientFn.constant(1.0), sp.eye(n, format="csr"))])
    b = AffineForm([(CoefficientFn.constant(1.0), np.arange(1.0, n + 1.0))])
    L = AffineForm([(CoefficientFn.constant(1.0),
                     sp.csr_matrix(np.eye(l, n)))])
    return FullOrderModel(A, b, L, np.eye(n), np.eye(l),
                          ParameterDomain([0.0], [1.0]), "spd", [0.5])


def test_truth_solve_identity_operator():
    m = _identity_model()
    u, s = truth_solve(m, np.array([0.5]))
    np.testing.assert_allclose(u, np.arange(1.0, 6.0), atol=1e-14)
    np.testing.assert_allclose(s, [1.0, 2.0], atol=1e-14)
    Q = dual_truth_solve(m, np.array([0.5]))
    np.testing.assert_allclose(Q, np.eye(2, 5).T, atol=1e-14)


def test_truth_solve_zero_rhs():
    m = _identity_model()
    zero = FullOrderModel(m.A, AffineForm([(CoefficientFn.constant(1.0), np.zeros(5))]),
                          m.L, np.eye(5), np.eye(2),
                          m.domain, "spd", m.xi_ref)
    u, s = truth_solve(zero, np.array([0.5]))
    assert np.all(u == 0.0) and np.all(s == 0.0)


def test_truth_residual_oracle(spd_small):
    for xi in spd_small.domain.sample(5, np.random.default_rng(3)):
        u, s = truth_solve(spd_small, xi)
        resid = spd_small.operator_at(xi) @ u - spd_small.rhs_at(xi)
        b = spd_small.rhs_at(xi)
        assert np.linalg.norm(resid, np.inf) <= 1e-10 * np.linalg.norm(b, np.inf)
        np.testing.assert_allclose(s, spd_small.output_at(xi) @ u, atol=1e-15)


def test_compliant_dual_equals_primal(spd_small):
    comp = compliant_variant(spd_small)
    xi = comp.domain.sample(1, np.random.default_rng(4))[0]
    u, _ = truth_solve(comp, xi)
    Q = dual_truth_solve(comp, xi)
    np.testing.assert_allclose(Q[:, 0], u, rtol=1e-9)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_output_identity_via_dual(which, spd_small, gen_small):
    model = spd_small if which == "spd" else gen_small
    for xi in model.domain.sample(10, np.random.default_rng(5)):
        fact = model.factorize_operator(xi)
        u, s = truth_solve(model, xi, factorization=fact)
        Q = dual_truth_solve(model, xi, factorization=fact)
        s_dual = Q.T @ model.rhs_at(xi)
        assert np.linalg.norm(s_dual - s) <= 1e-9 * max(np.linalg.norm(s), 1e-300)


@pytest.mark.parametrize("which", ["spd", "general"])
def test_truth_solves_assemble_the_operator_once(which, spd_small, gen_small,
                                                 monkeypatch):
    # without a given factorization, each solve factors the A(xi) it assembled
    model = spd_small if which == "spd" else gen_small
    xi = model.domain.sample(1, np.random.default_rng(6))[0]
    expected = (truth_solve(model, xi, model.factorize_operator(xi)),
                dual_truth_solve(model, xi, model.factorize_operator(xi)))
    calls = []
    original = FullOrderModel.operator_at

    def counting(self, pt):
        calls.append(tuple(pt))
        return original(self, pt)

    monkeypatch.setattr(FullOrderModel, "operator_at", counting)
    u, s = truth_solve(model, xi)
    assert len(calls) == 1
    Q = dual_truth_solve(model, xi)
    assert len(calls) == 2
    np.testing.assert_array_equal(u, expected[0][0])
    np.testing.assert_array_equal(s, expected[0][1])
    np.testing.assert_array_equal(Q, expected[1])


def test_sampling_deterministic_and_in_box(spd_small):
    dom = spd_small.domain
    a = sample_parameters(dom, 50, seed=7)
    b = sample_parameters(dom, 50, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, dom.dim)
    assert all(dom.contains(xi) for xi in a)
    assert sample_parameters(dom, 0, seed=7).size == 0


def test_log_uniform_median():
    dom = ParameterDomain([0.1], [10.0], ("log",))
    xs = sample_parameters(dom, 10_000, seed=8)[:, 0]
    assert 0.8 <= np.median(xs) <= 1.25


def test_generation_reproducible():
    cfg = ProblemConfig(n=64, d=2, l=4, seed=11, kind="diffusion-spd")
    m1 = make_diffusion_problem(cfg)
    m2 = make_diffusion_problem(cfg)
    for (c1, t1), (c2, t2) in zip(m1.A.terms, m2.A.terms):
        assert (t1 != t2).nnz == 0
    np.testing.assert_array_equal(m1.b.terms[0][1], m2.b.terms[0][1])
    cfg_g = ProblemConfig(n=64, d=3, l=2, seed=11, kind="advection-diffusion")
    g1 = make_advection_diffusion_problem(cfg_g)
    g2 = make_advection_diffusion_problem(cfg_g)
    for (c1, t1), (c2, t2) in zip(g1.A.terms, g2.A.terms):
        assert (t1 != t2).nnz == 0
