import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from gorom import (
    AffineForm,
    Basis,
    CoefficientFn,
    DegenerateTestSpaceError,
    FullOrderModel,
    ParameterDomain,
    compute_constants,
    delta_L,
    delta_VW,
    dual_truth_solve,
    infsup_alpha,
    petrov_galerkin_solve,
)


def make_dense_model(rng, n=40, l=3, symmetric=False):
    M = rng.standard_normal((n, n))
    if symmetric:
        M = M @ M.T + n * np.eye(n)
    else:
        M = M + n * np.eye(n)
    A = AffineForm([(CoefficientFn.constant(1.0), sp.csr_matrix(M))])
    b = AffineForm([(CoefficientFn.constant(1.0), rng.standard_normal(n))])
    L = AffineForm([(CoefficientFn.constant(1.0),
                     sp.csr_matrix(rng.standard_normal((l, n))))])
    G = rng.standard_normal((n, n))
    G = G @ G.T + n * np.eye(n)
    return FullOrderModel(A, b, L, G, np.eye(l), ParameterDomain([0.0], [1.0]),
                          "spd" if symmetric else "general", [0.5])


XI = np.array([0.5])


def test_delta_zero_for_galerkin_energy(spd_small, spd_spaces):
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(0))[0]
    assert delta_VW(spd_small, xi, V, V) <= 1e-8


def test_delta_zero_for_ideal_test_space():
    rng = np.random.default_rng(1)
    model = make_dense_model(rng, symmetric=False)
    V = rng.standard_normal((model.n, 4))
    A = model.operator_at(XI).toarray()
    ideal = la.solve(A.T, np.asarray(model.gram_v0 @ V))
    assert delta_VW(model, XI, V, ideal) <= 1e-8
    assert infsup_alpha(model, XI, V, ideal) >= 1.0 - 1e-8


def test_delta_monte_carlo_oracle():
    # brute force: max over random unit v in V of the exactly-minimized
    # distance to R^{-1} A^T S, compared against the eigenvalue route
    rng = np.random.default_rng(2)
    model = make_dense_model(rng, n=40, symmetric=False)
    V = rng.standard_normal((40, 3))
    S = rng.standard_normal((40, 3))
    delta = delta_VW(model, XI, V, S)
    A = model.operator_at(XI).toarray()
    G = np.asarray(model.gram_v0.todense() if sp.issparse(model.gram_v0)
                   else model.gram_v0)
    Z = la.solve(G, A.T @ S)
    H = (A.T @ S).T @ Z
    best = 0.0
    for _ in range(10_000):
        c = rng.standard_normal(3)
        v = V @ c
        d = la.solve(H, (A.T @ S).T @ la.solve(G, G @ v))
        # minimizer of ||v - Z d||_G over d
        d = la.solve(H, Z.T @ (G @ v))
        resid = v - Z @ d
        best = max(best, np.sqrt(resid @ G @ resid / (v @ G @ v)))
    assert best <= delta * (1 + 1e-9)
    assert best >= delta * 0.98


def test_empty_spaces_conventions(spd_small, spd_spaces):
    V, _ = spd_spaces
    xi = spd_small.domain.sample(1, np.random.default_rng(3))[0]
    empty = Basis(spd_small.gram_v0, spd_small.n)
    assert delta_VW(spd_small, xi, empty, V) == 0.0
    assert delta_VW(spd_small, xi, V, empty) == 1.0
    assert infsup_alpha(spd_small, xi, V, empty) == 0.0


def test_alpha_delta_complementarity(gen_small, gen_spaces):
    V, WQ = gen_spaces
    for xi in gen_small.domain.sample(5, np.random.default_rng(4)):
        rep = compute_constants(gen_small, xi, V, WQ)
        assert abs(rep.alpha ** 2 + rep.delta_vw ** 2 - 1.0) <= 1e-10


def test_alpha_zero_when_adjoint_image_orthogonal():
    # S chosen with A^T S orthogonal to V in the V0 inner product
    rng = np.random.default_rng(5)
    model = make_dense_model(rng, n=30, symmetric=False)
    A = model.operator_at(XI).toarray()
    G = np.asarray(model.gram_v0)
    V = np.eye(30)[:, :3]
    # pick S with A^T S spanned by coordinates 10..12: then G-orthogonalize
    # against V is not needed if G couples them; construct directly:
    target = la.solve(G, np.eye(30)[:, 10:13])  # R^{-1} A^T S = e_10..e_12 basis
    S = la.solve(A.T, G @ target)
    # now R^{-1}A^T S = target; make V G-orthogonal to target
    V = target @ rng.standard_normal((3, 3))
    V = la.qr(V, mode="economic")[0]
    comp = np.eye(30) - V @ la.solve(V.T @ G @ V, V.T @ G)
    Vperp = comp @ rng.standard_normal((30, 3))
    alpha = infsup_alpha(model, XI, Vperp, S)
    assert alpha <= 1e-8
    assert delta_VW(model, XI, Vperp, S) >= 1.0 - 1e-8


def test_delta_l_empty_space_is_spectral_root(gen_small):
    xi = gen_small.domain.sample(1, np.random.default_rng(6))[0]
    val = delta_L(gen_small, xi, np.zeros((gen_small.n, 0)))
    Lt = gen_small.output_at(xi).toarray().T
    G = Lt.T @ np.asarray(gen_small.riesz_v0(Lt))
    assert val == pytest.approx(np.sqrt(la.eigvalsh(G)[-1]), rel=1e-12)


def test_delta_l_zero_for_exact_dual(gen_small):
    xi = gen_small.domain.sample(1, np.random.default_rng(7))[0]
    Q = dual_truth_solve(gen_small, xi)
    assert delta_L(gen_small, xi, Q) <= 1e-8


def test_delta_l_scalar_output_least_squares():
    rng = np.random.default_rng(8)
    model = make_dense_model(rng, n=30, l=1, symmetric=False)
    S = rng.standard_normal((30, 4))
    val = delta_L(model, XI, S)
    # oracle: single least-squares solve min_y ||L^T - A^T S y||_{R^{-1}}
    A = model.operator_at(XI).toarray()
    G = np.asarray(model.gram_v0)
    Lt = model.output_at(XI).toarray().T
    Gc = la.cholesky(la.inv(G))
    column_map = Gc @ (A.T @ S)
    rhs = Gc @ Lt
    resid = rhs - column_map @ la.lstsq(column_map, rhs)[0]
    assert val == pytest.approx(float(np.linalg.norm(resid)), rel=1e-9)


def test_monotonicity_in_test_space():
    rng = np.random.default_rng(9)
    model = make_dense_model(rng, n=30, symmetric=False)
    V = rng.standard_normal((30, 3))
    S1 = rng.standard_normal((30, 2))
    S2 = np.column_stack([S1, rng.standard_normal((30, 3))])
    assert delta_VW(model, XI, V, S2) <= delta_VW(model, XI, V, S1) + 1e-12
    assert delta_L(model, XI, S2) <= delta_L(model, XI, S1) + 1e-12


def test_delta_below_one_when_pg_solvable(gen_small, gen_spaces):
    V, _ = gen_spaces
    for xi in gen_small.domain.sample(5, np.random.default_rng(10)):
        petrov_galerkin_solve(gen_small, xi, V)  # must not raise
        assert delta_VW(gen_small, xi, V, V) < 1.0


def test_degenerate_test_space_raises():
    rng = np.random.default_rng(11)
    model = make_dense_model(rng, n=20, symmetric=False)
    V = rng.standard_normal((20, 2))
    S = np.zeros((20, 2))
    S[:, 0] = rng.standard_normal(20)
    S[:, 1] = S[:, 0]  # rank deficient
    with pytest.raises(DegenerateTestSpaceError):
        delta_VW(model, XI, V, S)


@pytest.mark.parametrize("gram", ["model", "v0"])
@pytest.mark.parametrize("which", ["spd", "general"])
def test_compute_constants_factors_the_reduced_system_once(
        which, gram, spd_small, gen_small, spd_spaces, gen_spaces, reduced_factors):
    # delta_VW, alpha and delta_L solve with one factor of the point's blocks:
    # S^T A S in the energy norm, K = (A^T S)^T R_V0^{-1} A^T S otherwise
    from gorom.projectors import DirectBlocks
    model, (V, WQ) = ((spd_small, spd_spaces) if which == "spd"
                      else (gen_small, gen_spaces))
    energy = gram == "model" and which == "spd"
    for xi in model.domain.sample(2, np.random.default_rng(13)):
        reduced_factors.clear()
        compute_constants(model, xi, V, WQ, gram=gram)
        d = DirectBlocks(model, xi, V=V, WQ=WQ)
        assert len(reduced_factors) == 1
        kind, M = reduced_factors[0]
        assert kind == ("lu" if energy else "cho")
        np.testing.assert_array_equal(M, d.QAQ if energy else d.KQ)


@pytest.mark.parametrize("gram", ["model", "v0"])
@pytest.mark.parametrize("which", ["spd", "general"])
def test_compute_constants_assembles_the_operator_once(
        which, gram, spd_small, gen_small, spd_spaces, gen_spaces, monkeypatch):
    # one set of reduced blocks per point: A(xi) is assembled once, never
    # factorized through the model, and each Riesz representer (A^T S, L^T
    # and the dual residual) is solved once in the R_V0 norm
    model, (V, WQ) = ((spd_small, spd_spaces) if which == "spd"
                      else (gen_small, gen_spaces))
    xi = model.domain.sample(1, np.random.default_rng(12))[0]
    calls = {"operator_at": 0, "riesz_v0": 0, "factorize_operator": 0}
    for name in calls:
        original = getattr(FullOrderModel, name)

        def counting(self, x, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(FullOrderModel, name, counting)
    compute_constants(model, xi, V, WQ, gram=gram)
    energy = gram == "model" and which == "spd"
    assert calls == {"operator_at": 1, "riesz_v0": 0 if energy else 3,
                     "factorize_operator": 0}
