import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from gorom import (
    AffineForm,
    CoefficientFn,
    Factorization,
    FactorizationError,
    FullOrderModel,
    ParameterDomain,
    dual_norm_sq,
)


def random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_dual_norm_zero_vector():
    G = random_spd(np.random.default_rng(0), 5)
    assert dual_norm_sq(np.zeros(5), G) == 0.0


def test_dual_norm_identity_gram():
    e1 = np.eye(4)[0]
    assert dual_norm_sq(e1, np.eye(4)) == pytest.approx(1.0, rel=1e-14)


def test_dual_norm_matches_dense_inverse():
    rng = np.random.default_rng(1)
    for _ in range(5):
        G = random_spd(rng, 12)
        r = rng.standard_normal(12)
        expected = r @ la.inv(G) @ r
        assert dual_norm_sq(r, G) == pytest.approx(expected, rel=1e-12)


def test_riesz_identity_property():
    # ||v||_H = ||R_H v||_{H'}: dual_norm_sq(G v, G) = v^T G v
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(3, 20)
        G = random_spd(rng, n)
        v = rng.standard_normal(n)
        assert dual_norm_sq(G @ v, G) == pytest.approx(v @ G @ v, rel=1e-12)


def test_factorize_rejects_non_spd():
    with pytest.raises(FactorizationError):
        Factorization(-np.eye(3), spd=True)
    with pytest.raises(FactorizationError):
        Factorization(np.zeros((3, 3)))


def test_factorization_transpose_solve():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7)) + 7 * np.eye(7)
    f = Factorization(A)
    b = rng.standard_normal(7)
    np.testing.assert_allclose(A @ f.solve(b), b, atol=1e-10)
    np.testing.assert_allclose(A.T @ f.solve(b, transpose=True), b, atol=1e-10)


def test_spd_factorization_refuses_indefinite_positive_diagonal():
    # symmetric, positive diagonal, eigenvalues 3 and -1 in the 2x2 block
    M = sp.identity(6, format="lil")
    M[2:4, 2:4] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(FactorizationError):
        Factorization(M.tocsr(), spd=True)
    Factorization(M.tocsr())  # invertible, so the general LU accepts it


def test_sparse_transpose_solve_nonsymmetric():
    rng = np.random.default_rng(7)
    n = 40
    A = (sp.random(n, n, density=0.1, random_state=8) + 4 * sp.eye(n)).tolil()
    A[0, n - 1] = 3.0  # make sure A != A^T
    A = A.tocsr()
    assert abs(A - A.T).max() > 0.0
    f = Factorization(A)
    B = rng.standard_normal((n, 3))
    np.testing.assert_allclose(A @ f.solve(B), B, atol=1e-12)
    np.testing.assert_allclose(A.T @ f.solve(B, transpose=True), B, atol=1e-12)
    assert np.abs(A @ f.solve(B, transpose=True) - B).max() > 1e-6


def test_factor_storage_is_sparse_at_n2500():
    from gorom import ProblemConfig, make_diffusion_problem
    model = make_diffusion_problem(ProblemConfig(n=2500, d=2, l=1, seed=3))
    n = model.n
    f = model.factorize_operator(model.xi_ref)
    assert n == 2500 and 0 < f.nbytes < 0.05 * 8 * n * n


@pytest.mark.parametrize("spd", [True, False])
def test_shared_factorization_threads_match_serial(spd):
    # --threads N shares one R_V0 factor between pool workers
    import sys
    from concurrent.futures import ThreadPoolExecutor
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(30, 30))
    A = sp.kron(T, sp.eye(30)) + sp.kron(sp.eye(30), T)
    if not spd:
        A = A + sp.diags([0.5], [1], shape=A.shape)
    f = Factorization(A, spd=spd)
    rng = np.random.default_rng(9)
    rhs = [rng.standard_normal((900, 5)) for _ in range(32)]
    serial = [f.solve(B, transpose=bool(i % 2)) for i, B in enumerate(rhs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(f.solve, B, bool(i % 2))
                       for i, B in enumerate(rhs)]
            shared = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, shared):
        assert np.array_equal(a, b)


def _tiny_model(symmetry="spd", asym=0.0):
    n, d = 6, 2
    rng = np.random.default_rng(4)
    M = random_spd(rng, n)
    M[0, 1] += asym
    A = AffineForm([(CoefficientFn.constant(1.0), sp.csr_matrix(M))])
    b = AffineForm([(CoefficientFn.constant(1.0), rng.standard_normal(n))])
    L = AffineForm([(CoefficientFn.constant(1.0), sp.csr_matrix(rng.standard_normal((2, n))))])
    return FullOrderModel(A, b, L, np.eye(n), np.eye(2),
                          ParameterDomain([0.0] * d, [1.0] * d),
                          symmetry=symmetry, xi_ref=np.full(d, 0.5))


def test_model_rejects_asymmetric_spd_flag():
    with pytest.raises(ValueError):
        _tiny_model(symmetry="spd", asym=1.0)
    _tiny_model(symmetry="general", asym=1.0)


def test_validation_factors_are_kept(monkeypatch):
    import gorom.model
    made = []
    original = gorom.model.Factorization.__init__

    def counting(self, M, spd=False):
        made.append(M.shape)
        original(self, M, spd=spd)

    monkeypatch.setattr(gorom.model.Factorization, "__init__", counting)
    model = _tiny_model()
    assert made == [(6, 6), (2, 2)]  # R_V0 and R_Z, checked once each
    model.riesz_v0(np.ones(6))
    model.v0_dual_norm(np.ones(6))
    model.z_dual_norm(np.ones(2))
    assert model.v0_factor is model.v0_factor
    assert made == [(6, 6), (2, 2)]


def test_model_rejects_non_spd_gram():
    n = 4
    A = AffineForm([(CoefficientFn.constant(1.0), sp.eye(n, format="csr"))])
    b = AffineForm([(CoefficientFn.constant(1.0), np.ones(n))])
    L = AffineForm([(CoefficientFn.constant(1.0), sp.eye(n, format="csr")[:1])])
    with pytest.raises(FactorizationError):
        FullOrderModel(A, b, L, -np.eye(n), np.eye(1),
                       ParameterDomain([0.0], [1.0]), "spd", [0.5])


def test_reduced_solve_condition_guard():
    from gorom import ReducedSolveError
    from gorom._linalg import CheckedLU
    M = np.diag([1.0, 1e-20])
    with pytest.raises(ReducedSolveError) as err:
        CheckedLU(M, "test system").solve(np.ones(2))
    assert err.value.cond is not None and err.value.cond > 1e14
    assert "test system" in str(err.value)
    out = CheckedLU(np.eye(2), "ok").solve(np.ones(2))
    np.testing.assert_allclose(out, np.ones(2))
    assert CheckedLU(np.zeros((0, 0)), "empty").solve(np.zeros(0)).size == 0


def test_checked_lu_refuses_an_exactly_singular_matrix_without_a_warning():
    import warnings

    from gorom import ReducedSolveError
    from gorom._linalg import CheckedLU
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # scipy's LinAlgWarning must not escape
        with pytest.raises(ReducedSolveError) as err:
            CheckedLU(np.array([[1.0, 1.0], [1.0, 1.0]]), "test system")
    assert err.value.cond == np.inf
    assert str(err.value).startswith("test system:")
    assert "\n" not in str(err.value)


def test_spd_factor_refuses_singular_or_indefinite_matrices():
    # every SpdFactor is checked and names its system; none falls back to
    # a least-squares answer
    from gorom import ReducedSolveError
    from gorom._linalg import SpdFactor
    with pytest.raises(TypeError):
        SpdFactor(np.eye(2))
    for M in (np.diag([1.0, 1e-20]), np.array([[1.0, 1.0], [1.0, 1.0]]), -np.eye(2)):
        with pytest.raises(ReducedSolveError) as err:
            SpdFactor(M, "test system")
        assert err.value.cond > 1e14 and str(err.value).startswith("test system")
        assert "\n" not in str(err.value)
    np.testing.assert_allclose(SpdFactor(np.diag([4.0, 1.0]), "test system")
                               .solve(np.ones(2)), [0.25, 1.0])


def test_v_gram_selection(spd_small, gen_small):
    xi = spd_small.domain.sample(1, np.random.default_rng(5))[0]
    G = spd_small.v_gram_at(xi)
    diff = (G - spd_small.operator_at(xi))
    assert abs(diff).max() == 0.0
    xi2 = gen_small.domain.sample(1, np.random.default_rng(6))[0]
    assert gen_small.v_gram_at(xi2) is gen_small.gram_v0


def test_spd_flag_checks_each_operator_term():
    # the asymmetric parts of the two terms cancel in A(xi) at every point,
    # but the reduced cache reads A_k^T X as A_k X, so each term must be
    # symmetric on its own
    n, d = 6, 2
    rng = np.random.default_rng(5)
    S, N = random_spd(rng, n), np.triu(rng.standard_normal((n, n)), 1)
    one = CoefficientFn.constant(1.0)
    A = AffineForm([(one, sp.csr_matrix(S + N)), (one, sp.csr_matrix(S + N.T))])
    b = AffineForm([(one, rng.standard_normal(n))])
    L = AffineForm([(one, sp.csr_matrix(rng.standard_normal((2, n))))])
    args = (A, b, L, np.eye(n), np.eye(2), ParameterDomain([0.0] * d, [1.0] * d))
    with pytest.raises(ValueError, match="operator term 0"):
        FullOrderModel(*args, symmetry="spd", xi_ref=np.full(d, 0.5))
    FullOrderModel(*args, symmetry="general", xi_ref=np.full(d, 0.5))
