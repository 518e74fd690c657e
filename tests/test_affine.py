import numpy as np
import pytest
import scipy.sparse as sp

from gorom import AffineForm, CoefficientFn, DomainError, ParameterDomain, assemble


def random_form(rng, n=6, nterms=3, d=2):
    terms = []
    for k in range(nterms):
        coeff = CoefficientFn.monomial(rng.uniform(0.5, 2.0),
                                       rng.integers(0, 3, size=d))
        terms.append((coeff, sp.csr_matrix(rng.standard_normal((n, n)))))
    return AffineForm(terms)


def test_single_term_identity():
    M = sp.random(8, 8, density=0.4, random_state=0, format="csr")
    form = AffineForm([(CoefficientFn.constant(1.0), M)])
    out = assemble(form, np.array([3.0]))
    assert (out != M).nnz == 0


def test_reference_point_sums_terms():
    # A(xi) = A0 + sum xi_k A_k at xi_ref = (1, ..., 1) is the plain term sum
    rng = np.random.default_rng(1)
    d = 3
    terms = [(CoefficientFn.constant(1.0), sp.csr_matrix(rng.standard_normal((5, 5))))]
    for k in range(d):
        terms.append((CoefficientFn.component(k, d),
                      sp.csr_matrix(rng.standard_normal((5, 5)))))
    form = AffineForm(terms)
    expected = sum(t.toarray() for _, t in terms)
    out = assemble(form, np.ones(d)).toarray()
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


def test_assemble_matches_direct_summation():
    rng = np.random.default_rng(2)
    form = random_form(rng, nterms=2)
    xi = rng.uniform(0.5, 2.0, size=2)
    # independent oracle: scalar-weighted dense sum, entry by entry
    expected = np.zeros((6, 6))
    for coeff, term in form.terms:
        expected += coeff(xi) * term.toarray()
    np.testing.assert_allclose(assemble(form, xi).toarray(), expected,
                               rtol=1e-14, atol=1e-14)


def test_assemble_linear_in_terms():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_form(rng)
        g = random_form(rng)
        xi = rng.uniform(0.5, 2.0, size=2)
        lhs = assemble(f + g, xi).toarray()
        rhs = assemble(f, xi).toarray() + assemble(g, xi).toarray()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14 * np.abs(rhs).max())


def test_assemble_checks_domain():
    form = AffineForm([(CoefficientFn.constant(1.0), np.ones(4))])
    domain = ParameterDomain([0.0], [1.0])
    assemble(form, np.array([0.5]), domain)
    with pytest.raises(DomainError):
        assemble(form, np.array([2.0]), domain)


def test_domain_validation():
    with pytest.raises(ValueError):
        ParameterDomain([1.0], [0.5])
    with pytest.raises(ValueError):
        ParameterDomain([0.0], [1.0], ("log",))
    dom = ParameterDomain([0.1, 0.0], [10.0, 1.0], ("log", "linear"))
    assert dom.dim == 2
    assert dom.contains(np.array([1.0, 0.5]))
    assert not dom.contains(np.array([20.0, 0.5]))


def test_coefficient_serialization_roundtrip():
    c1 = CoefficientFn.constant(2.5)
    c2 = CoefficientFn.monomial(0.5, [1, 0, 2])
    for c in (c1, c2):
        back = CoefficientFn.from_dict(c.to_dict())
        xi = np.array([2.0, 3.0, 0.5])
        assert back(xi) == c(xi)


def test_form_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        AffineForm([
            (CoefficientFn.constant(1.0), np.ones((3, 3))),
            (CoefficientFn.constant(1.0), np.ones((4, 4))),
        ])
    with pytest.raises(ValueError):
        AffineForm([])


@pytest.mark.parametrize("kinds", [("constant",), ("monomial",), ("constant", "monomial")])
def test_coefficients_at_equals_each_coefficient_bitwise(kinds):
    # one array operation over the terms, as each coefficient computes alone
    rng = np.random.default_rng(7)
    d = 4
    terms = []
    for k in range(6):
        kind = kinds[k % len(kinds)]
        coeff = (CoefficientFn.constant(rng.uniform(-2.0, 2.0)) if kind == "constant"
                 else CoefficientFn.monomial(rng.uniform(-2.0, 2.0),
                                             rng.integers(0, 4, size=d)))
        terms.append((coeff, rng.standard_normal(3)))
    form = AffineForm(terms)
    for xi in rng.uniform(0.1, 10.0, size=(200, d)):
        want = np.array([coeff(xi) for coeff, _ in form.terms])
        assert form.coefficients_at(xi).tobytes() == want.tobytes()


def _term_by_term(form, xi):
    thetas = form.coefficients_at(xi)
    acc = thetas[0] * form.terms[0][1]
    for theta, (_, term) in zip(thetas[1:], form.terms[1:]):
        acc = acc + theta * term
    return acc


def _bitwise_equal(a, b):
    return (a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


def test_union_pattern_assembly_is_the_term_by_term_sum_bit_for_bit():
    # sparse terms with overlapping, differing patterns, and a pair of terms
    # that cancel exactly at xi = (1, 1): scipy drops the zeros of that sum
    rng = np.random.default_rng(9)
    d, terms = 2, []
    for k in range(4):
        M = sp.random(30, 30, density=0.15, random_state=rng, format="csr")
        terms.append((CoefficientFn.monomial(rng.uniform(0.5, 2.0),
                                             rng.integers(0, 3, size=d)), M))
    C = sp.random(30, 30, density=0.1, random_state=rng, format="csr")
    terms += [(CoefficientFn.component(0, d), C), (CoefficientFn.component(1, d), -C)]
    form = AffineForm(terms)
    points = np.vstack([rng.uniform(0.1, 3.0, size=(50, d)), np.ones((1, d))])
    for xi in points:
        assert _bitwise_equal(form(xi), _term_by_term(form, xi)), xi
    # the cancelling pair alone sums to an exact 0: no entry is stored
    pair = AffineForm(terms[-2:])
    out = pair(np.ones(d))
    assert out.nnz == 0 and _bitwise_equal(out, _term_by_term(pair, np.ones(d)))


def test_generated_operators_assemble_bit_for_bit():
    from gorom.problems import ProblemConfig, make_problem, sample_parameters
    for kind in ("diffusion-spd", "advection-diffusion"):
        model = make_problem(ProblemConfig(n=100, d=3, l=2, seed=4, kind=kind))
        for xi in sample_parameters(model.domain, 20, 5):
            assert _bitwise_equal(model.A(xi), _term_by_term(model.A, xi)), kind
