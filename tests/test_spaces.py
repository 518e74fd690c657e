import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorom import Basis, union_basis


def random_gram(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


@pytest.fixture()
def gram():
    return random_gram(np.random.default_rng(0), 20)


def gnorm(G, v):
    return np.sqrt(v @ G @ v)


def test_append_to_empty_normalizes(gram):
    basis = Basis(gram)
    v = np.random.default_rng(1).standard_normal(20)
    assert basis.append(v)
    np.testing.assert_allclose(basis.columns[:, 0], v / gnorm(gram, v), rtol=1e-12)


def test_append_in_span_rejected(gram):
    basis = Basis(gram)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(20)
    assert basis.append(v)
    assert not basis.append(2.5 * v)
    assert basis.dim == 1
    assert not basis.append(np.zeros(20))


def test_orthonormality_after_appends(gram):
    basis = Basis(gram)
    rng = np.random.default_rng(3)
    for _ in range(5):
        basis.append(rng.standard_normal(20))
    X = basis.columns
    np.testing.assert_allclose(X.T @ gram @ X, np.eye(basis.dim), atol=1e-10)


def test_span_preservation(gram):
    basis = Basis(gram)
    rng = np.random.default_rng(4)
    vecs = []
    for _ in range(6):
        v = rng.standard_normal(20)
        if basis.append(v):
            vecs.append(v)
    for v in vecs:
        recon = basis.columns @ basis.project_coeffs(v)
        assert gnorm(gram, v - recon) <= 1e-9 * gnorm(gram, v)


def test_full_dual_enrichment_counts(gram):
    rng = np.random.default_rng(5)
    basis = Basis(gram)
    Q = rng.standard_normal((20, 4))
    assert basis.extend(Q) == 4
    assert basis.dim == 4
    # one column already in span: only l-1 accepted
    basis2 = Basis(gram)
    Q2 = Q.copy()
    Q2[:, 2] = Q2[:, 0] * 0.3 - Q2[:, 1]
    assert basis2.extend(Q2) == 3


def test_dimension_growth_matches_rank_oracle(gram):
    rng = np.random.default_rng(6)
    basis = Basis(gram)
    W0 = rng.standard_normal((20, 3))
    basis.extend(W0)
    Q = np.column_stack([rng.standard_normal((20, 2)),
                         W0 @ rng.standard_normal(3),
                         W0[:, 0]])
    accepted = basis.extend(Q)
    # oracle: rank of the stacked matrix via SVD
    rank = np.linalg.matrix_rank(np.column_stack([W0, Q]), tol=1e-10)
    assert basis.dim == rank
    assert accepted == rank - 3


def test_rejects_nonfinite(gram):
    basis = Basis(gram)
    with pytest.raises(ValueError):
        basis.append(np.full(20, np.nan))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=12))
def test_property_orthonormality_any_sequence(seeds):
    gram = random_gram(np.random.default_rng(99), 12)
    basis = Basis(gram)
    for s in seeds:
        rng = np.random.default_rng(s)
        # mix fresh vectors with near-duplicates of existing columns
        if basis.dim and s % 3 == 0:
            v = basis.columns @ rng.standard_normal(basis.dim)
            v += 1e-13 * rng.standard_normal(12)
        else:
            v = rng.standard_normal(12)
        basis.append(v)
    X = basis.columns
    np.testing.assert_allclose(X.T @ gram @ X, np.eye(basis.dim), atol=1e-10)


def test_union_basis_spans_parts(gram):
    rng = np.random.default_rng(7)
    a = Basis(gram)
    a.extend(rng.standard_normal((20, 3)))
    b = Basis(gram)
    b.extend(rng.standard_normal((20, 2)))
    b.append(a.columns[:, 0])  # overlap
    T = union_basis([a, b], gram=gram)
    assert T.dim == np.linalg.matrix_rank(
        np.column_stack([a.columns, b.columns]), tol=1e-10)
    for v in np.column_stack([a.columns, b.columns]).T:
        recon = T.columns @ T.project_coeffs(v)
        assert gnorm(gram, v - recon) <= 1e-9 * gnorm(gram, v)


def test_save_load_roundtrip(tmp_path, gram):
    basis = Basis(gram, name="V")
    rng = np.random.default_rng(8)
    basis.extend(rng.standard_normal((20, 4)))
    basis.save(tmp_path / "V.mtx")
    back = Basis.load(tmp_path / "V.mtx", gram)
    np.testing.assert_array_equal(back.columns, basis.columns)
    assert back.name == "V"
    # a manifest written before the rank tolerance became a module constant
    manifest = json.loads((tmp_path / "V.json").read_text())
    assert "tol_rank" not in manifest
    manifest["tol_rank"] = 1e-10
    (tmp_path / "V.json").write_text(json.dumps(manifest))
    old = Basis.load(tmp_path / "V.mtx", gram)
    np.testing.assert_array_equal(old.columns, basis.columns)


def test_load_refuses_nonfinite_or_missized_columns(tmp_path, gram):
    from gorom import GoromError
    basis = Basis(gram, name="V")
    basis.extend(np.random.default_rng(9).standard_normal((20, 3)))
    basis.save(tmp_path / "V.mtx")
    lines = (tmp_path / "V.mtx").read_text().splitlines(keepends=True)
    lines[5] = "nan\n"  # an entry, past the two header lines and the size line
    (tmp_path / "V.mtx").write_text("".join(lines))
    with pytest.raises(GoromError, match="re-run gorom offline"):
        Basis.load(tmp_path / "V.mtx", gram)
    basis.save(tmp_path / "W.mtx")
    manifest = (tmp_path / "W.json").read_text().replace('"dim": 3', '"dim": 2')
    (tmp_path / "W.json").write_text(manifest)
    with pytest.raises(GoromError, match="re-run gorom offline"):
        Basis.load(tmp_path / "W.mtx", gram)
