import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banalg.algebra import (
    Algebra,
    operator_norm,
    rank_basis,
    validate,
)
from banalg.errors import ValidationRejected

from conftest import (
    basis_element,
    diagonal_algebra,
    dual_norm,
    left_mult_matrix,
    multiply,
    weighted_norm,
)


def test_validate_pointwise_accepted(c2):
    report = validate(c2)
    assert report.accepted
    assert report.max_associativity_residual == 0
    assert report.max_commutativity_residual == 0
    assert report.max_submultiplicativity_excess == 0
    assert report.unit_residual == 0


def test_validate_rejects_asymmetric_tensor():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 1, 0] = 1.0  # c[1,0,0] stays 0
    alg = Algebra("asym", np.ones(2), c)
    report = validate(alg)
    assert not report.accepted
    assert "commutativity" in report.failures


def test_validate_nilpotent_by_direct_contraction(nilpotent2):
    # oracle: contract (e_i e_j) e_k and e_i (e_j e_k) over all 8 triples by hand
    c = nilpotent2.structure
    worst = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                left = sum(c[i, j, m] * c[m, k, :] for m in range(2))
                right = sum(c[j, k, m] * c[i, m, :] for m in range(2))
                worst = max(worst, np.max(np.abs(left - right)))
    assert worst == 0
    report = validate(nilpotent2)
    assert report.accepted
    # ||e0 e0|| = ||e1|| = 1 <= w0 * w0
    assert report.max_submultiplicativity_excess <= 0


def test_validate_bad_unit():
    c = np.zeros((1, 1, 1), dtype=complex)
    c[0, 0, 0] = 1.0
    alg = Algebra("badunit", np.ones(1), c, unit=np.array([2.0 + 0j]))
    assert "unit" in validate(alg).failures


def test_require_valid_raises():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 1, 0] = 1.0
    alg = Algebra("asym", np.ones(2), c)
    from banalg.algebra import require_valid

    with pytest.raises(ValidationRejected, match="commutativity"):
        require_valid(alg)


def test_multiply_pointwise(c2):
    assert np.allclose(multiply(c2, np.array([1, 2]), np.array([3, 4])), [3, 8])


def test_multiply_nilpotent(nilpotent2):
    e0 = basis_element(nilpotent2, 0)
    e1 = basis_element(nilpotent2, 1)
    assert np.allclose(multiply(nilpotent2, e0, e0), e1)
    assert np.allclose(multiply(nilpotent2, e0, e1), 0)


def test_multiply_group_law(z2):
    d1 = basis_element(z2, 1)
    assert np.allclose(multiply(z2, d1, d1), basis_element(z2, 0))


def test_norms(c2):
    assert weighted_norm(c2, np.array([3, -4j])) == pytest.approx(7.0)
    w = diagonal_algebra(2, weights=[2.0, 1.0])
    assert dual_norm(np.array([2.0, 3.0]), w) == pytest.approx(3.0)
    assert weighted_norm(c2, np.zeros(2)) == 0
    assert dual_norm(np.zeros(2), c2) == 0


def test_operator_norm_identity(c2):
    assert operator_norm(np.eye(2), c2, c2) == pytest.approx(1.0)


def test_operator_norm_embedding(c2):
    A = diagonal_algebra(1)
    phi = np.array([[1.0], [0.0]], dtype=complex)
    assert operator_norm(phi, A, c2) == pytest.approx(1.0)


def test_operator_norm_diagonal_embedding_brute_force(c2):
    A = diagonal_algebra(1)
    phi = np.array([[1.0], [1.0]], dtype=complex)
    assert operator_norm(phi, A, c2) == pytest.approx(2.0)
    # oracle: maximize ||phi(b)|| / ||b|| over random b
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(500):
        b = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        best = max(best, weighted_norm(c2, phi @ b) / weighted_norm(A, b))
    assert best == pytest.approx(2.0, abs=1e-12)


def test_left_mult_operator(c2, nilpotent2):
    assert np.allclose(left_mult_matrix(c2, c2.unit), np.eye(2))
    assert np.allclose(
        left_mult_matrix(c2, np.array([2, 5])), np.diag([2.0, 5.0])
    )
    M = left_mult_matrix(nilpotent2, basis_element(nilpotent2, 0))
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0  # e0 . e0 = e1
    assert np.allclose(M, expected)


complex_coeff = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@given(st.lists(complex_coeff, min_size=2, max_size=2),
       st.lists(complex_coeff, min_size=2, max_size=2),
       st.lists(complex_coeff, min_size=2, max_size=2))
@settings(max_examples=60)
def test_multiply_bilinear_commutative(xs, ys, zs):
    alg = diagonal_algebra(2)
    a, b, c = np.array(xs), np.array(ys), np.array(zs)
    assert np.allclose(multiply(alg, a + b, c), multiply(alg, a, c) + multiply(alg, b, c))
    assert np.allclose(multiply(alg, a, b), multiply(alg, b, a))
    assert np.allclose(multiply(alg, multiply(alg, a, b), c),
                       multiply(alg, a, multiply(alg, b, c)))


@given(st.lists(complex_coeff, min_size=3, max_size=3),
       st.lists(complex_coeff, min_size=3, max_size=3))
@settings(max_examples=60)
def test_submultiplicative_on_group_algebra(xs, ys):
    from banalg.constructions import finite_abelian_group_algebra

    alg = finite_abelian_group_algebra([3])
    a, b = np.array(xs), np.array(ys)
    bound = weighted_norm(alg, a) * weighted_norm(alg, b)
    assert weighted_norm(alg, multiply(alg, a, b)) <= bound + 1e-9 * max(1.0, bound)


@given(st.lists(complex_coeff, min_size=2, max_size=2))
@settings(max_examples=60)
def test_dual_norm_is_exact_dual(fs):
    alg = diagonal_algebra(2, weights=[1.5, 0.5])
    f = np.array(fs)
    dn = dual_norm(f, alg)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(f @ a) <= dn * weighted_norm(alg, a) + 1e-9
    # equality is attained at a basis direction
    i = int(np.argmax(np.abs(f) / alg.weights))
    a = np.zeros(2, dtype=complex)
    a[i] = 1.0
    assert abs(f @ a) == pytest.approx(dn * weighted_norm(alg, a))


@given(st.lists(complex_coeff, min_size=4, max_size=4),
       st.lists(complex_coeff, min_size=4, max_size=4))
@settings(max_examples=40)
def test_left_mult_matches_multiply(xs, ys):
    from banalg.constructions import finite_abelian_group_algebra

    alg = finite_abelian_group_algebra([4])
    a, b = np.array(xs), np.array(ys)
    assert np.allclose(left_mult_matrix(alg, a) @ b, multiply(alg, a, b))


def _projector(rows):
    return rows.T @ rows.conj()


MATRICES = {
    "0-row": np.zeros((0, 4)),  # no constraints: everything is in the null space
    "zero": np.zeros((5, 3)),  # all zero: rank 0
    "wide": np.arange(12.0).reshape(2, 6) + 1j,  # rows < cols
    "rank-deficient": np.outer(np.arange(1.0, 8.0), [1.0, 2.0, -1.0, 0.5])
    + np.outer(np.ones(7), [0.0, 1.0j, 1.0, 2.0]),  # tall, rank 2
}
# Row boundaries of the blocks handed over as a one-shot iterable; None hands
# the matrix over whole.  On the 0-row matrix every split is all empty blocks.
SPLITS = {
    "": None,
    "/one-row-blocks": lambda rows: range(1, rows),
    "/short-blocks": lambda rows: [1, 3],  # 1 row, then 2 rows: fewer than cols
    "/empty-blocks": lambda rows: [0, 2, 2, rows],  # 0-row blocks between and around
}


@pytest.mark.parametrize("M, bounds", [
    pytest.param(M, bounds, id=name + split)
    for name, M in MATRICES.items() for split, bounds in SPLITS.items()
])
def test_rank_basis_against_full_svd(M, bounds):
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    got_rank, got_vh = rank_basis(M if bounds is None
                                  else iter(np.split(M, bounds(M.shape[0]))))
    assert got_rank == rank
    assert got_vh.shape == (M.shape[1], M.shape[1])
    assert np.allclose(got_vh @ got_vh.conj().T, np.eye(M.shape[1]), atol=1e-12)
    # the same row space and null space, whatever basis each one picks
    for want, got in ((vh[:rank], got_vh[:rank]), (vh[rank:].conj(), got_vh[rank:].conj())):
        assert np.allclose(_projector(got), _projector(want), atol=1e-12)
    assert np.allclose(M @ got_vh[rank:].conj().T, 0.0, atol=1e-12)


@pytest.mark.parametrize("shape, blocks, folds", [
    ((4, 4), None, 0),  # square: its QR would not shrink it
    ((2, 6), None, 0),  # wide
    ((6, 4), None, 1),  # tall
    ((6, 4), [2], 1),  # 2 x 4 stays, then the 6 x 4 stack folds
    ((12, 4), [4, 8], 2),  # each stack of R and a block is taller than wide
], ids=["square", "wide", "tall", "wide-then-tall", "tall-slabs"])
def test_rank_basis_folds_only_taller_than_wide_stacks(monkeypatch, shape, blocks, folds):
    rng = np.random.default_rng(5)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda A, mode: qr_calls.append(A.shape) or qr(A, mode=mode))
    rank, vh = rank_basis(M if blocks is None else iter(np.split(M, blocks)))
    assert len(qr_calls) == folds
    assert all(rows > cols for rows, cols in qr_calls)
    assert rank == min(shape)
    assert np.allclose(M @ vh[rank:].conj().T, 0.0, atol=1e-12)


def test_rank_basis_refuses_blocks_without_a_column_count():
    with pytest.raises(ValueError):
        rank_basis([])  # no block says how many columns there are
    with pytest.raises(ValueError):
        rank_basis([np.ones((2, 3)), np.ones((2, 4))])
