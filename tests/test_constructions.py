import numpy as np
import pytest

from banalg.algebra import Algebra, operator_norm, validate
from banalg.constructions import (
    direct_sum,
    finite_abelian_group_algebra,
    group_character_values,
    homomorphism_residual,
    ideal_span_is_full,
    ideal_span_rank,
    lau_product,
    phi_isomorphism,
    semidirect,
)
from banalg.errors import (
    InvalidActionError,
    NotContractiveError,
    NotHomomorphismError,
)

from banalg.fixtures import lau_fixture, semidirect_fixture

from conftest import (
    diagonal_algebra,
    lau_c_c2,
    multiply,
    pointwise_semidirect,
    weighted_norm,
)


def test_semidirect_pointwise_isomorphic_to_c2():
    desc = pointwise_semidirect()
    assert validate(desc.algebra).accepted
    # the bijection (b, a) -> b + a intertwines products: f0 -> (1,1), f1 -> (1,0)
    U = np.array([[1.0, 1.0], [1.0, 0.0]])  # columns are images in C^2
    c2 = diagonal_algebra(2)
    for i in range(2):
        for j in range(2):
            lhs = U @ multiply(desc.algebra, np.eye(2)[i], np.eye(2)[j])
            rhs = multiply(c2, U[:, i], U[:, j])
            assert np.allclose(lhs, rhs)


def test_semidirect_zero_actions_is_direct_like():
    B = diagonal_algebra(2, "B")
    I = Algebra("Izero", np.ones(2), np.zeros((2, 2, 2), dtype=complex))
    desc = semidirect(B, I, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    assert validate(desc.algebra).accepted
    assert ideal_span_rank(desc) == 0


def test_semidirect_rejects_misshapen_actions():
    # the actions may arrive from JSON: a wrong shape is refused before assembly
    B, I = diagonal_algebra(1, "B"), diagonal_algebra(2, "I")
    with pytest.raises(ValueError, match="action_bi"):
        semidirect(B, I, np.zeros((2, 1, 1)), np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="action_ib"):
        semidirect(B, I, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))


def test_lau_rejects_misshapen_phi():
    # phi may arrive from JSON: a matrix that does not map B into A is refused
    A, B = diagonal_algebra(1, "A"), diagonal_algebra(2, "B")
    for shape in [(B.dim, A.dim), (A.dim, B.dim + 1)]:
        with pytest.raises(ValueError, match="phi must map B into A"):
            lau_product(A, B, np.zeros(shape))


def test_semidirect_broken_action_rejected():
    # action violating (b b') . a = b . (b' . a): b acts as a shift with b^2 = 0
    B = Algebra("Bnil", np.ones(1), np.zeros((1, 1, 1), dtype=complex))
    I = diagonal_algebra(2, "I2")
    act_bi = np.zeros((1, 2, 2), dtype=complex)
    act_bi[0, 0, 1] = 1.0  # b . f0 = f1
    act_ib = np.zeros((2, 1, 2), dtype=complex)
    with pytest.raises(InvalidActionError):
        # (bb') . f0 = 0 but b . (b . f0) = b . f1 needs 0 = ... fails through
        # the assembled associativity check once b . f1 is nonzero
        act_bi[0, 1, 0] = 1.0
        semidirect(B, I, act_bi, act_ib)


def test_lau_zero_phi_equals_direct_sum():
    A = diagonal_algebra(2, "A")
    B = diagonal_algebra(2, "B")
    lau = lau_product(A, B, np.zeros((2, 2), dtype=complex))
    ds = direct_sum(A, B)
    assert lau.kind == "direct_sum"
    assert np.array_equal(lau.algebra.structure, ds.algebra.structure)


def test_descriptor_derives_its_layout_from_parents_and_phi():
    # the kind, the sides and the four named structure blocks follow from
    # first, second and phi alone; each block is a view of the product tensor
    A, B = diagonal_algebra(2, "A"), diagonal_algebra(1, "B")
    act = np.zeros((1, 2, 2), dtype=complex)
    cases = [
        (semidirect(B, A, act, act.transpose(1, 0, 2)), "semidirect", B, slice(0, 1), slice(1, 3)),
        (lau_product(A, B, [[1.0], [0.0]]), "lau", B, slice(2, 3), slice(0, 2)),
        (direct_sum(A, B), "direct_sum", B, slice(2, 3), slice(0, 2)),
    ]
    for desc, kind, sub, bsl, isl in cases:
        assert desc.kind == kind
        assert desc.subalgebra is sub and desc.ideal is A
        assert (desc.subalgebra_slice, desc.ideal_slice) == (bsl, isl)
        c = desc.algebra.structure
        want = {"BB": c[bsl, bsl, bsl], "BI": c[bsl, isl, isl],
                "II": c[isl, isl, isl], "IB": c[isl, bsl, isl]}
        assert desc.block_tensors._fields == tuple(want)
        for name, block in desc.block_tensors._asdict().items():
            assert np.shares_memory(block, c) and np.array_equal(block, want[name])


def test_lau_worked_product():
    desc = lau_c_c2()
    # (1,0,0).(0,1,0): aa' = 0, phi(b)a' = 0, a phi(b') = 1 -> (1,0,0)
    out = multiply(desc.algebra, np.array([1, 0, 0], dtype=complex),
                   np.array([0, 1, 0], dtype=complex))
    assert np.allclose(out, [1, 0, 0])


def test_lau_rejects_noncontractive():
    A = diagonal_algebra(2, "A")
    C = diagonal_algebra(1, "C")
    phi = np.array([[1.0], [1.0]], dtype=complex)  # norm 2
    with pytest.raises(NotContractiveError) as err:
        lau_product(A, C, phi)
    assert err.value.norm == pytest.approx(2.0)
    # force admits it and records the defect
    desc = lau_product(A, C, phi, force=True)
    assert not desc.contractive


def test_lau_rejects_nonhomomorphism():
    A = diagonal_algebra(2, "A")
    C = diagonal_algebra(1, "C")
    phi = np.array([[0.5], [0.0]], dtype=complex)
    # phi(b b') - phi(b) phi(b') = (1/2 - 1/4) at b = b' = 1
    assert homomorphism_residual(phi, C, A) == pytest.approx(0.25)
    with pytest.raises(NotHomomorphismError):
        lau_product(A, C, phi)


def test_homomorphism_residual_against_pairwise_oracle():
    rng = np.random.default_rng(2)
    descs = ([semidirect_fixture(3, index, max_dim=5).descriptor for index in range(5)]
             + [lau_fixture(3, index, max_dim=5).descriptor for index in range(5)])
    for desc in descs:
        B, A = desc.second, desc.first
        P = rng.standard_normal((A.dim, B.dim)) + 1j * rng.standard_normal((A.dim, B.dim))
        naive = max(
            weighted_norm(A, P @ B.structure[i, j] - multiply(A, P[:, i], P[:, j]))
            for i in range(B.dim) for j in range(B.dim)
        )
        assert naive > 1e-3  # a random map is not a homomorphism
        assert homomorphism_residual(P, B, A) == pytest.approx(naive, rel=1e-12)


def test_direct_sum_products_and_norms():
    A = diagonal_algebra(1, "A")
    B = diagonal_algebra(1, "B")
    ds = direct_sum(A, B)
    assert np.allclose(ds.algebra.structure, diagonal_algebra(2).structure)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2)
        x = np.array([a[0], b[0]])
        y = np.array([a[1], b[1]])
        assert np.allclose(multiply(ds.algebra, x, y), [a[0] * a[1], b[0] * b[1]])
        assert weighted_norm(ds.algebra, x) == pytest.approx(abs(a[0]) + abs(b[0]))


def test_ideal_embedding_of_first_factor():
    desc = lau_c_c2()
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = np.zeros(3, dtype=complex)
        a[0] = rng.standard_normal() + 1j * rng.standard_normal()
        other = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prod = multiply(desc.algebra, a, other)
        assert np.allclose(prod[desc.subalgebra_slice], 0)


def test_phi_isomorphism_zero_is_identity():
    A = diagonal_algebra(1, "A")
    B = diagonal_algebra(1, "B")
    iso = phi_isomorphism(lau_product(A, B, np.zeros((1, 1), dtype=complex)))
    assert np.array_equal(iso.forward, np.eye(2))


def test_phi_isomorphism_explicit_formula_and_inverse():
    desc = lau_c_c2()
    iso = phi_isomorphism(desc)
    v = np.array([2.0, 3.0, 4.0], dtype=complex)  # (a, b1, b2)
    assert np.allclose(iso.forward @ v, [2.0 - 3.0, 3.0, 4.0])
    assert np.allclose(iso.inverse @ (iso.forward @ v), v)
    # intertwines: Phi(x .0 y) = Phi(x) .phi Phi(y) on all basis pairs
    for i in range(3):
        for j in range(3):
            x0 = multiply(iso.direct.algebra, np.eye(3)[i], np.eye(3)[j])
            lhs = iso.forward @ x0
            rhs = multiply(desc.algebra, iso.forward[:, i], iso.forward[:, j])
            assert np.allclose(lhs, rhs)


def test_phi_isomorphism_norm_bound():
    desc = lau_c_c2()
    iso = phi_isomorphism(desc)
    nrm = operator_norm(iso.forward, iso.direct.algebra, desc.algebra)
    assert nrm <= iso.norm_bound + 1e-12
    assert nrm == pytest.approx(2.0)
    # brute force the operator norm as an independent check: random vectors
    # never exceed it, and basis directions (the extreme points) attain it
    rng = np.random.default_rng(2)
    best = 0.0
    candidates = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                  for _ in range(500)]
    candidates += [row for row in np.eye(3, dtype=complex)]
    for v in candidates:
        best = max(best,
                   weighted_norm(desc.algebra, iso.forward @ v)
                   / weighted_norm(iso.direct.algebra, v))
    assert best == pytest.approx(nrm, abs=1e-12)


def test_group_algebra_z2():
    z2 = finite_abelian_group_algebra([2])
    assert z2.dim == 2
    assert np.allclose(multiply(z2, np.eye(2)[1], np.eye(2)[1]), np.eye(2)[0])
    table = group_character_values([2])
    assert sorted(table[:, 1].real.tolist()) == [-1.0, 1.0]


def test_group_algebra_z2z2_characters_brute_force():
    # oracle: brute-force all +-1 sign patterns for multiplicativity
    z = finite_abelian_group_algebra([2, 2])
    c = z.structure
    found = []
    from itertools import product

    for signs in product([1.0, -1.0], repeat=4):
        v = np.array(signs, dtype=complex)
        if np.max(np.abs(c @ v - np.outer(v, v))) < 1e-12:
            found.append(v)
    assert len(found) == 4
    table = group_character_values([2, 2])
    for row in table:
        assert any(np.allclose(row, f) for f in found)


def test_check_homomorphism_report():
    A = diagonal_algebra(2, "A")
    C = diagonal_algebra(1, "C")
    zero = np.zeros((2, 1), dtype=complex)
    assert homomorphism_residual(zero, C, A) <= 1e-9 and operator_norm(zero, C, A) == 0
    emb = np.array([[1.0], [0.0]], dtype=complex)
    assert homomorphism_residual(emb, C, A) <= 1e-9
    assert operator_norm(emb, C, A) == pytest.approx(1.0)
    half = np.array([[0.5], [0.0]], dtype=complex)
    assert homomorphism_residual(half, C, A) > 1e-9
    assert homomorphism_residual(half, C, A) == pytest.approx(0.25)


def test_ideal_span_full_for_pointwise_fixture():
    desc = pointwise_semidirect()
    assert ideal_span_is_full(desc)
    assert ideal_span_rank(desc) == 1
