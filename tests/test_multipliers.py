import tracemalloc

import numpy as np
import pytest

from banalg.algebra import RANK_CUTOFF
from banalg.constructions import finite_abelian_group_algebra
from banalg.errors import UndefinedHatError
from banalg.fixtures import build_fixture, lau_fixture, semidirect_fixture
from banalg.multipliers import (
    SLAB_I,
    _block_relation_residuals,
    _block_system,
    _constraint_blocks,
    _left_constraints,
    _mult_constraints,
    block_space,
    hat,
    left_multiplier_residual,
    left_multiplier_space,
    multiplier_residual,
    multiplier_space,
    split_blocks,
)
from banalg.spectra import characters_numerical

from conftest import (
    basis_element,
    dual_numbers_semidirect,
    lau_c_c2,
    left_mult_matrix,
    module_extension_semidirect,
    multiply,
    pointwise_semidirect,
    span_contains,
    weighted_norm,
    zero_product_semidirect,
)


def naive_left_multiplier_nullspace(alg):
    """Oracle: assemble T(e_i e_j) = e_i T(e_j) entrywise with bare loops."""
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = np.zeros(n * n, dtype=complex)
                for k in range(n):
                    row[r * n + k] += alg.structure[i, j, k]
                for m in range(n):
                    # (e_i T(e_j))_r = sum_m c[i, m, r] T[m, j]
                    row[m * n + j] -= alg.structure[i, m, r]
                rows.append(row)
    M = np.array(rows)
    _, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    return vh[rank:].conj()


def naive_multiplier_nullspace(alg):
    """Oracle: assemble T(e_i) e_j = e_i T(e_j) entrywise with bare loops."""
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = np.zeros(n * n, dtype=complex)
                for m in range(n):
                    # (T(e_i) e_j)_r = sum_m T[m, i] c[m, j, r]
                    row[m * n + i] += alg.structure[m, j, r]
                    # (e_i T(e_j))_r = sum_m c[i, m, r] T[m, j]
                    row[m * n + j] -= alg.structure[i, m, r]
                rows.append(row)
    M = np.array(rows)
    _, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    return vh[rank:].conj()


def naive_multiplier_residual(alg, T):
    """Oracle: max_{i,j} ||T(e_i) e_j - e_i T(e_j)||, one basis pair at a time."""
    eye = np.eye(alg.dim)
    return max(
        weighted_norm(alg, multiply(alg, T @ eye[i], eye[j])
                      - multiply(alg, eye[i], T @ eye[j]))
        for i in range(alg.dim) for j in range(alg.dim)
    )


def naive_block_residuals(desc, T_B, S_B, S_I, R_I):
    """Oracle: the relations (ii)-(iv) and block memberships, one basis pair at a time."""
    alg = desc.algebra
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    m, p = T_B.shape[0], R_I.shape[0]
    wB, wI = alg.weights[bsl], alg.weights[isl]

    def prod(x_block, x, y_block, y, out_block):
        fx = np.zeros(alg.dim, dtype=complex)
        fy = np.zeros(alg.dim, dtype=complex)
        fx[x_block], fy[y_block] = x, y
        return multiply(alg, fx, fy)[out_block]

    def wn(w, v):
        return float(np.sum(w * np.abs(v)))

    eB, eI = np.eye(m), np.eye(p)
    rel = {"ii": 0.0, "iii": 0.0, "iv": 0.0}
    mem = {"T_B": 0.0, "S_B": 0.0, "S_I": 0.0, "R_I": 0.0}
    for a in range(p):
        for a2 in range(p):
            aa = prod(isl, eI[a], isl, eI[a2], isl)
            rhs = prod(isl, eI[a], isl, R_I[:, a2], isl) + prod(isl, eI[a], bsl, S_B[:, a2], isl)
            rel["ii"] = max(rel["ii"], wn(wI, R_I @ aa - rhs))
            rel["iv"] = max(rel["iv"], wn(wB, S_B @ aa))
        for b in range(m):
            ab = prod(isl, eI[a], bsl, eB[b], isl)
            rhs = prod(isl, eI[a], isl, S_I[:, b], isl) + prod(isl, eI[a], bsl, T_B[:, b], isl)
            rel["iii"] = max(rel["iii"], wn(wI, R_I @ ab - rhs))
            rel["iv"] = max(rel["iv"], wn(wB, S_B @ ab))
    for b in range(m):
        for b2 in range(m):
            bb = prod(bsl, eB[b], bsl, eB[b2], bsl)
            mem["T_B"] = max(mem["T_B"], wn(wB, T_B @ bb - prod(bsl, eB[b], bsl, T_B[:, b2], bsl)))
            mem["S_I"] = max(mem["S_I"], wn(wI, S_I @ bb - prod(bsl, eB[b], isl, S_I[:, b2], isl)))
        for a in range(p):
            ba = prod(bsl, eB[b], isl, eI[a], isl)
            mem["R_I"] = max(mem["R_I"], wn(wI, R_I @ ba - prod(bsl, eB[b], isl, R_I[:, a], isl)))
            mem["S_B"] = max(mem["S_B"], wn(wB, S_B @ ba - prod(bsl, eB[b], bsl, S_B[:, a], bsl)))
    return rel, mem


def product_fixtures():
    return ([semidirect_fixture(3, index, max_dim=5).descriptor for index in range(6)]
            + [lau_fixture(3, index, max_dim=5).descriptor for index in range(6)])


def test_residual_contractions_against_pairwise_oracle():
    # random maps are far from multipliers, so a wrong contraction index
    # shows up as a residual mismatch instead of two values near zero
    rng = np.random.default_rng(11)
    for desc in product_fixtures():
        alg = desc.algebra
        n = alg.dim
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert multiplier_residual(alg, T) == pytest.approx(
            naive_multiplier_residual(alg, T), rel=1e-12)
        bsl, isl = desc.subalgebra_slice, desc.ideal_slice
        blocks = (T[bsl, bsl], T[bsl, isl], T[isl, bsl], T[isl, isl])
        got_rel, got_mem = _block_relation_residuals(desc, *blocks)
        want_rel, want_mem = naive_block_residuals(desc, *blocks)
        assert got_rel == pytest.approx(want_rel, rel=1e-12, abs=1e-14)
        assert got_mem == pytest.approx(want_mem, rel=1e-12, abs=1e-14)
        assert want_rel["ii"] > 1e-3  # the input is not a multiplier


def test_left_multiplier_dims_against_oracle(c2, z2, zero_product2):
    for alg, expected in ((c2, 2), (z2, 2), (zero_product2, 4)):
        space = left_multiplier_space(alg)
        assert len(space) == expected
        oracle = naive_left_multiplier_nullspace(alg)
        assert oracle.shape[0] == expected
        for T in space:
            assert left_multiplier_residual(alg, T) <= 1e-12
    for alg in [c2, z2, zero_product2] + [d.algebra for d in product_fixtures()]:
        space = multiplier_space(alg)
        oracle = naive_multiplier_nullspace(alg)
        assert len(space) == oracle.shape[0]
        for row in oracle:  # same span, not only the same dimension
            assert span_contains(space, row.reshape(alg.dim, alg.dim), tol=1e-9)
        for T in space:
            assert multiplier_residual(alg, T) <= 1e-12


def full_left_constraints(alg):
    """Oracle: the whole n^3 x n^2 LM system, row (i, j, r), column (k, l):
    delta_rk c[i,j,l] - delta_lj c[i,k,r]."""
    c, n = alg.structure, alg.dim
    eye = np.eye(n)
    return (np.einsum("ijl,rk->ijrkl", c, eye)
            - np.einsum("ikr,lj->ijrkl", c, eye)).reshape(n ** 3, n * n)


def full_mult_constraints(alg):
    """Oracle: the whole n^3 x n^2 M system, row (i, j, r), column (k, l):
    delta_li c[k,j,r] - delta_lj c[i,k,r]."""
    c, n = alg.structure, alg.dim
    eye = np.eye(n)
    return (np.einsum("kjr,li->ijrkl", c, eye)
            - np.einsum("ikr,lj->ijrkl", c, eye)).reshape(n ** 3, n * n)


def test_constraint_blocks_stack_to_full_systems(c2, z2, zero_product2):
    algebras = [c2, z2, zero_product2] + [d.algebra for d in product_fixtures()]
    assert len(algebras) == 15
    for alg in algebras:
        n = alg.dim
        for constraints, full in ((_left_constraints, full_left_constraints),
                                  (_mult_constraints, full_mult_constraints)):
            blocks = list(_constraint_blocks(alg, constraints))
            assert len(blocks) == -(-n // SLAB_I)
            assert all(b.shape[0] <= SLAB_I * n * n for b in blocks)
            assert np.array_equal(np.vstack(blocks), full(alg))


def test_m_system_has_rows_of_rounding_residue_alone():
    # On the phase-twisted group fixture (twisted Z2 x Z4, n = 8) some rows
    # (i, i, r) of the M system hold one nonzero entry, the twist's
    # commutativity rounding c[k,i,r] - c[i,k,r] (12 rows of modulus
    # <= 1.1e-16).  An elimination that read them as exact singleton rows
    # would force those unknowns to 0 and leave a 3-dimensional space; a
    # zero must be judged against the system's scale, and M keeps 8 maps.
    alg = build_fixture("group", 0, 0).algebra
    rows = np.vstack(list(_constraint_blocks(alg, _mult_constraints)))
    lone = rows[np.count_nonzero(rows, axis=1) == 1]
    assert len(lone) > 0
    assert np.max(np.abs(lone)) <= RANK_CUTOFF * np.max(np.abs(rows))
    M = multiplier_space(alg)
    assert len(M) == alg.dim == 8
    assert multiplier_residual(alg, M) <= 1e-12


def block_system_by_definition(desc):
    """Oracle: the eight row blocks of Lemma 2.1 over vec(T), T on the whole
    product.  A block X = T[rows, cols] reaches entry (s, l) of T through
    rows[., s] cols[., l], with rows and cols the coordinates of its sides."""
    n = desc.algebra.dim
    eye = np.eye(n)
    B, I = eye[desc.subalgebra_slice], eye[desc.ideal_slice]
    cBB, cBI, cII, cIB = desc.block_tensors

    def of(c, rows, cols):  # X(x y)_r: delta c[x,y,k] at (x, y, r), (r, k)
        return np.einsum("xyk,rs,kl->xyrsl", c, rows, cols)

    def times(c, rows, cols):  # (x X(y))_r: delta c[x,k,r] at (x, y, r), (k, y)
        return np.einsum("xkr,ks,yl->xyrsl", c, rows, cols)

    blocks = [
        of(cBB, B, B) - times(cBB, B, B),  # T_B in LM(B)
        of(cBB, I, B) - times(cBI, I, B),  # S_I in Hom_B(B, I)
        of(cBI, I, I) - times(cBI, I, I),  # R_I in Hom_B(I, I)
        of(cBI, B, I) - times(cBB, B, I),  # S_B in Hom_B(I, B)
        of(cII, I, I) - times(cII, I, I) - times(cIB, B, I),  # (ii) on R_I, S_B
        of(cIB, I, I) - times(cII, I, B) - times(cIB, B, B),  # (iii) on R_I, S_I, T_B
        of(cII, B, I),  # (iv) S_B(a a') = 0
        of(cIB, B, I),  # (iv) S_B(a b) = 0
    ]
    return [block.reshape(-1, n * n) for block in blocks]


def test_block_system_is_its_definition():
    for desc in product_fixtures():
        got, want = _block_system(desc), block_system_by_definition(desc)
        assert len(got) == len(want) == 8
        for g, w in zip(got, want):
            assert np.array_equal(g, w), desc.algebra.name


@pytest.mark.parametrize("constraints", [_mult_constraints, _left_constraints])
def test_constraint_slab_memory_peak(constraints):
    # l1(Z4 x Z4): one slab is 1,024 x 256 complex (4 MiB); its
    # Kronecker-delta terms are placed into that one array, so no second
    # full-size temporary is held while it is built
    c = finite_abelian_group_algebra([4, 4]).structure
    tracemalloc.start()
    try:
        slab = constraints(c, slice(0, SLAB_I))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slab.shape == (SLAB_I * 16 * 16, 16 * 16)
    assert peak <= 1.25 * slab.nbytes


@pytest.mark.parametrize("space", [multiplier_space, left_multiplier_space])
def test_multiplier_space_memory_peak(space):
    # l1(Z4 x Z4): the whole system is 4,096 x 256 complex (16 MiB), but it
    # reaches the kernel one 4 MiB slab at a time, each built in place; numpy
    # reports its buffers to tracemalloc
    alg = finite_abelian_group_algebra([4, 4])
    tracemalloc.start()
    try:
        dim = len(space(alg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 16
    assert peak < 24 * 2 ** 20


def test_left_multipliers_of_pointwise_are_diagonal(c2):
    for T in left_multiplier_space(c2):
        assert abs(T[0, 1]) < 1e-12 and abs(T[1, 0]) < 1e-12


def test_multiplier_space_unital_bijection(c2, z2z2):
    for alg in (c2, z2z2):
        space = multiplier_space(alg)
        assert len(space) == alg.dim
        for i in range(alg.dim):
            L = left_mult_matrix(alg, basis_element(alg, i))
            assert span_contains(space, L, tol=1e-9)


def test_multiplier_space_zero_product(zero_product2):
    assert len(multiplier_space(zero_product2)) == 4


def test_module_hom_pointwise_fixture_sb():
    # Hom_B(I, B) is 1-dimensional in the pointwise fixture, but the
    # product-vanishing relation (iv) in the block space forces S_B = 0
    desc = pointwise_semidirect()
    bs = block_space(desc)
    assert np.max(np.abs(bs[:, desc.subalgebra_slice, desc.ideal_slice])) < 1e-10


def test_decompose_identity(sd_pointwise):
    desc = sd_pointwise
    dec = split_blocks(np.eye(2, dtype=complex), desc)
    assert np.allclose(dec.T_B, 1.0) and np.allclose(dec.R_I, 1.0)
    assert np.allclose(dec.S_B, 0.0) and np.allclose(dec.S_I, 0.0)
    assert dec.max_relation_residual <= 1e-12
    assert dec.max_membership_residual <= 1e-12


def test_decompose_left_multiplication_blocks(sd_pointwise):
    desc = sd_pointwise
    alg = desc.algebra
    x = np.array([2.0 + 1j, -3.0], dtype=complex)  # (b0, a0)
    T = left_mult_matrix(alg, x)
    dec = split_blocks(T, desc)
    # expand (b0, a0)(b, a) = (b0 b, a0 a + b0 a + a0 b): blocks read off
    assert np.allclose(dec.T_B, [[2.0 + 1j]])
    assert np.allclose(dec.S_B, [[0.0]])
    assert np.allclose(dec.S_I, [[-3.0]])
    assert np.allclose(dec.R_I, [[2.0 + 1j - 3.0]])
    assert dec.max_relation_residual <= 1e-12


def test_decompose_rejects_non_multiplier(sd_pointwise):
    # the swap is outside LM(A): split_blocks refuses only a map of the wrong
    # shape, and the caller judges the swap by its LM residual (the CLI's
    # refusal is tested in test_cli)
    T = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert left_multiplier_residual(sd_pointwise.algebra, T) > 1e-6
    dec = split_blocks(T, sd_pointwise)
    assert np.allclose(dec.S_B, 1.0) and np.allclose(dec.S_I, 1.0)
    assert dec.relation_residuals["iv"] > 1e-6
    for shape in ((3, 3), (2, 2, 3)):
        with pytest.raises(ValueError, match="wrong shape"):
            split_blocks(np.zeros(shape, dtype=complex), sd_pointwise)


def test_recompose_rejects_nonzero_sb(sd_pointwise):
    desc = sd_pointwise
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    # T_B = 1, S_B = 1, S_I = 0, R_I = 1: S_B(a b) = 1 != 0
    T = np.zeros((2, 2), dtype=complex)
    T[bsl, bsl] = T[bsl, isl] = T[isl, isl] = 1.0
    blocks = split_blocks(T, desc)
    assert blocks.relation_residuals["iv"] > 1e-9
    # split_blocks refuses nothing; the LM route sees the same map fail
    assert left_multiplier_residual(desc.algebra, T) > 1e-9


def test_block_space_dimension_matches(sd_pointwise):
    desc = sd_pointwise
    lm = left_multiplier_space(desc.algebra)
    bs = block_space(desc)
    assert bs.shape == lm.shape == (2, 2, 2)
    assert not bs.flags.writeable
    assert left_multiplier_residual(desc.algebra, bs) <= 1e-12


def test_block_space_on_lau_descriptor():
    desc = lau_c_c2()
    lm = left_multiplier_space(desc.algebra)
    bs = block_space(desc)
    assert bs.shape[0] == len(lm)
    for T in lm:
        assert left_multiplier_residual(desc.algebra, T) <= 1e-10
        assert split_blocks(T, desc).max_relation_residual <= 1e-10


def corpus_product(family, seed, index):
    return lambda: build_fixture(family, seed, index, 6).descriptor


# the 32 corpus products (seeds 0 and 97, indices 0-7, max_dim 6) and five
# hand-made ones
LEMMA21_PRODUCTS = (
    [pytest.param(corpus_product(family, seed, index), id=f"{family}-{seed}-{index}")
     for seed in (0, 97) for family in ("semidirect", "lau") for index in range(8)]
    + [pytest.param(build, id=build.__name__)
       for build in (pointwise_semidirect, module_extension_semidirect, lau_c_c2,
                     dual_numbers_semidirect, zero_product_semidirect)])


def projector(stack):
    """The orthogonal projector onto the span of a Frobenius-orthonormal stack."""
    flat = stack.reshape(len(stack), -1)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("build", LEMMA21_PRODUCTS)
def test_block_space_is_the_left_multiplier_space(build):
    # Lemma 2.1 as an equality of spaces, not only of dimensions: the block
    # space, built from the block sub-tensors alone, spans LM(B (+) I)
    desc = build()
    bs, lm = block_space(desc), left_multiplier_space(desc.algebra)
    assert bs.shape == lm.shape
    assert np.max(np.abs(projector(bs) - projector(lm))) <= 1e-12


def test_hat_identity_and_multiplications(c2):
    S = characters_numerical(c2)
    assert np.allclose(hat(np.eye(2, dtype=complex), S), 1.0)
    L = left_mult_matrix(c2, np.array([2.0, 3.0]))
    assert np.allclose(sorted(hat(L, S).real), [2.0, 3.0])
    T = np.diag([2.0, 3.0]).astype(complex)
    got = {round(z.real, 9) for z in hat(T, S)}
    assert got == {2.0, 3.0}


def naive_hat(mat, S, tol=1e-9, threshold=1e-8):
    """Oracle: one character and one basis direction at a time."""
    out = []
    for values in S.matrix:
        scores = np.abs(values)
        k = int(np.argmax(scores))
        value = (values @ mat[:, k]) / values[k]
        for i in range(len(scores)):
            if scores[i] > threshold * scores[k]:
                alt = (values @ mat[:, i]) / values[i]
                if abs(alt - value) > max(tol, 10 * tol * abs(value)):
                    return None
        out.append(value)
    return np.array(out)


def test_hat_against_loop_oracle(c2, z3, z2z2):
    rng = np.random.default_rng(12)
    for alg in (c2, z3, z2z2, lau_c_c2().algebra):
        S = characters_numerical(alg)
        space = multiplier_space(alg)
        for _ in range(3):
            co = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
            T = sum(c * B for c, B in zip(co, space))
            expected = naive_hat(T, S)
            assert np.max(np.abs(hat(T, S) - expected)) <= 1e-12 * np.max(np.abs(expected))
            # a generic map is no multiplier: where its directions disagree
            # (every algebra here but C^2) both refuse
            X = rng.standard_normal((alg.dim, alg.dim)) + 0j
            expected = naive_hat(X, S)
            if expected is None:
                with pytest.raises(UndefinedHatError):
                    hat(X, S)
            else:
                assert alg is c2
                assert np.max(np.abs(hat(X, S) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_noncommutative_left_vs_right_multipliers():
    # u.u = u, u.n = n, n.u = 0, n.n = 0: associative, not commutative.
    # Every map is a left multiplier.
    from banalg.algebra import Algebra

    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0  # u u = u
    c[0, 1, 1] = 1.0  # u n = n
    alg = Algebra("noncomm", np.ones(2), c)
    assert len(left_multiplier_space(alg)) == 4


def test_hat_multiplicative_over_composition(z2z2):
    S = characters_numerical(z2z2)
    space = multiplier_space(z2z2)
    rng = np.random.default_rng(0)
    co = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
    co2 = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
    S1 = sum(c * T for c, T in zip(co, space))
    S2 = sum(c * T for c, T in zip(co2, space))
    assert multiplier_residual(z2z2, S1) <= 1e-9
    lhs = hat(S1 @ S2, S)
    rhs = hat(S1, S) * hat(S2, S)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("family", ["group", "semidirect", "lau"])
@pytest.mark.parametrize("index", [0, 1])
def test_stacked_checks_match_per_map(family, index):
    # each stacked helper equals the max (residuals) or the stack (hats,
    # blocks) of its one-map results, on the spaces and on generic maps
    fix = build_fixture(family, 0, index, 6)
    alg, desc = fix.algebra, fix.descriptor
    S = characters_numerical(alg)
    mult, lm = multiplier_space(alg), left_multiplier_space(alg)
    rng = np.random.default_rng(index)
    generic = rng.standard_normal((3, alg.dim, alg.dim)) + 0j
    for stack in (mult, lm, generic):
        for residual in (multiplier_residual, left_multiplier_residual):
            per_map = max(residual(alg, T) for T in stack)
            assert residual(alg, stack) == pytest.approx(per_map, rel=1e-14, abs=1e-14)
    assert mult.shape == (len(mult), alg.dim, alg.dim)
    assert np.max(np.abs(hat(mult, S) - np.array([hat(T, S) for T in mult]))) <= 1e-14
    if desc is None:
        return
    bs = block_space(desc)
    assert left_multiplier_residual(alg, bs) == pytest.approx(
        max(left_multiplier_residual(alg, T) for T in bs), rel=1e-14, abs=1e-14)
    for stack in (lm, bs):
        stacked = split_blocks(stack, desc)
        singles = [split_blocks(T, desc) for T in stack]
        for name in ("T_B", "S_B", "S_I", "R_I"):
            assert np.array_equal(getattr(stacked, name),
                                  np.array([getattr(d, name) for d in singles]))
        for field in ("relation_residuals", "membership_residuals"):
            # one residual per map of the stack, and a float for one map
            for key, value in getattr(stacked, field).items():
                per_map = [getattr(d, field)[key] for d in singles]
                assert all(isinstance(r, float) for r in per_map)
                assert value.shape == (len(stack),)
                assert np.allclose(value, per_map, rtol=0, atol=1e-14)
        assert stacked.max_relation_residual == pytest.approx(
            max(d.max_relation_residual for d in singles), abs=1e-14)
        assert stacked.max_membership_residual == pytest.approx(
            max(d.max_membership_residual for d in singles), abs=1e-14)


def test_one_bad_map_refuses_the_stack():
    # a stack is refused with the error its one bad map gets alone, and its
    # LM residual is that map's (the CLI's refusal is tested in test_cli)
    desc = lau_fixture(0, 0, 6).descriptor
    alg = desc.algebra
    lm = left_multiplier_space(alg)
    bad = lm.copy()
    bad[1] = np.random.default_rng(3).standard_normal((alg.dim, alg.dim))
    worst = left_multiplier_residual(alg, bad[1])
    assert worst > 1e-9
    assert left_multiplier_residual(alg, bad) == pytest.approx(worst, rel=1e-14)
    assert left_multiplier_residual(alg, lm) <= 1e-9
    S = characters_numerical(alg)
    with pytest.raises(UndefinedHatError):
        hat(bad[1], S)
    with pytest.raises(UndefinedHatError):
        hat(bad, S)
    hat(lm, S)
    maps = np.array(block_space(desc))
    # S_B(a b) = 0 fails for the last map only
    maps[-1, desc.subalgebra_slice.start, desc.ideal_slice.start] += 1.0
    for bad_maps in (maps[-1], maps):
        assert np.max(split_blocks(bad_maps, desc).relation_residuals["iv"]) > 1e-9
        assert left_multiplier_residual(alg, bad_maps) > 1e-9
    # one (iv) residual per map of the stack: only the last one's exceeds tol
    iv = split_blocks(maps, desc).relation_residuals["iv"]
    assert np.flatnonzero(iv > 1e-9).tolist() == [len(maps) - 1]
    assert np.max(split_blocks(maps[:-1], desc).relation_residuals["iv"]) <= 1e-9
    assert left_multiplier_residual(alg, maps[:-1]) <= 1e-9
