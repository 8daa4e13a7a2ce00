import gc
import tracemalloc

import numpy as np
import pytest

from banalg.algebra import Algebra, rank_basis, validate
from banalg.bse import check_bse_property
from banalg.constructions import finite_abelian_group_algebra, semidirect
from banalg.errors import IllConditionedError, SpectraError
from banalg.fixtures import _phase_twist
from banalg.spectra import (
    SEPARATION,
    Character,
    CharacterSet,
    _trace_form,
    characters_numerical,
    characters_semidirect,
    gelfand,
    match_character_sets,
    multiplicativity_residual,
    psi_of,
)

from conftest import character_subset, diagonal_algebra, lau_c_c2, pointwise_semidirect


def is_semisimple(algebra: Algebra) -> bool:
    """True iff the radical of the trace form t(a, b) = tr L_ab is 0."""
    return rank_basis(_trace_form(algebra))[0] == algebra.dim


def test_characters_pointwise_projections(c2):
    S = characters_numerical(c2)
    assert len(S) == 2
    rows = {tuple(np.round(row.real, 6)) for row in S.matrix}
    assert rows == {(1.0, 0.0), (0.0, 1.0)}
    assert np.all(S.residuals <= 1e-12)


def test_characters_nilpotent_empty(nilpotent2):
    assert len(characters_numerical(nilpotent2)) == 0


def test_characters_zero_product_empty(zero_product2):
    assert len(characters_numerical(zero_product2)) == 0


def test_characters_z3_cube_roots(z3):
    S = characters_numerical(z3)
    assert len(S) == 3
    # oracle: phi(delta_1)^3 = 1 and phi(delta_2) = phi(delta_1)^2
    for values in S.matrix:
        root = values[1]
        assert abs(root ** 3 - 1) < 1e-10
        assert abs(values[2] - root ** 2) < 1e-10
        assert abs(values[0] - 1) < 1e-10
    roots = sorted(np.round(S.matrix[:, 1], 8))
    expected = sorted(np.round(np.exp(2j * np.pi * np.arange(3) / 3), 8))
    assert np.allclose(roots, expected)


def test_characters_linearly_independent(z2z2):
    S = characters_numerical(z2z2)
    assert len(S) == 4
    assert S.rank == 4
    assert is_semisimple(z2z2)


def test_gelfand_transform(c2):
    S = characters_numerical(c2)
    assert np.allclose(gelfand(c2.unit, S), 1.0)
    vals = sorted(np.round(gelfand(np.array([2.0, 5.0]), S).real, 9).tolist())
    assert vals == [2.0, 5.0]


def test_character_set_rejects_duplicates(c2):
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(SpectraError):
        CharacterSet(c2, np.array([v, v + 1e-9]))


@pytest.mark.parametrize("gap, ok", [(0.5, False), (2.0, True)])
def test_character_set_separation(c2, gap, ok):
    v = np.array([1.0, 0.0], dtype=complex)
    pair = np.array([v, v + [0.0, gap * SEPARATION]])
    if ok:
        assert len(CharacterSet(c2, pair)) == 2
    else:
        with pytest.raises(SpectraError):
            CharacterSet(c2, pair)


def test_character_set_empty_and_single(c2):
    assert len(CharacterSet(c2, np.zeros((0, 2)))) == 0
    assert CharacterSet(c2, np.zeros((0, 2))).matrix.shape == (0, 2)
    assert CharacterSet(c2, np.zeros((0, 2))).residuals.shape == (0,)
    assert len(CharacterSet(c2, np.array([[1.0, 0.0]]))) == 1


def test_character_set_rejects_a_character_of_another_algebra(c2, z2):
    with pytest.raises(SpectraError):
        CharacterSet(c2, [Character(c2, [1.0, 0.0]), Character(z2, [1.0, 1.0])])


def test_character_set_takes_rows_and_freezes_them(c2):
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    S = CharacterSet(c2, rows, np.array([1e-16, 2e-16]))
    assert S.matrix.dtype == complex and np.array_equal(S.matrix, rows)
    assert np.array_equal(S.residuals, [1e-16, 2e-16])
    assert not S.matrix.flags.writeable and not S.residuals.flags.writeable
    assert rows.flags.writeable  # the caller's array is copied, not frozen
    assert np.array_equal(CharacterSet(c2, rows).residuals, [0.0, 0.0])


@pytest.mark.parametrize("rows, message", [
    (np.array([[1.0, 0.0, 0.0]]), "length mismatch"),
    (np.array([1.0, 0.0]), "length mismatch"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), "nonzero functional"),
])
def test_character_set_rejects_bad_rows(c2, rows, message):
    with pytest.raises(ValueError, match=message):
        CharacterSet(c2, rows)


def test_character_set_reads_a_list_of_characters_as_rows(z2):
    # the closed-form set of perfbench/workloads.py is built this way
    S = characters_numerical(z2)
    listed = CharacterSet(z2, [Character(z2, row) for row in S.matrix], provenance="closed_form")
    assert np.array_equal(listed.matrix, S.matrix)
    assert np.array_equal(listed.residuals, np.zeros(len(S)))


@pytest.mark.parametrize("name", ["diag", "twisted-l1(Z4xZ4)"])
def test_characters_numerical_rows_in_key_order(name):
    # rows ascend by their entries rounded to 9 places, compared entry by
    # entry, the real part before the imaginary part
    if name == "diag":
        alg = diagonal_algebra(4)
    else:
        alg, _ = _phase_twist(np.random.default_rng(3), finite_abelian_group_algebra([4, 4]))
    S = characters_numerical(alg)
    keys = [tuple(x for z in np.round(row, 9) for x in (z.real, z.imag)) for row in S.matrix]
    assert len(keys) == alg.dim and keys == sorted(keys)
    if name == "diag":
        # every row ties with the others on all but one entry: e_3 comes first
        assert np.array_equal(S.matrix.real, np.eye(4)[::-1])


def test_character_set_rank_is_stable(z2z2):
    S = characters_numerical(z2z2)
    assert S.rank == S.rank == 4
    partial = character_subset(S, slice(2))
    assert partial.rank == partial.rank == 2


def test_match_character_sets_threshold(c2):
    S = characters_numerical(c2)
    shifted = CharacterSet(c2, S.matrix + 1e-7, provenance="closed_form")
    pairing, dist = match_character_sets(S, shifted, threshold=1e-6)
    assert sorted(pairing) == [0, 1]
    assert dist == pytest.approx(1e-7, rel=1e-3)
    with pytest.raises(SpectraError):
        match_character_sets(S, shifted, threshold=1e-8)


def test_psi_pointwise_fixture():
    desc = pointwise_semidirect()
    S_I = characters_numerical(desc.ideal)
    psi, disc = psi_of(S_I.matrix[:1], desc)
    # psi_phi(b) = phi(b . a0) = 1 at the subalgebra generator
    assert psi.shape == disc.shape + (1,) == (1, 1)
    assert np.allclose(psi, [[1.0]])
    assert disc[0] <= 1e-12


def test_psi_zero_for_zero_actions():
    B = diagonal_algebra(1, "B")
    I = diagonal_algebra(1, "I")
    desc = semidirect(B, I, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    S_I = characters_numerical(desc.ideal)
    psi, _ = psi_of(S_I.matrix[:1], desc)
    assert np.max(np.abs(psi)) == 0.0
    assert characters_semidirect(desc).psi_index == [None]


def test_psi_two_normalizers_agree():
    # ideal of dimension 2 so a second, independent normalizer exists
    B = diagonal_algebra(1, "B")
    I = diagonal_algebra(2, "I")
    act_bi = np.zeros((1, 2, 2), dtype=complex)
    act_bi[0, 0, 0] = 1.0
    act_bi[0, 1, 1] = 1.0
    act_ib = np.transpose(act_bi, (1, 0, 2))
    desc = semidirect(B, I, act_bi, act_ib)
    S_I = characters_numerical(desc.ideal)
    psi, disc = psi_of(S_I.matrix, desc)
    assert psi.shape == (len(S_I), 1) and disc.shape == (len(S_I),)
    assert np.all(disc <= 1e-12)
    assert np.allclose(psi, 1.0)


def test_characters_semidirect_matches_transport():
    desc = pointwise_semidirect()
    sdc = characters_semidirect(desc)
    assert sdc.cross_check_distance <= 1e-10
    assert len(sdc.set) == 2
    # transport of the coordinate projections through (b, a) -> b + a
    U = np.array([[1.0, 1.0], [1.0, 0.0]])
    expected = {tuple(np.round(row @ U, 8)) for row in np.eye(2)}
    got = {tuple(np.round(row.real, 8)) for row in sdc.set.matrix}
    assert got == expected


def test_characters_semidirect_nilpotent_ideal_gives_only_f(nilpotent2):
    B = diagonal_algebra(1, "B")
    act = np.zeros((1, 2, 2), dtype=complex)
    desc = semidirect(B, nilpotent2, act, np.transpose(act, (1, 0, 2)))
    sdc = characters_semidirect(desc)
    assert sdc.e_count == 0
    assert len(sdc.set) == len(sdc.subalgebra_chars) == 1


def test_characters_semidirect_disjoint_blocks():
    desc = pointwise_semidirect()
    sdc = characters_semidirect(desc)
    isl = desc.ideal_slice
    for r, row in enumerate(sdc.set.matrix):
        ideal_part = np.max(np.abs(row[isl]))
        if r < sdc.e_count:
            assert ideal_part > 1e-6
        else:
            assert ideal_part == 0


def test_closed_form_characters_of_lau_worked_example():
    desc = lau_c_c2()
    lc = characters_semidirect(desc)
    assert len(lc.set) == 3
    assert lc.cross_check_distance <= 1e-10
    assert len(lc.set) == len(lc.ideal_chars) + len(lc.subalgebra_chars)
    rows = {tuple(np.round(row.real, 8)) for row in lc.set.matrix}
    assert rows == {(1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    # psi_index maps the single A-character to pi_1
    assert np.allclose(lc.subalgebra_chars.matrix[lc.psi_index[0]], [1.0, 0.0])


def test_closed_form_characters_of_direct_sum_have_zero_psi():
    from banalg.constructions import direct_sum

    ds = direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B"))
    lc = characters_semidirect(ds)
    assert len(lc.set) == 3
    assert all(g is None for g in lc.psi_index)


def test_lau_closed_form_matches_the_composition_oracle():
    # on A x_phi B the semidirect route induces psi through psi_of; the oracle
    # is the Lau formula E = {(phi_A, phi_A o phi)}, composed directly
    from banalg.algebra import DEFAULT_TOL
    from banalg.constructions import direct_sum, finite_abelian_group_algebra, lau_product
    from banalg.fixtures import build_fixture

    def without_first_direction(desc):
        """The product again, with row 0 of phi zeroed: phi misses A's first direction."""
        phi = desc.phi.copy()
        phi[0] = 0.0
        return lau_product(desc.first, desc.second, phi)

    descs = [build_fixture("lau", seed, index, 6).descriptor
             for seed in (0, 97) for index in range(16)]
    descs += [without_first_direction(build_fixture("lau", seed, index, 6).descriptor)
              for seed in (0, 97) for index in range(4)]
    descs += [lau_c_c2(),
              direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B")),
              direct_sum(finite_abelian_group_algebra([3]), diagonal_algebra(2, "B"))]
    zero_psis = 0
    for desc in descs:
        sdc = characters_semidirect(desc)
        comps = sdc.ideal_chars.matrix @ desc.phi
        e_block = sdc.set.matrix[: sdc.e_count, desc.subalgebra_slice]
        assert np.max(np.abs(e_block - comps), initial=0.0) <= 1e-14, desc.algebra.name
        for r, comp in enumerate(comps):
            if np.max(np.abs(comp)) <= DEFAULT_TOL:
                assert sdc.psi_index[r] is None
                zero_psis += 1
                continue
            dists = np.abs(sdc.subalgebra_chars.matrix - comp).max(axis=1)
            assert sdc.psi_index[r] == int(np.argmin(dists))
            assert dists.min() <= 1e-14
    # one per non-surjective fixture, one for C (+) C^2, three for l1(Z3) (+) C^2
    assert zero_psis == 8 + 1 + 3


def test_every_character_verified_multiplicative(z2z2):
    S = characters_numerical(z2z2)
    assert np.all(multiplicativity_residual(z2z2, S.matrix) <= 1e-12)


def truncated_sum(sizes, rng):
    """C[x]/(x^k1) + C[x]/(x^k2) + ... written in a random complex basis.

    Monomial basis e_i, new basis f_a = sum_i P[i, a] e_i.  Every weight is
    the largest basis-level product norm, so ||f_a f_b|| <= w_a w_b.  Returns
    the algebra, the expected characters (the evaluations at x = 0, phi_b(f_a)
    = P[start_b, a]) and the f-coordinates of the radical basis x^m, m >= 1.
    """
    n = sum(sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    c = np.zeros((n, n, n), dtype=complex)
    for s, k in zip(starts, sizes):
        for i in range(k):
            for j in range(k - i):
                c[s + i, s + j, s + i + j] = 1.0
    P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    P_inv = np.linalg.inv(P)
    cg = np.einsum("ia,jb,ijk,dk->abd", P, P, c, P_inv)
    weights = np.full(n, np.abs(cg).sum(axis=2).max())
    unit = P_inv @ np.isin(np.arange(n), starts)
    alg = Algebra(f"trunc{sizes}", weights, cg, unit=unit)
    return alg, P[starts], np.delete(P_inv, starts, axis=1)


def test_is_semisimple_negative(nilpotent2):
    assert not is_semisimple(nilpotent2)
    # C[x]/(x^3) in a generic basis: its one character used to split in three
    alg, _, _ = truncated_sum([3], np.random.default_rng(7))
    assert not is_semisimple(alg)
    assert is_semisimple(truncated_sum([1, 1, 1], np.random.default_rng(7))[0])


def test_characters_refuse_non_multiplicative_eigenvalues():
    # an associative but non-commutative structure (2x2 matrix units): its
    # L_i do not commute, so no joint eigenvalue is a character
    c = np.zeros((4, 4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for d in range(2):
                c[2 * a + b, 2 * b + d, 2 * a + d] = 1.0
    with pytest.raises(IllConditionedError):
        characters_numerical(Algebra("M2", np.ones(4), c))


def test_characters_of_generic_basis_truncated_sums():
    # a Jordan block of size k splits an eigenvalue by eps^(1/k); on A/rad
    # the joint eigenvalues are simple, so the count is exactly the blocks
    rng = np.random.default_rng(2015)
    cases = [[3]] + [rng.integers(1, 4, size=rng.integers(1, 5)).tolist()
                     for _ in range(200)]
    for sizes in cases:
        alg, expected, rad = truncated_sum(sizes, rng)
        assert "submultiplicativity" not in validate(alg).failures
        S = characters_numerical(alg)
        assert len(S) == len(sizes), sizes
        assert np.all(multiplicativity_residual(alg, S.matrix) <= 1e-9)
        assert np.max(np.abs(S.matrix @ rad), initial=0.0) <= 1e-9
        closed = CharacterSet(alg, expected)
        match_character_sets(S, closed, threshold=1e-9)


def test_full_span_forces_nonzero_psi():
    from banalg.constructions import ideal_span_is_full
    from banalg.fixtures import build_fixture

    for fix in [build_fixture("semidirect", 3, i) for i in range(12)]:
        sdc = characters_semidirect(fix.descriptor)
        if ideal_span_is_full(fix.descriptor):
            assert all(ix is not None for ix in sdc.psi_index)
        else:
            assert any(ix is None for ix in sdc.psi_index)


def test_unital_nonsemisimple_truncated_polynomials():
    # C[x]/(x^3): unital, one character (evaluation at 0 of the quotient)
    c = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                c[i, j, i + j] = 1.0
    alg = Algebra("trunc3", np.ones(3), c, unit=np.eye(3, dtype=complex)[0])
    S = characters_numerical(alg)
    assert len(S) == 1
    assert np.allclose(S.matrix[0], [1.0, 0.0, 0.0], atol=1e-9)
    assert not is_semisimple(alg)


def test_character_set_holds_each_character_once():
    # the set is its value matrix, one row and one residual per character,
    # and a BSE verdict keeps the set's arrays and little else
    S = characters_numerical(finite_abelian_group_algebra([4, 4]))
    assert len(S) == 16
    assert S.matrix.shape == (16, 16) and S.residuals.shape == (16,)
    assert not S.matrix.flags.writeable and not S.residuals.flags.writeable
    rng = np.random.default_rng(0)
    check_bse_property(_phase_twist(rng, finite_abelian_group_algebra([4, 4]))[0])  # warm-up
    alg, _ = _phase_twist(rng, finite_abelian_group_algebra([4, 4]))
    gc.collect()
    tracemalloc.start()
    try:
        verdict = check_bse_property(alg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert verdict.is_bse and len(verdict.characters) == 16
    assert retained <= 2 * verdict.characters.matrix.nbytes
