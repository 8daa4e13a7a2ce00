"""Exact-rank oracle: the M, LM, block and annihilator systems, the trace
form and the rank of phi over the rationals.

Every dimension `multipliers` reports, and the character count of `spectra`,
comes from one relative singular-value cutoff.  Here the same systems are
built from their definitions with rational structure constants and ranked
exactly with sympy's DomainMatrix over QQ, so a dimension or count the float
route gets wrong cannot hide behind an oracle that shares its cutoff.
"""

import numpy as np
import pytest
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from banalg.algebra import Algebra, annihilator_basis, rank_basis, validate
from banalg.constructions import finite_abelian_group_algebra, lau_product
from banalg.multipliers import block_space, left_multiplier_space, multiplier_space
from banalg.spectra import characters_numerical, characters_semidirect

from conftest import (
    change_basis,
    diagonal_algebra,
    dual_numbers_semidirect,
    lau_c_c2,
    module_extension_semidirect,
    pointwise_semidirect,
)


def rational(array):
    """A real array's entries as exact rationals, in nested lists."""
    assert not np.any(array.imag), "exact oracle needs real entries"
    return np.vectorize(lambda x: QQ(*float(x).as_integer_ratio()), otypes=[object])(
        array.real).tolist()


def rational_structure(alg):
    """c[i, j, k] as exact rationals; the structure must be real."""
    return rational(alg.structure)


def exact_nullity(alg, kind):
    """dim of {T : T(e_i) e_j = e_i T(e_j)} ("M") or {T : T(e_i e_j) = e_i T(e_j)}
    ("LM"), over vec(T) row-major: T[k, l] is the e_k coefficient of T(e_l)."""
    c, n = rational_structure(alg), alg.dim
    system = {}
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = {}

                def add(k, l, v):
                    if v:
                        row[k * n + l] = row.get(k * n + l, QQ(0)) + v

                for m in range(n):
                    if kind == "M":
                        add(m, i, c[m][j][r])  # T(e_i) e_j
                    else:
                        add(r, m, c[i][j][m])  # T(e_i e_j)
                    add(m, j, -c[i][m][r])  # e_i T(e_j)
                row = {col: v for col, v in row.items() if v}
                if row:
                    system[len(system)] = row
    if not system:
        return n * n
    return n * n - DomainMatrix(system, (len(system), n * n), QQ).rank()


def exact_block_nullity(desc, omit=()):
    """dim of the block space of a subalgebra (+) ideal product: the maps
    T = [[T_B, S_B], [S_I, R_I]] (rows and columns in B, I order) with

      T_B in LM(B), S_B in Hom_B(I, B), S_I in Hom_B(B, I), R_I in Hom_B(I, I),
      (ii)  R_I(a a') = a R_I(a') + a S_B(a'),
      (iii) R_I(a b) = a S_I(b) + a T_B(b),
      (iv)  S_B(a a') = 0 and S_B(a b) = 0,

    for b, b' in B and a, a' in I.  Each relation reads, for x, y in its
    blocks and r in its output block, sum_{k in K1} c[x, y, k] T[r, k]
    - sum_{k in K2} c[x, k, r] T[k, y]: K1 is the block x y lands in, and K2
    the blocks of the images multiplied by x.  Unknowns are vec(T).  The
    relations whose labels are in `omit` (such as "ii" or "iv") are left
    out, so a test can show that each one binds."""
    c, n = rational_structure(desc.algebra), desc.algebra.dim
    B = list(range(n))[desc.subalgebra_slice]
    I = list(range(n))[desc.ideal_slice]
    relations = [  # name, x, y, r, K1, K2
        ("T_B", B, B, B, B, B),  # T_B in LM(B)
        ("S_B", B, I, B, I, B),  # S_B(b a) = b S_B(a)
        ("S_I", B, B, I, B, I),  # S_I(b b') = b S_I(b')
        ("R_I", B, I, I, I, I),  # R_I(b a) = b R_I(a)
        ("ii", I, I, I, I, I + B),
        ("iii", I, B, I, I, I + B),
        ("iv", I, I, B, I, []),  # S_B(a a') = 0
        ("iv", I, B, B, I, []),  # S_B(a b) = 0
    ]
    system = {}
    for name, xs, ys, rs, k1, k2 in relations:
        if name in omit:
            continue
        for x in xs:
            for y in ys:
                for r in rs:
                    row = {}
                    for k in k1:
                        row[r * n + k] = row.get(r * n + k, QQ(0)) + c[x][y][k]
                    for k in k2:
                        row[k * n + y] = row.get(k * n + y, QQ(0)) - c[x][k][r]
                    row = {col: v for col, v in row.items() if v}
                    if row:
                        system[len(system)] = row
    if not system:
        return n * n
    return n * n - DomainMatrix(system, (len(system), n * n), QQ).rank()


def exact_annihilator_nullity(alg):
    """dim of {a : a e_j = 0 for every j}: the null space of a -> (a e_j)_j,
    whose row (j, r) reads the e_r coefficient sum_i a_i c[i, j, r]."""
    c, n = rational_structure(alg), alg.dim
    rows = [[c[i][j][r] for i in range(n)] for j in range(n) for r in range(n)]
    return n - DomainMatrix(rows, (n * n, n), QQ).rank()


def exact_trace_rank(alg):
    """Rank of the trace form t(a, b) = tr L_ab = sum_m c[a, b, m] tr L_m: by
    Dieudonne's criterion its radical is rad A, so in characteristic 0 its
    rank is dim A/rad, the number of characters."""
    c, n = rational_structure(alg), alg.dim
    traces = [sum((c[m][j][j] for j in range(n)), QQ(0)) for m in range(n)]
    form = [[sum((c[a][b][m] * traces[m] for m in range(n)), QQ(0)) for b in range(n)]
            for a in range(n)]
    return DomainMatrix(form, (n, n), QQ).rank()


def zero_product(n):
    return Algebra(f"zero{n}", np.ones(n), np.zeros((n, n, n), dtype=complex))


def truncated_polynomials(k):
    """C[x]/(x^k) on the monomials e_i = x^i: e_i e_j = e_{i+j} below degree k."""
    i = np.arange(k)
    c = np.zeros((k, k, k), dtype=complex)
    low = np.add.outer(i, i) < k
    c[np.nonzero(low) + (np.add.outer(i, i)[low],)] = 1.0
    return Algebra(f"C[x]/(x^{k})", np.ones(k), c, unit=np.eye(1, k, dtype=complex)[0])


CASES = [
    # unital, so M(A) = LM(A) = {L_a}, of dimension |G|; the three of order
    # 16 are the untwisted bse_dim16 algebras
    *(pytest.param(finite_abelian_group_algebra(orders), n, n, id=f"l1Z{orders}")
      for orders, n in (([2, 2], 4), ([3, 2], 6), ([2, 2, 2], 8), ([3, 3], 9), ([2, 4], 8),
                        ([16], 16), ([4, 4], 16), ([2, 2, 2, 2], 16))),
    pytest.param(zero_product(3), 9, 9, id="zero-product"),
    # B (+) X with x1 unacted: an algebra with order
    pytest.param(module_extension_semidirect().algebra, 7, 4, id="module-extension"),
    # unital and not semisimple: M(A) = LM(A) = {L_a}, of dimension k
    # (the second basis is f_i = e_i + e_{i-1}, with uniform weights 3, 4, 5)
    *(pytest.param(alg, k, k, id=f"truncated-poly{k}-{basis}")
      for k in (2, 3, 4) for basis, alg in (
          ("monomial", truncated_polynomials(k)),
          ("shifted", change_basis(truncated_polynomials(k), np.eye(k) + np.eye(k, k=1))))),
]


@pytest.mark.parametrize("alg, dim_m, dim_lm", CASES)
def test_multiplier_dimensions_match_exact_nullity(alg, dim_m, dim_lm):
    assert validate(alg).accepted
    exact_m, exact_lm = exact_nullity(alg, "M"), exact_nullity(alg, "LM")
    assert (exact_m, exact_lm) == (dim_m, dim_lm)  # known by hand
    assert len(multiplier_space(alg)) == exact_m
    assert len(left_multiplier_space(alg)) == exact_lm


# |G| characters on l1(G), none on the zero product, C^2's two on B (+) X,
# and one, evaluation at x = 0, on each C[x]/(x^k)
CHARACTER_COUNTS = (4, 6, 8, 9, 8, 16, 16, 16, 0, 2) + (1,) * 6


@pytest.mark.parametrize("alg, count", [
    pytest.param(case.values[0], count, id=case.id)
    for case, count in zip(CASES, CHARACTER_COUNTS, strict=True)
])
def test_character_count_matches_exact_trace_rank(alg, count):
    assert exact_trace_rank(alg) == count  # known by hand
    assert len(characters_numerical(alg)) == count


# unital algebras annihilate nothing; the zero product annihilates all of
# C^3, and B (+) X annihilates the unacted direction x1
ANNIHILATOR_DIMS = (0, 0, 0, 0, 0, 0, 0, 0, 3, 1) + (0,) * 6


@pytest.mark.parametrize("alg, dim", [
    pytest.param(case.values[0], dim, id=case.id)
    for case, dim in zip(CASES, ANNIHILATOR_DIMS, strict=True)
])
def test_annihilator_dimension_matches_exact_nullity(alg, dim):
    assert exact_annihilator_nullity(alg) == dim  # known by hand
    assert annihilator_basis(alg).shape[0] == dim


@pytest.mark.parametrize("desc, dim_lm, loose", [
    # C^2 as B (+) I, unital: LM = {L_a}
    pytest.param(pointwise_semidirect(), 2, {}, id="pointwise-semidirect"),
    pytest.param(module_extension_semidirect(), 4, {}, id="module-extension"),
    # C x_phi C^2 is unital (both parents are)
    pytest.param(lau_c_c2(), 3, {}, id="lau-c-c2"),
    # a nonzero ideal product: dropping (ii) or (iv) admits two more maps
    pytest.param(dual_numbers_semidirect(), 3, {"ii": 5, "iv": 5}, id="dual-numbers"),
])
def test_block_space_dimension_matches_exact_nullity(desc, dim_lm, loose):
    exact = exact_block_nullity(desc)
    assert exact == exact_nullity(desc.algebra, "LM") == dim_lm  # known by hand
    assert block_space(desc).shape[0] == exact
    for relation, nullity in loose.items():
        assert exact_block_nullity(desc, omit=(relation,)) == nullity


def lau_case(weights_b, matrix):
    """C^2 x_phi B for pointwise B with the given weights, phi: B -> C^2 the
    rational matrix; each row of phi is zero or picks one coordinate, so phi
    is a homomorphism."""
    A = diagonal_algebra(2, "A2")
    B = diagonal_algebra(len(weights_b), "Bw", weights=weights_b)
    return lau_product(A, B, np.array(matrix, dtype=complex))


@pytest.mark.parametrize("desc, rank, surjective", [
    pytest.param(lau_c_c2(), 1, True, id="surjective-c-c2"),
    pytest.param(lau_case([1, 1, 1], [[0, 0, 1], [1, 0, 0]]), 2, True, id="surjective-c2-c3"),
    # the second character of A composes to 0, so no psi for it
    pytest.param(lau_case([1, 1], [[1, 0], [0, 0]]), 1, False, id="zero-row"),
    # both characters of A compose to the same character of B: every psi
    # exists, and only the rank of phi says it is not onto
    pytest.param(lau_case([2, 1], [[1, 0], [1, 0]]), 1, False, id="repeated-row"),
])
def test_phi_rank_matches_exact_rank(desc, rank, surjective):
    phi = desc.phi
    exact = DomainMatrix(rational(phi), phi.shape, QQ).rank()
    assert exact == rank  # known by hand
    assert rank_basis(phi)[0] == exact
    assert characters_semidirect(desc).surjective is surjective
    assert surjective == (exact == desc.first.dim)
