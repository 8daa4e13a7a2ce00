"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; tolerances are pinned here and nowhere else.
"""

import warnings

import numpy as np
import pytest

from banalg.algebra import Algebra, operator_norm
from banalg.bse import (
    SemisimplicityWarning,
    bse_norm_dual,
    bse_norm_primal,
    sigma_extension,
    theta,
    theta_product_residual,
    verify_product_bse,
)
from banalg.constructions import (
    direct_sum,
    finite_abelian_group_algebra,
    group_character_values,
    ideal_span_is_full,
    phi_isomorphism,
)
from banalg.errors import SpanConditionError
from banalg.fixtures import build_fixture
from banalg.multipliers import (
    block_space,
    decompose_left_multiplier,
    left_multiplier_residual,
    left_multiplier_space,
    multiplier_space,
    split_blocks,
)
from banalg.spectra import (
    CharacterSet,
    characters_numerical,
    characters_semidirect,
    match_character_sets,
    psi_of,
)
from banalg.verify import RunConfig, run_verify

from conftest import diagonal_algebra

SEED = 20240811


def _announce(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def semidirect_fixtures():
    return [build_fixture("semidirect", SEED, i) for i in range(100)]


@pytest.fixture(scope="module")
def lau_fixtures():
    return [build_fixture("lau", SEED, i) for i in range(30)]


@pytest.fixture(scope="module")
def plain_fixtures():
    return ([build_fixture("diag", SEED, i) for i in range(10)]
            + [build_fixture("group", SEED, i) for i in range(8)])


def test_criterion_1_lemma_equivalence(semidirect_fixtures):
    worst_rel = 0.0
    worst_rec = 0.0
    dims_exact = True
    for fix in semidirect_fixtures:
        desc = fix.descriptor
        lm = left_multiplier_space(fix.algebra)
        for T in lm:
            dec = decompose_left_multiplier(T, desc, tol=1e-9)
            worst_rel = max(worst_rel, dec.max_relation_residual,
                            dec.max_membership_residual)
        bs = block_space(desc)
        dims_exact = dims_exact and bs.shape == lm.shape
        split = split_blocks(bs, desc)
        worst_rec = max(worst_rec, left_multiplier_residual(fix.algebra, bs),
                        split.max_relation_residual, split.max_membership_residual)
    ok = worst_rel <= 1e-9 and worst_rec <= 1e-9 and dims_exact
    _announce(1, ok,
              f"block decomposition over {len(semidirect_fixtures)} products: "
              f"relations {worst_rel:.2e}, recompose {worst_rec:.2e}, dims exact: "
              f"{dims_exact}")


def test_criterion_2_character_decomposition(semidirect_fixtures, lau_fixtures):
    worst = 0.0
    cardinality_ok = True
    disjoint_ok = True
    # a lau product is the semidirect product with ideal A: one closed form
    for fix in semidirect_fixtures + lau_fixtures:
        sdc = characters_semidirect(fix.descriptor)
        worst = max(worst, sdc.cross_check_distance)
        cardinality_ok = cardinality_ok and len(sdc.set) == (
            len(sdc.subalgebra_chars) + len(sdc.ideal_chars))
        isl = fix.descriptor.ideal_slice
        for r, row in enumerate(sdc.set.matrix):
            part = float(np.max(np.abs(row[isl])))
            if r < sdc.e_count:
                disjoint_ok = disjoint_ok and part > 1e-6
            else:
                disjoint_ok = disjoint_ok and part == 0.0
    ok = worst <= 1e-8 and cardinality_ok and disjoint_ok
    _announce(2, ok,
              f"closed-form vs numerical characters: hausdorff {worst:.2e}, "
              f"cardinality exact: {cardinality_ok}, E/F disjoint: {disjoint_ok}")


def test_criterion_3_psi_well_defined(semidirect_fixtures):
    worst_disc = 0.0
    worst_id = 0.0
    for fix in semidirect_fixtures:
        desc = fix.descriptor
        alg = desc.algebra
        bsl, isl = desc.subalgebra_slice, desc.ideal_slice
        phis = characters_numerical(desc.ideal).matrix
        psis, discs = psi_of(phis, desc)
        worst_disc = max(worst_disc, float(np.max(discs, initial=0.0)))
        for phi, psi in zip(phis, psis):
            for i in range(isl.start, isl.stop):
                for j in range(bsl.start, bsl.stop):
                    prod = alg.structure[i, j, :][isl]
                    lhs = complex(phi @ prod)
                    rhs = phi[i - isl.start] * psi[j - bsl.start]
                    worst_id = max(worst_id, abs(lhs - rhs))
    ok = worst_disc <= 1e-12 and worst_id <= 1e-10
    _announce(3, ok,
              f"psi normalizer-independence {worst_disc:.2e} (tol 1e-12), "
              f"factorization identity {worst_id:.2e} (tol 1e-10)")


def test_criterion_4_bse_duality(semidirect_fixtures, lau_fixtures, plain_fixtures):
    rng = np.random.default_rng(SEED)
    count = 0
    worst = 0.0
    pool = []
    for fix in plain_fixtures:
        pool.append((fix.algebra, characters_numerical(fix.algebra)))
    for fix in (semidirect_fixtures[:8] + lau_fixtures[:6]):
        pool.append((fix.algebra, characters_numerical(fix.algebra)))
    # a non-semisimple unital instance exercises the cone-program path
    c = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                c[i, j, i + j] = 1.0
    trunc = Algebra("trunc3", np.ones(3), c, unit=np.eye(3, dtype=complex)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SemisimplicityWarning)
        pool.append((trunc, characters_numerical(trunc)))
        while count < 520:
            for alg, S in pool:
                sigma = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
                fn = bse_norm_primal(sigma, S, alg)
                dual = bse_norm_dual(sigma, S, alg).dual_value
                worst = max(worst, abs(fn.value - dual) / max(1.0, fn.value))
                count += 1
    ok = worst <= 1e-6
    _announce(4, ok, f"primal vs dual BSE norm on {count} functions: "
                     f"worst relative gap {worst:.2e} (tol 1e-6)")


def test_criterion_5_theta_isometry(lau_fixtures):
    rng = np.random.default_rng(SEED + 1)
    worst_iso = 0.0
    worst_mult = 0.0
    fixtures = lau_fixtures[:3]
    assert fixtures
    for fix in fixtures:
        lc = characters_semidirect(fix.descriptor)
        na, nb = len(lc.ideal_chars), len(lc.subalgebra_chars)
        for _ in range(100):
            tau = rng.standard_normal(na) + 1j * rng.standard_normal(na)
            rho = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
            th = theta(tau, rho, lc)
            worst_iso = max(worst_iso, abs(th.norm_slack))
            worst_mult = max(worst_mult, theta_product_residual(
                lc, tau, rho,
                rng.standard_normal(na) + 1j * rng.standard_normal(na),
                rng.standard_normal(nb) + 1j * rng.standard_normal(nb)))
    ok = worst_iso <= 1e-6 and worst_mult <= 1e-10
    _announce(5, ok,
              f"theta isometry defect {worst_iso:.2e} (tol 1e-6), "
              f"multiplicativity {worst_mult:.2e} (tol 1e-10) over "
              f"{len(fixtures)}x100 samples")


def test_criterion_6_phi_transport(lau_fixtures):
    worst_bound = 0.0
    worst_hat = 0.0
    dims_ok = True
    worst_member = 0.0
    for fix in lau_fixtures[:12]:
        desc = fix.descriptor
        iso = phi_isomorphism(desc)
        norm = operator_norm(iso.forward, iso.direct.algebra, desc.algebra)
        worst_bound = max(worst_bound, norm - iso.norm_bound)
        rep = verify_product_bse(desc)
        dims_ok = dims_ok and rep.transport_dim_ok
        worst_member = max(worst_member, rep.transport_membership)
        worst_hat = max(worst_hat, rep.transport_hat_residual)
    ok = worst_bound <= 1e-12 and dims_ok and worst_member <= 1e-9 and worst_hat <= 1e-9
    _announce(6, ok,
              f"|Phi| <= |phi|+1 excess {worst_bound:.2e}, conjugation bijection "
              f"dims: {dims_ok}, membership {worst_member:.2e}, "
              f"hat transport {worst_hat:.2e} (tol 1e-9)")


def test_criterion_7_product_bse_biconditionals(lau_fixtures):
    consistent = True
    split_ok = True
    worst_split = 0.0
    for fix in lau_fixtures[:12]:
        desc = fix.descriptor
        rep = verify_product_bse(desc)
        consistent = consistent and rep.biconditional_ok
        consistent = consistent and rep.verdict_product.is_bse  # semisimple fixtures
        ds = direct_sum(desc.first, desc.second)
        rep0 = verify_product_bse(ds)
        consistent = consistent and rep0.biconditional_ok and rep0.verdict_product.is_bse
        split_ok = split_ok and rep0.sum_block_dim_ok
        worst_split = max(worst_split, rep0.sum_block_residual)
    ok = consistent and split_ok and worst_split <= 1e-9
    _announce(7, ok,
              f"BSE biconditionals consistent: {consistent}; M(A x0 B) block "
              f"split dims: {split_ok}, residual {worst_split:.2e}")


def test_criterion_8_sigma_extension(semidirect_fixtures):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    checked = 0
    for fix in semidirect_fixtures:
        if not ideal_span_is_full(fix.descriptor):
            continue
        sdc = characters_semidirect(fix.descriptor)
        rho = rng.standard_normal(len(sdc.subalgebra_chars)) + \
            1j * rng.standard_normal(len(sdc.subalgebra_chars))
        try:
            ext = sigma_extension(rho, sdc)
        except SpanConditionError:
            continue
        worst = max(worst, ext.norm_slack, ext.witness_error)
        checked += 1
    ok = checked >= 30 and worst <= 1e-6
    _announce(8, ok,
              f"sigma extension over {checked} full-span products: "
              f"|sigma| - |rho| and witness error {worst:.2e} (tol 1e-6)")


def test_criterion_9_oracle_equivalences():
    worst = 0.0
    for orders in ([2], [3], [4], [2, 2], [2, 3], [2, 2, 2], [3, 3], [5]):
        alg = finite_abelian_group_algebra(orders)
        S = characters_numerical(alg)
        table = group_character_values(orders)
        expected = CharacterSet(alg, table, provenance="closed_form")
        _, dist = match_character_sets(S, expected, threshold=1e-6)
        worst = max(worst, dist)
    dims_ok = True
    c2 = diagonal_algebra(2, "C2")
    z2 = finite_abelian_group_algebra([2])
    zero2 = Algebra("zero2", np.ones(2), np.zeros((2, 2, 2), dtype=complex))
    dims_ok = dims_ok and len(left_multiplier_space(c2)) == 2
    dims_ok = dims_ok and len(multiplier_space(c2)) == 2
    dims_ok = dims_ok and len(left_multiplier_space(z2)) == 2
    dims_ok = dims_ok and len(left_multiplier_space(zero2)) == 4
    dims_ok = dims_ok and len(multiplier_space(zero2)) == 4
    ok = worst <= 1e-10 and dims_ok
    _announce(9, ok,
              f"group characters numerical vs closed form {worst:.2e} "
              f"(tol 1e-10); micro-fixture multiplier dims: {dims_ok}")


def test_criterion_10_determinism():
    cfg = dict(count=1, seed=99, max_dim=4)
    r1 = run_verify(RunConfig(**cfg))
    r2 = run_verify(RunConfig(**cfg))
    identical = r1.to_json() == r2.to_json()
    ok = identical and r1.ok
    _announce(10, ok,
              f"verify reports byte-identical across runs: {identical}; "
              f"all checks pass: {r1.ok}")
