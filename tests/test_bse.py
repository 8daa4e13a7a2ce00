import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banalg.algebra import Algebra
from banalg.bse import (
    SemisimplicityWarning,
    bse_norm_dual,
    bse_norm_primal,
    check_bse_property,
    delta_weak_bai,
    sigma_extension,
    split_sigma,
    theta,
    theta_product_residual,
    verify_product_bse,
)
from banalg.constructions import direct_sum, phi_isomorphism, semidirect
from banalg.errors import (
    ConstructionError,
    EmptyCharacterSetError,
    NotWithoutOrderError,
    PhiNotSurjectiveError,
    RankDeficientCharactersError,
    SpanConditionError,
)
from banalg.fixtures import build_fixture
from banalg.spectra import (
    CharacterSet,
    characters_numerical,
    characters_semidirect,
    gelfand,
)

from conftest import (
    character_subset,
    diagonal_algebra,
    lau_c_c2,
    pointwise_semidirect,
    weighted_norm,
)


def b_index(lc, values):
    """Index inside lc.subalgebra_chars of the character with the given value vector."""
    for j, row in enumerate(lc.subalgebra_chars.matrix):
        if np.allclose(row, values, atol=1e-8):
            return j
    raise AssertionError("character not found")


def interpolation_error(sol, S, values):
    """Worst |a-hat - sigma| over the stack."""
    return float(np.max(np.abs(gelfand(sol.a, S) - values), initial=0.0))


def certificate_feasibility(sol, S):
    """Worst max_i |sum_j c_j phi_j(e_i)| / w_i; feasible when <= 1."""
    f = (S.matrix.T @ sol.c[..., None])[..., 0]
    return float(np.max(np.abs(f) / S.algebra.weights))


def test_bse_norm_pointwise_all_ones(c2):
    S = characters_numerical(c2)
    sigma = np.array([1.0, 1.0 + 0j])
    fn = bse_norm_primal(sigma, S, c2)
    assert fn.value == pytest.approx(2.0)
    assert np.allclose(fn.a, [1.0, 1.0])
    assert interpolation_error(fn, S, sigma) <= 1e-12


def test_bse_norm_pointwise_indicator(c2):
    S = characters_numerical(c2)
    fn = bse_norm_primal(np.array([1.0, 0.0 + 0j]), S, c2)
    assert fn.value == pytest.approx(1.0)


def test_bse_norm_z2_fourier_inversion(z2):
    S = characters_numerical(z2)
    # order characters as rows of the character matrix; expected interpolant
    # by 2x2 Fourier inversion
    sigma = S.matrix[:, 1].copy()  # sigma(chi) = chi(delta_1): interpolant delta_1
    fn = bse_norm_primal(sigma, S, z2)
    assert fn.value == pytest.approx(1.0)
    assert np.allclose(fn.a, [0.0, 1.0], atol=1e-10)
    oracle = np.linalg.solve(S.matrix, sigma)
    assert np.allclose(oracle, fn.a)


def test_bse_dual_matches_primal(c2):
    S = characters_numerical(c2)
    assert bse_norm_dual(np.array([1.0, 1.0 + 0j]), S, c2).dual_value == pytest.approx(
        2.0, rel=1e-7)
    assert bse_norm_dual(np.zeros(2, dtype=complex), S, c2).dual_value == 0


def test_bse_dual_on_a_stack_matches_one_at_a_time(z2z2):
    S = characters_numerical(z2z2)
    rng = np.random.default_rng(9)
    sigmas = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    sigmas[1] = 0
    dual = bse_norm_dual(sigmas, S, z2z2)
    assert dual.dual_value.shape == (3,) and dual.c.shape == (3, 4)
    for sigma, value, certificate in zip(sigmas, dual.dual_value, dual.c):
        one = bse_norm_dual(sigma, S, z2z2)
        assert isinstance(one.dual_value, float)
        assert value == pytest.approx(one.dual_value, rel=1e-12, abs=0)
        assert np.allclose(certificate, one.c, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        bse_norm_dual(sigmas[None], S, z2z2)
    with pytest.raises(ValueError):
        bse_norm_dual(sigmas[:, :3], S, z2z2)


@pytest.mark.parametrize("count", [4, 2])
def test_bse_primal_on_a_stack_matches_one_at_a_time(z2z2, count):
    # all four characters give a square system, solved for the stack with one
    # factorization and equal to each row's solve bit for bit; two of them a
    # rectangular one, run through one cone loop
    import warnings

    S = character_subset(characters_numerical(z2z2), slice(count))
    rng = np.random.default_rng(10)
    sigmas = rng.standard_normal((3, count)) + 1j * rng.standard_normal((3, count))
    sigmas[1] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SemisimplicityWarning)
        fn = bse_norm_primal(sigmas, S, z2z2)
        rows = [bse_norm_primal(sigma, S, z2z2) for sigma in sigmas]
        with pytest.raises(ValueError):
            bse_norm_primal(sigmas[None], S, z2z2)
    assert fn.value.shape == fn.gap.shape == (3,)
    assert fn.a.shape == (3, 4) and fn.c.shape == (3, count)
    assert fn.value[1] == 0 and not np.any(fn.a[1])
    assert fn.method == rows[0].method == ("square" if count == 4 else "barrier")
    for i, row in enumerate(rows):
        if count == 4:
            assert fn.value[i] == row.value and fn.gap[i] == row.gap
            assert np.array_equal(fn.a[i], row.a)
            assert np.array_equal(fn.c[i], row.c)
        else:
            assert fn.value[i] == pytest.approx(row.value, rel=1e-12, abs=0)
            assert np.allclose(fn.c[i], row.c,
                               rtol=0, atol=1e-12)
    assert interpolation_error(fn, S, sigmas) == max(
        interpolation_error(row, S, sigma) for row, sigma in zip(rows, sigmas))
    assert certificate_feasibility(fn, S) == pytest.approx(
        max(certificate_feasibility(row, S) for row in rows), rel=1e-12)


def test_every_route_returns_the_solvers_solution(z2z2):
    # one result type: the BSE norms and the solvers they call all return the
    # InterpolationSolution, with the same values on the same system
    from banalg.interpolation import InterpolationSolution, solve_dual, solve_primal

    S = characters_numerical(z2z2)
    sigma = np.array([1.0, 2.0j, -1.0, 0.5])
    E, w = S.matrix, z2z2.weights
    primal, dual = bse_norm_primal(sigma, S, z2z2), bse_norm_dual(sigma, S, z2z2)
    routes = (primal, dual, delta_weak_bai(z2z2, S), solve_primal(E, sigma, w),
              solve_dual(E, sigma, w))
    assert all(isinstance(sol, InterpolationSolution) for sol in routes)
    assert primal.value == routes[3].value and dual.dual_value == routes[4].dual_value
    assert (primal.method, dual.method) == ("square", "barrier")


def test_dual_never_exceeds_primal_random(z2z2):
    S = characters_numerical(z2z2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        sigma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fn = bse_norm_primal(sigma, S, z2z2)
        dual = bse_norm_dual(sigma, S, z2z2).dual_value
        assert dual <= fn.value * (1 + 1e-9) + 1e-12
        assert abs(dual - fn.value) <= 1e-6 * max(1.0, fn.value)


def test_sup_norm_below_bse_norm(z2z2):
    S = characters_numerical(z2z2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        sigma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fn = bse_norm_primal(sigma, S, z2z2)
        assert np.max(np.abs(sigma)) <= fn.value * (1 + 1e-9)


complex_val = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                 allow_infinity=False)


@given(st.lists(complex_val, min_size=2, max_size=2),
       st.lists(complex_val, min_size=2, max_size=2),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_bse_norm_is_a_norm(s1, s2, lam):
    alg = diagonal_algebra(2)
    S = characters_numerical(alg)
    f = lambda v: bse_norm_primal(np.array(v), S, alg).value
    n1, n2 = f(s1), f(s2)
    nsum = f(np.array(s1) + np.array(s2))
    assert nsum <= n1 + n2 + 1e-8 * max(1.0, n1 + n2)
    nl = f(lam * np.array(s1))
    assert nl == pytest.approx(abs(lam) * n1, rel=1e-9, abs=1e-9)


def test_delta_weak_bai(c2, z2):
    S = characters_numerical(c2)
    cert = delta_weak_bai(c2, S)
    assert cert.value == pytest.approx(2.0)
    assert np.allclose(cert.a, [1.0, 1.0])
    assert cert.value <= weighted_norm(c2, c2.unit) + 1e-12
    S2 = characters_numerical(z2)
    cert = delta_weak_bai(z2, S2)
    assert cert.value == pytest.approx(1.0)
    assert np.allclose(cert.a, [1.0, 0.0], atol=1e-10)


def test_empty_character_set_raises(nilpotent2):
    with pytest.raises(EmptyCharacterSetError):
        delta_weak_bai(nilpotent2, characters_numerical(nilpotent2))


@pytest.mark.parametrize("norm", [bse_norm_primal, bse_norm_dual])
def test_rank_deficient_character_set_raises(c2, norm):
    # three distinct rows in a 2-dimensional dual: the constructor does not
    # check multiplicativity, so only the BSE norms' rank check refuses them
    S = CharacterSet(c2, np.array([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(RankDeficientCharactersError):
        norm(np.ones(3), S, c2)


def test_check_bse_pointwise(c2):
    v = check_bse_property(c2)
    assert v.is_bse and v.semisimple
    assert v.gelfand_space_dim == v.multiplier_hat_dim == 2


def test_check_bse_group(z2z2):
    v = check_bse_property(z2z2)
    assert v.is_bse
    assert v.gelfand_space_dim == v.multiplier_hat_dim == 4


def test_check_bse_unital_semisimple_random():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        w = rng.uniform(1.0, 2.0, n)
        s = rng.uniform(0.5, w)
        c = np.zeros((n, n, n), dtype=complex)
        for i in range(n):
            c[i, i, i] = s[i]
        alg = Algebra(f"d{n}", w, c, unit=(1.0 / s).astype(complex))
        assert check_bse_property(alg).is_bse


def test_check_bse_requires_without_order(zero_product2):
    with pytest.raises(NotWithoutOrderError):
        check_bse_property(zero_product2)


def test_check_bse_nonsemisimple_warns():
    # C[x]/(x^3): unital (hence without order) but far from semisimple
    c = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                c[i, j, i + j] = 1.0
    alg = Algebra("trunc3", np.ones(3), c, unit=np.eye(3, dtype=complex)[0])
    with pytest.warns(SemisimplicityWarning):
        v = check_bse_property(alg)
    assert not v.semisimple
    assert v.is_bse  # one character; multiplier hats already fill the line


def test_semisimplicity_warning_on_partial_characters(z2z2):
    partial = character_subset(characters_numerical(z2z2), slice(2))
    with pytest.warns(SemisimplicityWarning):
        bse_norm_primal(np.array([1.0, 2.0 + 0j]), partial, z2z2)


def test_split_sigma_worked_example():
    lc = characters_semidirect(lau_c_c2())
    # sigma(E) = 5, sigma(0, pi1) = 2, sigma(0, pi2) = 3
    j1 = b_index(lc, [1.0, 0.0])
    j2 = b_index(lc, [0.0, 1.0])
    sigma = np.zeros(3, dtype=complex)
    sigma[0] = 5.0
    sigma[1 + j1] = 2.0
    sigma[1 + j2] = 3.0
    sp = split_sigma(sigma, lc)
    assert np.allclose(sp.tau_values, [3.0])
    rho = np.zeros(2, dtype=complex)
    rho[j1], rho[j2] = 2.0, 3.0
    assert np.allclose(sp.rho_values, rho)
    assert sp.tau.value == pytest.approx(3.0)
    assert sp.rho.value == pytest.approx(5.0)
    assert sp.sigma.value == pytest.approx(8.0)
    assert sp.norm_slack == pytest.approx(0.0, abs=1e-9)


def test_split_sigma_zero():
    lc = characters_semidirect(lau_c_c2())
    sp = split_sigma(np.zeros(3, dtype=complex), lc)
    assert sp.tau.value == 0 and sp.rho.value == 0


def test_join_inverts_split():
    lc = characters_semidirect(lau_c_c2())
    rng = np.random.default_rng(3)
    sigma = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sp = split_sigma(sigma, lc)
    joined = theta(sp.tau_values, sp.rho_values, lc)
    assert np.allclose(joined.sigma_values, sigma)
    # and split of join returns the same pair
    sp2 = split_sigma(joined.sigma_values, lc)
    assert np.allclose(sp2.tau_values, sp.tau_values)
    assert np.allclose(sp2.rho_values, sp.rho_values)


def test_split_and_theta_on_a_stack_match_one_at_a_time():
    lc = characters_semidirect(build_fixture("lau", 0, 0, 6).descriptor)
    na, nb = len(lc.ideal_chars), len(lc.subalgebra_chars)
    rng = np.random.default_rng(6)

    def draw(k):
        return rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))

    sigmas, taus, rhos = draw(na + nb), draw(na), draw(nb)
    for stacked, rows in ((split_sigma(sigmas, lc), [split_sigma(s, lc) for s in sigmas]),
                          (theta(taus, rhos, lc), [theta(*p, lc) for p in zip(taus, rhos)])):
        assert stacked.norm_slack.shape == (3,)
        for i, row in enumerate(rows):
            assert stacked.norm_slack[i] == row.norm_slack
            for part in ("tau", "rho", "sigma"):
                assert np.array_equal(getattr(stacked, f"{part}_values")[i],
                                      getattr(row, f"{part}_values"))
                assert getattr(stacked, part).value[i] == getattr(row, part).value
    assert theta_product_residual(lc, taus, rhos, draw(na), draw(nb)) <= 1e-12


def test_theta_isometry_and_examples():
    lc = characters_semidirect(lau_c_c2())
    ones_a = np.ones(1, dtype=complex)
    # tau = all-ones, rho = 0: indicator of the E block
    th = theta(ones_a, np.zeros(2, dtype=complex), lc)
    expected = np.zeros(3, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(th.sigma_values, expected)
    # rho = all-ones, tau = 0: all-ones on E u F
    th = theta(np.zeros(1, dtype=complex), np.ones(2, dtype=complex), lc)
    assert np.allclose(th.sigma_values, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        tau = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        rho = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        th = theta(tau, rho, lc)
        assert abs(th.norm_slack) <= 1e-9
        assert th.sigma.value == pytest.approx(
            th.tau.value + th.rho.value, abs=1e-9
        )


def test_theta_multiplicative():
    lc = characters_semidirect(lau_c_c2())
    rng = np.random.default_rng(5)
    for _ in range(10):
        res = theta_product_residual(
            lc,
            rng.standard_normal(1) + 1j * rng.standard_normal(1),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(1) + 1j * rng.standard_normal(1),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        assert res <= 1e-12


def test_split_requires_surjective_phi():
    ds = direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B"))
    lc = characters_semidirect(ds)
    with pytest.raises(PhiNotSurjectiveError):
        split_sigma(np.zeros(3, dtype=complex), lc)


def test_semidirect_characters_have_no_surjectivity():
    # surjectivity is a property of phi, and a semidirect descriptor has none
    sdc = characters_semidirect(pointwise_semidirect())
    with pytest.raises(ConstructionError):
        sdc.surjective
    with pytest.raises(ConstructionError):
        split_sigma(np.zeros(len(sdc.set), dtype=complex), sdc)


def test_sigma_extension_pointwise():
    sdc = characters_semidirect(pointwise_semidirect())
    ext = sigma_extension(np.array([2.0 + 0j]), sdc)
    assert np.allclose(ext.sigma_values, 2.0)
    assert ext.sigma.value <= ext.rho.value + 1e-9
    assert ext.rho.value == pytest.approx(2.0)
    assert ext.witness_error <= 1e-12
    # the lifted witness (b, 0) has the subalgebra norm
    desc = sdc.descriptor
    lifted = np.zeros(desc.algebra.dim, dtype=complex)
    lifted[desc.subalgebra_slice] = ext.rho.a
    assert weighted_norm(desc.algebra, lifted) == pytest.approx(ext.rho.value)
    # all-ones and zero cases
    ext = sigma_extension(np.ones(1, dtype=complex), sdc)
    assert np.allclose(ext.sigma_values, 1.0)
    ext = sigma_extension(np.zeros(1, dtype=complex), sdc)
    assert ext.sigma.value == 0


def test_sigma_extension_requires_span():
    B = diagonal_algebra(1, "B")
    I = diagonal_algebra(1, "I")
    desc = semidirect(B, I, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    sdc = characters_semidirect(desc)
    with pytest.raises(SpanConditionError):
        sigma_extension(np.ones(1, dtype=complex), sdc)


def test_verify_product_bse_direct_sum():
    rep = verify_product_bse(direct_sum(diagonal_algebra(1, "A"),
                                        diagonal_algebra(2, "B")))
    assert rep.biconditional_ok
    assert rep.verdict_first.is_bse and rep.verdict_second.is_bse
    assert rep.verdict_product.is_bse
    assert rep.sum_block_dim_ok
    assert rep.sum_block_residual <= 1e-10


def test_verify_product_bse_lau_transport():
    rep = verify_product_bse(lau_c_c2())
    assert rep.biconditional_ok
    assert rep.transport_dim_ok
    assert rep.transport_membership <= 1e-10
    assert rep.transport_hat_residual <= 1e-9


def test_semidirect_product_has_no_phi_isomorphism():
    """Phi(a, b) = (a - phi(b), b) needs a lau product or direct sum: on a
    semidirect product both Phi and the product report refuse with a typed
    error."""
    desc = pointwise_semidirect()
    with pytest.raises(ConstructionError, match="semidirect"):
        phi_isomorphism(desc)
    with pytest.raises(ConstructionError, match="semidirect"):
        verify_product_bse(desc)


@pytest.mark.parametrize("desc", [
    lau_c_c2(),
    direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B")),
], ids=["lau", "direct_sum"])
def test_verify_product_bse_report_is_complete(desc):
    # on a direct sum Phi is the identity, so no transport residual is computed
    rep = verify_product_bse(desc)
    transport = {"transport_membership", "transport_hat_residual"}
    unset = {f.name for f in dataclasses.fields(rep) if getattr(rep, f.name) is None}
    assert unset == (transport if desc.kind == "direct_sum" else set())
    assert rep.verdict_direct.characters.algebra is rep.iso.direct.algebra
    assert rep.biconditional_ok and rep.sum_biconditional_ok
    assert rep.sum_block_dim_ok and rep.sum_block_residual <= 1e-10
    assert rep.transport_dim_ok
    if desc.kind != "direct_sum":
        assert max(rep.transport_membership, rep.transport_hat_residual) <= 1e-9


def test_containment_certificate_helper():
    # on artificially different subspaces the comparison is far from 0
    from banalg.bse import _containment_residual, _orthonormal_rows

    plane = _orthonormal_rows(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                       dtype=complex))
    line = _orthonormal_rows(np.array([[0.0, 0.0, 1.0]], dtype=complex))
    assert _containment_residual(line, plane) == pytest.approx(1.0)
    assert _containment_residual(plane[:1], plane) <= 1e-12


def loop_containment_residual(inner, outer_basis):
    """Oracle: one inner row at a time; zero rows skipped."""
    worst = 0.0
    for row in inner:
        nrm = float(np.linalg.norm(row))
        if nrm == 0:
            continue
        proj = outer_basis.conj() @ row if outer_basis.shape[0] else np.zeros(0)
        resid = row - (outer_basis.T @ proj if outer_basis.shape[0] else 0)
        worst = max(worst, float(np.linalg.norm(resid)) / nrm)
    return worst


def test_containment_residual_matches_row_loop():
    from banalg.bse import _containment_residual, _orthonormal_rows

    rng = np.random.default_rng(4)
    outer = _orthonormal_rows(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    inner = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    inner[2] = 0.0
    e3 = np.array([0, 0, 1, 0], dtype=complex)
    cases = [
        (inner, outer),
        (inner, outer[:0]),  # empty outer basis: every nonzero row has residual 1
        (np.zeros((3, 4), dtype=complex), outer),  # only zero rows
        (inner[:0], outer),  # no rows
        # rows 1 and 2 tie at residual 1 (e3 and -1j e3 against the e0, e1 plane)
        (np.array([[1, 0, 0, 0], e3, -1j * e3]), np.eye(4, dtype=complex)[:2]),
    ]
    for rows, basis in cases:
        assert _containment_residual(rows, basis) == pytest.approx(
            loop_containment_residual(rows, basis), abs=1e-15)


def test_theta_reports_product_law():
    # the law on the pair squared: the image of (tau, rho)^2 is sigma^2
    lc = characters_semidirect(lau_c_c2())
    tau, rho = np.array([1.0 + 2.0j]), np.array([0.5, -1.0j])
    th = theta(tau, rho, lc)
    assert theta_product_residual(lc, tau, rho, tau, rho) <= 1e-12
    g = np.array(lc.psi_index)
    squared = theta(tau * tau + 2 * rho[g] * tau, rho * rho, lc)
    assert np.max(np.abs(squared.sigma_values - th.sigma_values ** 2)) <= 1e-12


def test_multiplier_hats_inside_interpolable_functions(z2z2):
    # whenever the identity certificate exists, multiplier hats are
    # interpolable (here: both spaces are everything)
    from banalg.multipliers import hat, multiplier_space

    S = characters_numerical(z2z2)
    delta_weak_bai(z2z2, S)  # succeeds with finite norm
    E = S.matrix
    for T in multiplier_space(z2z2):
        h = hat(T, S)
        a, *_ = np.linalg.lstsq(E, h, rcond=None)
        assert np.max(np.abs(E @ a - h)) <= 1e-9
