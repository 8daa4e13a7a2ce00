import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from banalg.errors import BseError
from banalg.interpolation import (
    GAP_HARD_LIMIT,
    GAP_REL,
    MAX_ITER,
    _J,
    _det,
    _max_step,
    _nt_scaling,
    _solve_cone,
    interpolation_residual,
    solve_dual,
    solve_primal,
)

from conftest import certificate_slack


def certificate_value(c, sigma):
    """|sum_j c_j sigma_j|: the dual objective of a certificate c."""
    return float(abs(c @ sigma))


def lp_oracle(E, sigma, w):
    """Real-data oracle via scipy linprog: min w|a| s.t. Ea = sigma.

    For real E and sigma the complex problem has a real optimum, so the
    classic a = u - v splitting applies.
    """
    s, n = E.shape
    c = np.concatenate([w, w])
    A_eq = np.hstack([E, -E])
    res = linprog(c, A_eq=A_eq, b_eq=sigma, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_square_exact(c2=None):
    E = np.eye(2, dtype=complex)
    sol = solve_primal(E, np.array([1.0, 1.0 + 0j]), np.ones(2))
    assert sol.method == "square" and sol.iterations == 0
    assert sol.value == pytest.approx(2.0)
    assert np.allclose(sol.a, [1.0, 1.0])
    assert sol.dual_value == pytest.approx(2.0)


def test_zero_sigma():
    E = np.ones((1, 3), dtype=complex)
    sol = solve_primal(E, np.zeros(1, dtype=complex), np.ones(3))
    assert sol.value == 0 and np.allclose(sol.a, 0)
    value, cert = solve_dual(E, np.zeros(1, dtype=complex), np.ones(3))
    assert value == 0


def test_single_constraint_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        E = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        w = rng.uniform(0.5, 2.0, 4)
        sigma = np.array([rng.standard_normal() + 1j * rng.standard_normal()])
        expected = min(w[i] * abs(sigma[0]) / abs(E[0, i]) for i in range(4))
        sol = solve_primal(E, sigma, w)
        assert sol.value == pytest.approx(expected, rel=1e-7)
        dv, _ = solve_dual(E, sigma, w)
        assert dv == pytest.approx(expected, rel=1e-7)


def test_against_lp_oracle_real_data():
    rng = np.random.default_rng(4)
    for _ in range(12):
        s, n = int(rng.integers(1, 4)), int(rng.integers(4, 8))
        E = rng.standard_normal((s, n))
        w = rng.uniform(0.5, 2.0, n)
        sigma = rng.standard_normal(s)
        expected = lp_oracle(E, sigma, w)
        sol = solve_primal(E.astype(complex), sigma.astype(complex), w)
        assert sol.value == pytest.approx(expected, rel=1e-6, abs=1e-8)


def test_feasibility_of_returned_pair():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s, n = int(rng.integers(1, 5)), int(rng.integers(5, 9))
        E = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        w = rng.uniform(0.5, 2.0, n)
        sigma = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        sol = solve_primal(E, sigma, w)
        assert interpolation_residual(E, sol.a, sigma) <= 1e-9
        assert certificate_slack(E, sol.c, w) <= 1e-12
        assert sol.gap <= 1e-6 * max(1.0, sol.value)
        # weak duality holds for every feasible certificate
        assert certificate_value(sol.c, sigma) <= sol.value + 1e-9


def test_weak_duality_random_certificates():
    rng = np.random.default_rng(6)
    E = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    w = rng.uniform(0.5, 2.0, 5)
    sigma = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sol = solve_primal(E, sigma, w)
    for _ in range(50):
        cand = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scale = np.max(np.abs(E.T @ cand) / w)
        cand = cand / scale  # exactly feasible up to rounding
        assert certificate_value(cand, sigma) <= sol.value * (1 + 1e-9) + 1e-9


def test_empty_system_raises():
    with pytest.raises(BseError):
        solve_primal(np.zeros((0, 2), dtype=complex), np.zeros(0), np.ones(2))


def test_rank_deficient_systems_raise():
    # singular square E: the linear solve has no unique answer
    with pytest.raises(BseError):
        solve_primal(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex),
                     np.array([1.0, 2.0]), np.ones(2))
    # inconsistent: the second row is twice the first, sigma is not
    E = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], dtype=complex)
    with pytest.raises(BseError):
        solve_primal(E, np.array([1.0, 3.0]), np.ones(3))
    with pytest.raises(BseError):
        solve_dual(E, np.array([1.0, 3.0]), np.ones(3))
    # consistent but rank-deficient: refused as well
    with pytest.raises(BseError):
        solve_primal(E, np.array([1.0, 2.0]), np.ones(3))


def test_square_certificate_on_subnormal_data():
    sol = solve_primal(np.eye(2, dtype=complex), np.array([5e-324, 0.0]), np.ones(2))
    assert np.isfinite(sol.dual_value) and np.isfinite(sol.gap)
    assert sol.dual_value == sol.value == 5e-324
    assert certificate_slack(np.eye(2), sol.c, np.ones(2)) <= 0


def rectangular_corpus():
    """Random full-rank complex rectangular instances, s < n <= 16."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(4, 17))
        s = int(rng.integers(1, n))
        E = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        sigma = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        yield E, sigma, rng.uniform(0.5, 2.0, n)


def square_corpus():
    """Random full-rank complex square instances, s = n in [2, 16]: the shape
    every dual solve of the verify harness has."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 17))
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield E, sigma, rng.uniform(0.5, 2.0, n)


def test_stress_corpus():
    """Rectangular instances: every one certified, none at the iteration cap."""
    for E, sigma, w in rectangular_corpus():
        sol = solve_primal(E, sigma, w)
        assert interpolation_residual(E, sol.a, sigma) <= 1e-9
        assert certificate_slack(E, sol.c, w) <= 1e-12
        assert sol.gap <= GAP_HARD_LIMIT * max(1.0, sol.value)
        assert 0 < sol.iterations < MAX_ITER


def test_stress_corpus_square_dual():
    """Square instances: the dual cone program meets the exact linear-solve value."""
    for E, sigma, w in square_corpus():
        exact = solve_primal(E, sigma, w).value
        value, c = solve_dual(E, sigma, w)
        assert abs(value - exact) <= GAP_HARD_LIMIT * max(1.0, value)
        assert certificate_slack(E, c, w) <= 1e-12


def test_stress_corpus_square_dual_batched():
    """The square corpus with three more sigma per E, each group of four in one
    cone loop: every member meets its exact linear-solve value."""
    rng = np.random.default_rng(2025)
    for E, sigma, w in square_corpus():
        n = len(sigma)
        sigmas = np.vstack([sigma, rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))])
        values, certificates = solve_dual(E, sigmas, w)
        for sigma, value, c in zip(sigmas, values, certificates):
            exact = solve_primal(E, sigma, w).value
            assert abs(value - exact) <= GAP_HARD_LIMIT * max(1.0, value)
            assert certificate_slack(E, c, w) <= 1e-12


@pytest.mark.parametrize("corpus", [square_corpus, rectangular_corpus])
def test_batch_members_match_their_solves_alone(corpus):
    """Four sigma on one E in one cone loop: each member stops on its own test,
    so it takes the iterations, and reaches the dual value, of a batch of one."""
    rng = np.random.default_rng(7)
    staggered = False
    for E, _, w in itertools.islice(corpus(), 40):
        s = E.shape[0]
        sigmas = rng.standard_normal((4, s)) + 1j * rng.standard_normal((4, s))
        batch = _solve_cone(E, sigmas, w, GAP_REL)
        for sigma, iterations, dual_value in zip(sigmas, batch.iterations, batch.dual_value):
            alone = _solve_cone(E, sigma[None], w, GAP_REL)
            assert iterations == alone.iterations[0]
            assert dual_value == pytest.approx(alone.dual_value[0], rel=1e-12)
        staggered |= len(set(batch.iterations)) > 1
    assert staggered  # some batch had members stop at different iterations


@pytest.mark.parametrize("shape", [(4, 4), (3, 5)])
def test_zero_sigma_in_a_batch(shape):
    """An all-zero member gets 0 and a zero certificate without a solve; the
    other members come out exactly as in the batch without it."""
    rng = np.random.default_rng(8)
    s, n = shape
    E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = rng.uniform(0.5, 2.0, n)
    sigmas = rng.standard_normal((3, s)) + 1j * rng.standard_normal((3, s))
    values, certificates = solve_dual(E, sigmas, w)
    zvalues, zcertificates = solve_dual(E, np.insert(sigmas, 1, 0.0, axis=0), w)
    assert zvalues.shape == (4,) and zcertificates.shape == (4, s)
    assert zvalues[1] == 0 and not np.any(zcertificates[1])
    assert np.array_equal(np.delete(zvalues, 1), values)
    assert np.array_equal(np.delete(zcertificates, 1, axis=0), certificates)


def test_square_cone_iterations_below_cap():
    """The cone program solve_dual runs on square E never reaches MAX_ITER."""
    for E, sigma, w in square_corpus():
        iterations, = _solve_cone(E, sigma[None], w, GAP_REL).iterations
        assert 0 < iterations < MAX_ITER


def test_nt_scaling_identities():
    """Winv is symmetric, Winv s = lam and Winv lam = z (so W z = lam for W its
    inverse), and z.s = lam.lam: the identities that let the predictor work in
    the scaled space."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        z, s = rng.standard_normal((2, n, 3))
        z[:, 0] = np.linalg.norm(z[:, 1:], axis=1) + rng.uniform(1e-3, 2.0, n)
        s[:, 0] = np.linalg.norm(s[:, 1:], axis=1) + rng.uniform(1e-3, 2.0, n)
        Winv, lam = _nt_scaling(z, s, _det(z), _det(s))
        assert np.allclose(Winv, Winv.transpose(0, 2, 1), rtol=0, atol=1e-12)
        assert np.allclose(np.einsum("iab,ib->ia", Winv, s), lam, rtol=0, atol=1e-10)
        assert np.allclose(np.einsum("iab,ib->ia", Winv, lam), z, rtol=0, atol=1e-10)
        assert np.sum(z * s) == pytest.approx(np.sum(lam * lam), rel=1e-12)


def test_stacked_max_step_is_the_smaller_step():
    """The step over stacked directions is the smaller separate step, and it
    stops each direction at the boundary of the first cone it leaves."""
    def cone_det(v):
        return v[..., 0] ** 2 - np.sum(v[..., 1:] ** 2, axis=-1)

    def max_step(x, d):
        # one member whose directions are stacked on d's leading axis
        return _max_step((_J * x)[None], _det(x)[None], d.reshape(1, -1, *x.shape))[0]

    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, 3))
        x[:, 0] = np.linalg.norm(x[:, 1:], axis=1) + rng.uniform(1e-3, 2.0, n)
        d = rng.standard_normal((2, n, 3))
        t = max_step(x, d)
        assert t == min(max_step(x, d[0]), max_step(x, d[1]))
        inside = x + 0.999 * t * d
        assert np.all(cone_det(inside) > 0) and np.all(inside[..., 0] > 0)
        assert np.min(np.abs(cone_det(x + t * d))) <= 1e-9 * np.max(x[:, 0] ** 2)
    x = np.array([[1.0, 0.0, 0.0]])
    inward = np.array([[[1.0, 0.0, 0.0]], [[2.0, 1.0, 0.0]]])  # never leaves the cone
    assert max_step(x, inward) == np.inf
