import numpy as np
import pytest
from scipy.optimize import linprog

from banalg.errors import BseError
from banalg.interpolation import (
    GAP_HARD_LIMIT,
    certificate_slack,
    certificate_value,
    interpolation_residual,
    solve_dual,
    solve_primal,
)


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
    assert sol.method == "square"
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


def test_stress_corpus():
    """Random full-rank complex rectangular instances: every one certified."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(4, 17))
        s = int(rng.integers(1, n))
        E = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        sigma = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        w = rng.uniform(0.5, 2.0, n)
        sol = solve_primal(E, sigma, w)
        assert interpolation_residual(E, sol.a, sigma) <= 1e-9
        assert certificate_slack(E, sol.c, w) <= 1e-12
        assert sol.gap <= GAP_HARD_LIMIT * max(1.0, sol.value)
