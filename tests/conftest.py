import os

# One BLAS thread for the whole suite, set before numpy loads OpenBLAS: the
# solves here are small, and on a machine with few cores busy with other work a
# second BLAS thread per process turns sub-second tests into many-second ones.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from banalg.algebra import Algebra
from banalg.constructions import (
    finite_abelian_group_algebra,
    lau_product,
    semidirect,
)
from banalg.jsonio import complex_pair, render_json
from banalg.spectra import CharacterSet


def write_json(path, doc):
    """Write doc as the CLI's deterministic JSON, for tests that need input files."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(doc) + "\n")


def change_basis(alg, S):
    """The algebra in the basis f_i = sum_a S[a, i] e_a, every weight
    max(1, max_ij sum_k |c'[i, j, k]|)."""
    S_inv = np.linalg.inv(S)
    c = np.einsum("ai,bj,abk,lk->ijl", S, S, alg.structure, S_inv)
    weight = max(1.0, float(np.abs(c).sum(axis=2).max()))
    unit = None if alg.unit is None else S_inv @ alg.unit
    return Algebra(alg.name + "~", np.full(alg.dim, weight), c, unit=unit)


def character_subset(S, index):
    """The CharacterSet of the rows S.matrix[index], each with its residual."""
    return CharacterSet(S.algebra, S.matrix[index], S.residuals[index])


def sigma_to_dict(values):
    return {"values": [complex_pair(z) for z in np.asarray(values, dtype=complex)]}


def certificate_slack(E, c, w):
    """max_i |(E^T c)_i| - w_i; feasible certificates have slack <= 0."""
    return float(np.max(np.abs(E.T @ c) - w))


def basis_element(algebra, i):
    """The coefficient vector of the basis element e_i."""
    return np.eye(algebra.dim, dtype=complex)[i]


def multiply(algebra, a, b):
    """Coefficients of the product ab: (ab)_k = sum_{i,j} a_i b_j c[i,j,k]."""
    return np.einsum("i,j,ijk->k", a, b, algebra.structure)


def weighted_norm(algebra, a):
    """The weighted l1 norm ||a|| = sum_i w_i |a_i| of a coefficient vector."""
    return float(np.sum(algebra.weights * np.abs(a)))


def left_mult_matrix(algebra, a):
    """Matrix of x -> a*x in the basis: M[k, j] = sum_i a_i c[i,j,k]."""
    return np.einsum("i,ijk->kj", a, algebra.structure)


def dual_norm(f, algebra):
    """Exact dual of the weighted l1 norm: max_i |f_i| / w_i, f the values on the basis."""
    return float(np.max(np.abs(f) / algebra.weights))


def span_contains(space, T, tol=1e-8):
    """Whether T lies in the span of a multiplier stack (Frobenius projection residual)."""
    if not len(space):
        return float(np.linalg.norm(T)) <= tol
    flat = space.reshape(len(space), -1)
    t = np.asarray(T, dtype=complex).reshape(-1)
    proj = flat.conj() @ t  # orthonormal rows
    resid = t - flat.T @ proj
    return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(t)))


def diagonal_algebra(n, name="pointwise", weights=None):
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return Algebra(name, w, c, unit=np.ones(n, dtype=complex))


@pytest.fixture
def c2():
    return diagonal_algebra(2, "C2")


def nil2():
    # e0 e0 = e1, every other product zero
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    return Algebra("nil2", np.ones(2), c)


def zero_product(n):
    return Algebra(f"zero{n}", np.ones(n), np.zeros((n, n, n), dtype=complex))


def x_truncated4():
    """xC[x]/(x^4): the basis x, x^2, x^3 with x^i x^j = x^(i+j), zero past x^3."""
    c = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(2 - i):
            c[i, j, i + j + 1] = 1.0
    return Algebra("xC[x]/(x^4)", np.ones(3), c)


@pytest.fixture
def nilpotent2():
    return nil2()


@pytest.fixture
def zero_product2():
    return zero_product(2)


@pytest.fixture
def z2():
    return finite_abelian_group_algebra([2])


@pytest.fixture
def z3():
    return finite_abelian_group_algebra([3])


@pytest.fixture
def z2z2():
    return finite_abelian_group_algebra([2, 2])


def pointwise_semidirect():
    """B = span{(b, b)} and I = span{(a, 0)} inside pointwise C^2.

    Abstract structure: f0 f0 = f0, f0 f1 = f1 f0 = f1, f1 f1 = f1, with
    (b, a) <-> b + a identifying the assembled algebra with C^2.
    """
    one = np.ones((1, 1, 1), dtype=complex)
    B = Algebra("Bfix", np.ones(1), one, unit=np.ones(1, dtype=complex))
    I = Algebra("Ifix", np.ones(1), one.copy())
    act = np.ones((1, 1, 1), dtype=complex)
    return semidirect(B, I, act, act.copy())


def module_extension_semidirect():
    """B (+) X with B = C^2 pointwise, X = C^2, X^2 = 0, e0 x0 = x0 e0 = x0 and
    x1 unacted: a module extension with order (x1 annihilates everything),
    where M(A) and LM(A) differ."""
    B = diagonal_algebra(2, "C2")
    X = Algebra("X", np.ones(2), np.zeros((2, 2, 2), dtype=complex))
    act = np.zeros((2, 2, 2), dtype=complex)
    act[0, 0, 0] = 1.0
    return semidirect(B, X, act, act.copy())


def zero_product_semidirect():
    """zero1 (+) zero1 with B acting by zero: every product vanishes, so there
    are no characters and the whole algebra is its annihilator."""
    zero = np.zeros((1, 1, 1), dtype=complex)
    return semidirect(zero_product(1), zero_product(1), zero, zero.copy())


def order_full_span_semidirect():
    """B (+) I with B = Ce (+) Cn, e^2 = e and n annihilating B, and I = Cx,
    x^2 = 0, e x = x e = x, n x = 0: <IB> = I, but n annihilates the product,
    which has order, and M(A) is not inside LM(A)."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    B = Algebra("Ce+Cn", np.ones(2), c)
    act = np.zeros((2, 1, 1), dtype=complex)
    act[0, 0, 0] = 1.0
    return semidirect(B, zero_product(1), act, act.transpose(1, 0, 2).copy())


def identity_on_zero_line_semidirect():
    """B = C acting by identity on a zero-product line N: <IB> = I and no
    order, but no character is nonzero on N, so E is empty."""
    one = np.ones((1, 1, 1), dtype=complex)
    B = Algebra("C", np.ones(1), one, unit=np.ones(1, dtype=complex))
    return semidirect(B, zero_product(1), one.copy(), one.copy())


def dual_numbers_semidirect():
    """B (+) I with B = C, b^2 = 0, and I = C[x]/(x^2) in the basis (1, x),
    unit (1, 0), all weights 1, B acting on I by zero.  The ideal product is
    nonzero, so the block relations (ii) and (iv) cut the block space down."""
    B = Algebra("Bnil1", np.ones(1), np.zeros((1, 1, 1), dtype=complex))
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    I = Algebra("C[x]/(x^2)", np.ones(2), c, unit=np.array([1.0, 0.0], dtype=complex))
    zero = np.zeros((1, 2, 2), dtype=complex)
    return semidirect(B, I, zero, zero.transpose(1, 0, 2).copy())


@pytest.fixture
def sd_pointwise():
    return pointwise_semidirect()


def lau_c_c2():
    """A = C, B = C^2, phi(b1, b2) = b1: the 3-dimensional worked example."""
    A = diagonal_algebra(1, "Afix")
    B = diagonal_algebra(2, "Bfix2")
    return lau_product(A, B, np.array([[1.0, 0.0]], dtype=complex))


@pytest.fixture
def lau_fixture_small():
    return lau_c_c2()
