"""Random fixture families, exact by construction.

Every generator produces structure tensors with exact (integer- or
phase-valued) entries so validation residuals sit at machine precision,
and weight/scaling choices that keep the basis-level submultiplicativity
certificate intact:

  diag        scaled diagonal algebras (semisimple, unital up to scaling)
  group       convolution algebras of finite abelian groups, phase-twisted
  semidirect  a subalgebra/ideal split of a pointwise algebra driven by a
              selector map; total selectors give the full span <IB> = I
  lau         scaled diagonal parents with a surjective contractive
              homomorphism picked by an injective selector
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra
from .constructions import (
    ProductDescriptor,
    finite_abelian_group_algebra,
    lau_product,
    semidirect,
)

FAMILIES = ("diag", "group", "semidirect", "lau")
_FAMILY_CODE = {name: i + 1 for i, name in enumerate(FAMILIES)}


@dataclass(eq=False)
class Fixture:
    family: str
    name: str
    algebra: Algebra
    descriptor: ProductDescriptor | None = None
    meta: dict = field(default_factory=dict)


def fixture_rng(seed: int, family: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _FAMILY_CODE[family], index])


def _phases(rng: np.random.Generator, k: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(k))


def _diagonal(s: np.ndarray) -> np.ndarray:
    """Structure tensor of the pointwise product e_i e_i = s_i e_i."""
    n = len(s)
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n), np.arange(n), np.arange(n)] = s
    return c


def scaled_diagonal_algebra(rng: np.random.Generator, n: int,
                            name: str = "diag") -> Algebra:
    """e_i e_i = s_i e_i with |s_i| <= w_i; semisimple with unit sum(e_i / s_i)."""
    w = rng.uniform(1.0, 2.5, n)
    s = rng.uniform(0.5, w) * _phases(rng, n)
    return Algebra(name, w, _diagonal(s), unit=1.0 / s)


def diag_fixture(seed: int, index: int, max_dim: int = 6) -> Fixture:
    rng = fixture_rng(seed, "diag", index)
    n = int(rng.integers(2, max_dim + 1))
    alg = scaled_diagonal_algebra(rng, n, name=f"diag{n}#{index}")
    return Fixture("diag", f"diag/{index:03d}", alg)


def group_fixture(seed: int, index: int) -> Fixture:
    rng = fixture_rng(seed, "group", index)
    choices = ([2], [3], [4], [2, 2], [5], [2, 3], [2, 2, 2], [3, 3], [2, 4])
    orders = list(choices[int(rng.integers(0, len(choices)))])
    alg = finite_abelian_group_algebra(orders, name=f"group{orders}#{index}")
    twist = np.ones(alg.dim, dtype=complex)
    if rng.random() < 0.5:
        alg, twist = _phase_twist(rng, alg)
    return Fixture("group", f"group/{index:03d}", alg,
                   meta={"orders": orders, "twist": twist})


def _phase_twist(rng: np.random.Generator, alg: Algebra
                 ) -> tuple[Algebra, np.ndarray]:
    """Rescale basis vectors by unit phases; exact and norm-preserving.

    Characters of the twisted algebra are the old ones multiplied entrywise
    by the twist, which is returned for closed-form cross-checks.
    """
    n = alg.dim
    theta = _phases(rng, n)
    theta[0] = 1.0
    c = alg.structure * theta[:, None, None] * theta[None, :, None] / theta[None, None, :]
    unit = None if alg.unit is None else alg.unit / theta
    return Algebra(alg.name + "~", alg.weights, c, unit=unit), theta


def semidirect_fixture(seed: int, index: int, max_dim: int = 3) -> Fixture:
    """Selector-driven split: b_l acts on f_k iff selector(k) = l.

    A total selector gives <IB> = I; one draw in four leaves an ideal basis
    vector without action (psi_phi = 0 there).
    """
    rng = fixture_rng(seed, "semidirect", index)
    m = int(rng.integers(1, max_dim + 1))
    p = int(rng.integers(1, max_dim + 1))
    full_span = rng.random() < 0.75
    wB = rng.uniform(1.0, 2.0, m)
    wI = rng.uniform(1.0, 2.0, p)
    tB = rng.uniform(0.7, wB) * _phases(rng, m)
    sI = rng.uniform(0.7, wI) * _phases(rng, p)
    selector = [int(rng.integers(0, m)) for _ in range(p)]
    if not full_span:
        selector[int(rng.integers(0, p))] = -1  # no action on this ideal direction

    act_bi = np.zeros((m, p, p), dtype=complex)
    act_ib = np.zeros((p, m, p), dtype=complex)
    k = np.flatnonzero(np.array(selector) >= 0)
    l = np.array(selector)[k]
    act_bi[l, k, k] = act_ib[k, l, k] = tB[l]
    B = Algebra(f"B{m}#{index}", wB, _diagonal(tB), unit=1.0 / tB)
    I = Algebra(f"I{p}#{index}", wI, _diagonal(sI), unit=1.0 / sI)
    desc = semidirect(B, I, act_bi, act_ib, name=f"sd{m}+{p}#{index}")
    return Fixture(
        "semidirect", f"semidirect/{index:03d}", desc.algebra, desc,
        meta={"selector": selector, "full_span": all(l >= 0 for l in selector)},
    )


def lau_fixture(seed: int, index: int, max_dim: int = 3) -> Fixture:
    """Scaled diagonal parents with phi(u_{iota(k)}) = (t_{iota(k)}/s_k) v_k.

    The scaling choice makes phi an exact homomorphism; weights are sampled
    so its operator norm is < 1 (strictly contractive by construction).
    """
    rng = fixture_rng(seed, "lau", index)
    nA = int(rng.integers(1, max_dim + 1))
    nB = int(rng.integers(nA, max_dim + 2))
    wA = rng.uniform(1.0, 2.0, nA)
    sA = rng.uniform(0.7, wA) * _phases(rng, nA)
    wB = rng.uniform(1.0, 2.0, nB)
    iota = rng.permutation(nB)[:nA]
    tB = (rng.uniform(0.6, 1.0, nB) * wB).astype(complex)
    alpha = np.zeros((nA, nB), dtype=complex)
    for k in range(nA):
        l = int(iota[k])
        # t_l = rho * s_k * wB_l / wA_k keeps |phi(u_l)| = |t_l/s_k| wA_k <= wB_l
        rho = rng.uniform(0.5, 0.999)
        tB[l] = rho * sA[k] * wB[l] / wA[k] * _phases(rng, 1)[0]
        alpha[k, l] = tB[l] / sA[k]
    A = Algebra(f"A{nA}#{index}", wA, _diagonal(sA), unit=1.0 / sA)
    B = Algebra(f"B{nB}#{index}", wB, _diagonal(tB), unit=1.0 / tB)
    desc = lau_product(A, B, alpha, name=f"lau{nA}x{nB}#{index}")
    return Fixture(
        "lau", f"lau/{index:03d}", desc.algebra, desc,
        meta={"iota": [int(i) for i in iota]},
    )


_BUILDERS = {
    "diag": diag_fixture,
    "group": group_fixture,
    "semidirect": semidirect_fixture,
    "lau": lau_fixture,
}


def build_fixture(family: str, seed: int, index: int, max_dim: int = 6) -> Fixture:
    if family not in _BUILDERS:
        raise ValueError(f"unknown fixture family {family!r} (have {FAMILIES})")
    if family in ("semidirect", "lau"):
        return _BUILDERS[family](seed, index, max_dim=min(max_dim, 4))
    if family == "diag":
        return _BUILDERS[family](seed, index, max_dim=max_dim)
    return _BUILDERS[family](seed, index)

