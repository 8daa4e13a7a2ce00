"""Product constructions with provenance.

A semidirect product B (+) I has a closed subalgebra B and a closed ideal I,
with (b, a)(b', a') = (bb', aa' + ba' + ab').  A lau product A x_phi B is the
semidirect product with ideal A and subalgebra B acting by b.a = phi(b)a, and
a direct sum is the lau product with phi = 0.  A map is its coefficient
matrix: phi: B -> A is a (dim A, dim B) array, and Phi is n x n.  Both
constructors hand their parents and their two actions to one assembler,
which places the four structure blocks and validates the product once.
`ProductDescriptor` alone states the block layout, derived once from the
parents and phi: a semidirect product puts B first, a lau product or direct
sum its ideal A first, and every reader takes a structure block by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    _readonly,
    operator_norm,
    rank_basis,
    require_valid,
    validate,
)
from .errors import (
    ConstructionError,
    InvalidActionError,
    NotContractiveError,
    NotHomomorphismError,
)


class StructureBlocks(NamedTuple):
    """The four blocks of a product tensor c, as views: each keeps only the
    output block the product lands in (B B -> B; B I, I I, I B -> I), and
    every other block of a product is zero."""

    BB: np.ndarray  # c[B, B, B]
    BI: np.ndarray  # c[B, I, I]
    II: np.ndarray  # c[I, I, I]
    IB: np.ndarray  # c[I, B, I]

    @classmethod
    def of(cls, c: np.ndarray, B: slice, I: slice) -> StructureBlocks:
        return cls(c[B, B, B], c[B, I, I], c[I, I, I], c[I, B, I])


def _layout(first: Algebra, second: Algebra, phi: np.ndarray | None
            ) -> tuple[str, Algebra, slice, Algebra, slice]:
    """(kind, B, its slice, I, its slice) of the product on first (+) second:
    semidirect (B first) when phi is None, else ideal A first, a direct sum
    when phi is all zero and a lau product otherwise."""
    lead, tail = slice(0, first.dim), slice(first.dim, first.dim + second.dim)
    if phi is None:
        return "semidirect", first, lead, second, tail
    return ("lau" if np.any(phi) else "direct_sum"), second, tail, first, lead


@dataclass(eq=False)
class ProductDescriptor:
    """Provenance of a constructed product algebra.

    first/second are the parents in basis order (B, I for semidirect; A, B
    for lau and direct_sum); phi is the read-only (dim A, dim B) matrix of
    phi: B -> A, None on a semidirect product.  The rest is derived once
    from them: the kind, the distinguished subalgebra B and ideal I with
    their slices, and the four structure blocks of the product.
    """

    algebra: Algebra
    first: Algebra
    second: Algebra
    phi: np.ndarray | None = None
    contractive: bool = True
    kind: str = field(init=False)  # "semidirect" | "lau" | "direct_sum"
    subalgebra: Algebra = field(init=False, repr=False)
    subalgebra_slice: slice = field(init=False)
    ideal: Algebra = field(init=False, repr=False)
    ideal_slice: slice = field(init=False)
    block_tensors: StructureBlocks = field(init=False, repr=False)

    def __post_init__(self):
        (self.kind, self.subalgebra, self.subalgebra_slice, self.ideal,
         self.ideal_slice) = _layout(self.first, self.second, self.phi)
        self.block_tensors = StructureBlocks.of(
            self.algebra.structure, self.subalgebra_slice, self.ideal_slice)


def _assemble(first: Algebra, second: Algebra, action_bi: np.ndarray,
              action_ib: np.ndarray, tol: float, name: str, unit: np.ndarray | None = None,
              phi: np.ndarray | None = None, contractive: bool = True,
              force: bool = False) -> ProductDescriptor:
    """The product on first (+) second with phi (its kind, `_layout`) and the
    actions b.a (action_bi[j, i, :], in I) and a.b (action_ib[i, j, :], in I).

    The assembled tensor is validated once; mixed associativity of the actions
    is exactly its associativity.  force=True admits a submultiplicativity
    failure, the one a non-contractive phi causes, and nothing else.
    """
    kind, B, bsl, I, isl = _layout(first, second, phi)
    n = first.dim + second.dim
    c = np.zeros((n, n, n), dtype=complex)
    parts = (B.structure, action_bi, I.structure, action_ib)
    for block, part in zip(StructureBlocks.of(c, bsl, isl), parts):
        block[...] = part
    algebra = Algebra(name=name, weights=np.concatenate([first.weights, second.weights]),
                      structure=c, unit=unit)
    report = validate(algebra, tol)
    if not (report.accepted or (force and set(report.failures) <= {"submultiplicativity"})):
        raise InvalidActionError(
            f"assembled {kind} product fails validation: " + ", ".join(report.failures))
    return ProductDescriptor(algebra, first, second, phi, contractive)


def semidirect(B: Algebra, I: Algebra, action_bi: np.ndarray, action_ib: np.ndarray,
               tol: float = DEFAULT_TOL, name: str | None = None) -> ProductDescriptor:
    """Assemble B (+) I with product (b,a)(b',a') = (bb', aa' + ba' + ab').

    B (dim m) is the subalgebra and I (dim p) the ideal; the module actions are
    action_bi[j, i, :] = coefficients (in I) of e_j^B * e_i^I and
    action_ib[i, j, :] = coefficients (in I) of e_i^I * e_j^B.  A semidirect
    product is unital only in special cases, so no unit is derived.
    """
    m, p = B.dim, I.dim
    if np.shape(action_bi) != (m, p, p):
        raise ValueError(f"action_bi must have shape {(m, p, p)}")
    if np.shape(action_ib) != (p, m, p):
        raise ValueError(f"action_ib must have shape {(p, m, p)}")
    require_valid(B, tol)
    require_valid(I, tol)
    return _assemble(B, I, action_bi, action_ib, tol, name or f"{B.name}(+){I.name}")


def homomorphism_residual(P: np.ndarray, source: Algebra, target: Algebra) -> float:
    """max over basis pairs of ||P(e_i e_j) - P(e_i) P(e_j)|| in the target,
    for the (target dim, source dim) matrix P."""
    lhs = np.einsum("ijk,rk->ijr", source.structure, P)
    rhs = np.einsum("ai,bj,abr->ijr", P, P, target.structure)
    return float(np.max(np.abs(lhs - rhs) @ target.weights))


def lau_product(A: Algebra, B: Algebra, phi: np.ndarray, tol: float = DEFAULT_TOL,
                force: bool = False, name: str | None = None) -> ProductDescriptor:
    """A x_phi B: product (a,b)(a',b') = (aa' + phi(b)a' + a phi(b'), bb').

    phi, the (dim A, dim B) matrix of phi: B -> A, must be an algebra
    homomorphism with operator norm <= 1; another shape raises ValueError.
    force=True admits non-contractive phi (still an algebra); the descriptor
    records it as `contractive`, which a bundle stores so that reading it
    back passes force again.
    """
    require_valid(A, tol)
    require_valid(B, tol)
    phi = _readonly(np.array(phi, dtype=complex))
    if phi.shape != (A.dim, B.dim):
        raise ValueError(f"phi must map B into A: shape {phi.shape}, not {(A.dim, B.dim)}")
    residual = homomorphism_residual(phi, B, A)
    if residual > tol:
        raise NotHomomorphismError(
            f"phi is not an algebra homomorphism (residual {residual:.3e})"
        )
    norm = operator_norm(phi, B, A)
    contractive = norm <= 1.0 + tol
    if not contractive and not force:
        raise NotContractiveError(norm)
    unit = None
    if A.unit is not None and B.unit is not None:
        # (u_A - phi(u_B), u_B) is the unit when both parents are unital
        unit = np.concatenate([A.unit - phi @ B.unit, B.unit])
    return _assemble(
        A, B,
        np.einsum("kj,kir->jir", phi, A.structure),  # phi(b) a
        np.einsum("ikr,kj->ijr", A.structure, phi),  # a phi(b)
        tol, name or f"{A.name}x({B.name})", unit, phi, contractive, force)


def direct_sum(A: Algebra, B: Algebra, tol: float = DEFAULT_TOL) -> ProductDescriptor:
    return lau_product(A, B, np.zeros((A.dim, B.dim)), tol, name=f"{A.name}(+){B.name}")


@dataclass(eq=False)
class PhiIsomorphism:
    """Phi: A x_0 B -> A x_phi B, (a, b) -> (a - phi(b), b), as the read-only
    n x n matrix `forward`, its inverse `inverse`, the direct sum A x_0 B it
    starts from, and the certified bound ||Phi|| <= norm_bound = ||phi|| + 1."""

    forward: np.ndarray
    inverse: np.ndarray
    direct: ProductDescriptor
    norm_bound: float


def phi_isomorphism(lau: ProductDescriptor, tol: float = DEFAULT_TOL) -> PhiIsomorphism:
    """Phi for a lau product already built: only A (+) B, the two matrices
    and ||phi|| are new.  A direct sum is its own A (+) B (Phi is the
    identity), so `direct` is `lau` there.  Raises ConstructionError on a
    semidirect descriptor, which has no phi."""
    if lau.kind == "semidirect":
        raise ConstructionError("Phi needs a lau product or direct sum, not semidirect")
    direct = lau if lau.kind == "direct_sum" else direct_sum(lau.first, lau.second, tol)
    block = (lau.ideal_slice, lau.subalgebra_slice)
    fwd = np.eye(lau.algebra.dim, dtype=complex)
    fwd[block] = -lau.phi
    inv = np.eye(lau.algebra.dim, dtype=complex)
    inv[block] = lau.phi
    return PhiIsomorphism(_readonly(fwd), _readonly(inv), direct,
                          operator_norm(lau.phi, lau.subalgebra, lau.ideal) + 1.0)


def finite_abelian_group_algebra(orders: list[int], name: str | None = None) -> Algebra:
    """Convolution algebra l1(H) for H = Z_{orders[0]} x ... : delta_g * delta_h = delta_{g+h}.

    Element i is np.unravel_index(i, orders), so delta_0 = e_0 is the unit.
    Commutative, semisimple; all weights 1.
    """
    if not orders or any(o < 1 for o in orders):
        raise ValueError("orders must be a nonempty list of positive integers")
    dims = tuple(orders)
    n = int(np.prod(dims))
    g = np.unravel_index(np.arange(n), dims)
    k = np.ravel_multi_index(tuple(np.add.outer(x, x) % o for x, o in zip(g, dims)), dims)
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n)[:, None], np.arange(n), k] = 1.0
    return Algebra(
        name=name or "l1(Z" + "xZ".join(str(o) for o in orders) + ")",
        weights=np.ones(n),
        structure=c,
        unit=np.eye(1, n, dtype=complex)[0],  # delta_0
    )


def group_character_values(orders: list[int]) -> np.ndarray:
    """Closed-form character table of l1(H): rows chi_t, chi_t(delta_g) = prod exp(2pi i t.g/o)."""
    dims = tuple(orders)
    g = np.unravel_index(np.arange(int(np.prod(dims))), dims)
    return np.exp(2j * np.pi * sum(np.outer(x, x) / o for x, o in zip(g, dims)))


def ideal_span_rank(desc: ProductDescriptor) -> int:
    """rank of span{a * b : a in I-basis, b in B-basis} inside the ideal block."""
    return rank_basis(desc.block_tensors.IB.reshape(-1, desc.ideal.dim))[0]


def ideal_span_is_full(desc: ProductDescriptor) -> bool:
    return ideal_span_rank(desc) == desc.ideal.dim
