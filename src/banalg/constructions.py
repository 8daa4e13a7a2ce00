"""Product constructions with provenance.

Two block conventions, fixed once to avoid index bugs:
  * semidirect product of subalgebra B and ideal I: B block first, pairs (b, a);
  * lau product of A and B along phi: B -> A: A block first, pairs (a, b);
    the A block is an ideal, the B block a subalgebra.
A direct sum is the lau product with phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    LinearMap,
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


@dataclass(eq=False)
class ProductDescriptor:
    """Provenance of a constructed product algebra.

    first/second are the parents in block order (B, I for semidirect;
    A, B for lau and direct_sum).
    """

    kind: str  # "semidirect" | "lau" | "direct_sum"
    algebra: Algebra
    first: Algebra
    second: Algebra
    phi: LinearMap | None = None
    contractive: bool = True

    @property
    def first_slice(self) -> slice:
        return slice(0, self.first.dim)

    @property
    def second_slice(self) -> slice:
        return slice(self.first.dim, self.first.dim + self.second.dim)

    @property
    def subalgebra_slice(self) -> slice:
        """Block of the distinguished closed subalgebra."""
        return self.first_slice if self.kind == "semidirect" else self.second_slice

    @property
    def ideal_slice(self) -> slice:
        """Block of the distinguished closed two-sided ideal."""
        return self.second_slice if self.kind == "semidirect" else self.first_slice

    @property
    def subalgebra(self) -> Algebra:
        return self.first if self.kind == "semidirect" else self.second

    @property
    def ideal(self) -> Algebra:
        return self.second if self.kind == "semidirect" else self.first


def semidirect(B: Algebra, I: Algebra, action_bi: np.ndarray, action_ib: np.ndarray,
               tol: float = DEFAULT_TOL, name: str | None = None) -> ProductDescriptor:
    """Assemble B (+) I with product (b,a)(b',a') = (bb', aa' + ba' + ab').

    B (dim m) is the subalgebra and I (dim p) the ideal; the module actions are
    action_bi[j, i, :] = coefficients (in I) of e_j^B * e_i^I and
    action_ib[i, j, :] = coefficients (in I) of e_i^I * e_j^B.
    The assembled structure tensor is validated; mixed associativity of the
    actions is exactly the associativity of the assembled tensor.
    """
    m, p = B.dim, I.dim
    if np.shape(action_bi) != (m, p, p):
        raise ValueError(f"action_bi must have shape {(m, p, p)}")
    if np.shape(action_ib) != (p, m, p):
        raise ValueError(f"action_ib must have shape {(p, m, p)}")
    require_valid(B, tol)
    require_valid(I, tol)
    n = m + p
    c = np.zeros((n, n, n), dtype=complex)
    c[:m, :m, :m] = B.structure
    c[m:, m:, m:] = I.structure
    c[:m, m:, m:] = action_bi
    c[m:, :m, m:] = action_ib
    weights = np.concatenate([B.weights, I.weights])
    unit = None  # a semidirect product is unital only in special cases; not derived here
    algebra = Algebra(
        name=name or f"{B.name}(+){I.name}",
        weights=weights,
        structure=c,
        unit=unit,
    )
    report = validate(algebra, tol)
    if not report.accepted:
        raise InvalidActionError(
            "assembled semidirect product fails validation: "
            + ", ".join(report.failures),
            report=report,
        )
    return ProductDescriptor(
        kind="semidirect",
        algebra=algebra,
        first=B,
        second=I,
    )


def homomorphism_residual(phi: LinearMap) -> float:
    """max over basis pairs of ||phi(e_i e_j) - phi(e_i) phi(e_j)|| in the target."""
    B, A, P = phi.source, phi.target, phi.matrix
    lhs = np.einsum("ijk,rk->ijr", B.structure, P)
    rhs = np.einsum("ai,bj,abr->ijr", P, P, A.structure)
    return float(np.max(np.abs(lhs - rhs) @ A.weights))


@dataclass
class HomomorphismReport:
    residual: float
    norm: float
    is_homomorphism: bool
    is_contractive: bool


def check_homomorphism(phi: LinearMap, tol: float = DEFAULT_TOL) -> HomomorphismReport:
    res = homomorphism_residual(phi)
    nrm = operator_norm(phi)
    return HomomorphismReport(
        residual=res,
        norm=nrm,
        is_homomorphism=res <= tol,
        is_contractive=nrm <= 1.0 + tol,
    )


def lau_product(A: Algebra, B: Algebra, phi: LinearMap, tol: float = DEFAULT_TOL,
                force: bool = False, name: str | None = None) -> ProductDescriptor:
    """A x_phi B: product (a,b)(a',b') = (aa' + phi(b)a' + a phi(b'), bb').

    phi: B -> A must be an algebra homomorphism with operator norm <= 1.
    force=True admits non-contractive phi (still an algebra); the descriptor
    records it so norm-sensitive checks downstream can be skipped.
    """
    require_valid(A, tol)
    require_valid(B, tol)
    if phi.source is not B or phi.target is not A:
        raise ValueError("phi must map B into A")
    report = check_homomorphism(phi, tol)
    if not report.is_homomorphism:
        raise NotHomomorphismError(
            f"phi is not an algebra homomorphism (residual {report.residual:.3e})"
        )
    if not report.is_contractive and not force:
        raise NotContractiveError(report.norm)

    nA, nB = A.dim, B.dim
    n = nA + nB
    c = np.zeros((n, n, n), dtype=complex)
    c[:nA, :nA, :nA] = A.structure
    c[nA:, nA:, nA:] = B.structure
    c[:nA, nA:, :nA] = np.einsum("ikr,kj->ijr", A.structure, phi.matrix)  # a phi(b)
    c[nA:, :nA, :nA] = np.einsum("kj,kir->jir", phi.matrix, A.structure)  # phi(b) a
    weights = np.concatenate([A.weights, B.weights])
    unit = None
    if A.unit is not None and B.unit is not None:
        # (u_A - phi(u_B), u_B) is the unit when both parents are unital
        cand = np.concatenate([A.unit - phi.matrix @ B.unit, B.unit])
        unit = cand
    algebra = Algebra(
        name=name or f"{A.name}x({B.name})",
        weights=weights,
        structure=c,
        unit=unit,
    )
    vrep = validate(algebra, tol)
    if not vrep.accepted:
        # a non-contractive phi only breaks submultiplicativity; under force
        # that is the one admissible failure
        if not (force and set(vrep.failures) <= {"submultiplicativity"}):
            raise InvalidActionError(
                "assembled lau product fails validation: " + ", ".join(vrep.failures),
                report=vrep,
            )
    kind = "direct_sum" if not np.any(phi.matrix) else "lau"
    return ProductDescriptor(
        kind=kind,
        algebra=algebra,
        first=A,
        second=B,
        phi=phi,
        contractive=report.is_contractive,
    )


def direct_sum(A: Algebra, B: Algebra, tol: float = DEFAULT_TOL) -> ProductDescriptor:
    zero = LinearMap(B, A, np.zeros((A.dim, B.dim), dtype=complex))
    return lau_product(A, B, zero, tol, name=f"{A.name}(+){B.name}")


@dataclass(eq=False)
class PhiIsomorphism:
    """Phi: A x_0 B -> A x_phi B, (a, b) -> (a - phi(b), b), with inverse."""

    forward: LinearMap
    inverse: LinearMap
    direct: ProductDescriptor
    lau: ProductDescriptor

    @property
    def norm_bound(self) -> float:
        """Certified bound ||Phi|| <= ||phi|| + 1."""
        return operator_norm(self.lau.phi) + 1.0


def phi_isomorphism(lau: ProductDescriptor, tol: float = DEFAULT_TOL) -> PhiIsomorphism:
    """Phi for a lau product already built: only A (+) B and the two matrices
    are new, and the returned `lau` is the descriptor passed in.  Raises
    ConstructionError on a semidirect descriptor, which has no phi."""
    if lau.kind == "semidirect":
        raise ConstructionError("Phi needs a lau product or direct sum, not semidirect")
    A, B, phi = lau.first, lau.second, lau.phi
    direct = direct_sum(A, B, tol)
    nA, nB = A.dim, B.dim
    n = nA + nB
    fwd = np.eye(n, dtype=complex)
    fwd[:nA, nA:] = -phi.matrix
    inv = np.eye(n, dtype=complex)
    inv[:nA, nA:] = phi.matrix
    return PhiIsomorphism(
        forward=LinearMap(direct.algebra, lau.algebra, fwd),
        inverse=LinearMap(lau.algebra, direct.algebra, inv),
        direct=direct,
        lau=lau,
    )


def finite_abelian_group_algebra(orders: list[int], name: str | None = None) -> Algebra:
    """Convolution algebra l1(H) for H = Z_{orders[0]} x ... : delta_g * delta_h = delta_{g+h}.

    Unital (delta_0), commutative, semisimple; all weights 1.
    """
    if not orders or any(o < 1 for o in orders):
        raise ValueError("orders must be a nonempty list of positive integers")
    dims = tuple(orders)
    n = int(np.prod(dims))
    index = {g: i for i, g in enumerate(np.ndindex(*dims))}
    c = np.zeros((n, n, n), dtype=complex)
    for g, i in index.items():
        for h, j in index.items():
            s = tuple((gg + hh) % o for gg, hh, o in zip(g, h, dims))
            c[i, j, index[s]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[index[tuple(0 for _ in dims)]] = 1.0
    return Algebra(
        name=name or "l1(Z" + "xZ".join(str(o) for o in orders) + ")",
        weights=np.ones(n),
        structure=c,
        unit=unit,
    )


def group_character_values(orders: list[int]) -> np.ndarray:
    """Closed-form character table of l1(H): rows chi_t, chi_t(delta_g) = prod exp(2pi i t.g/o)."""
    dims = tuple(orders)
    n = int(np.prod(dims))
    gs = list(np.ndindex(*dims))
    table = np.zeros((n, n), dtype=complex)
    for r, t in enumerate(gs):
        for s, g in enumerate(gs):
            phase = sum(tt * gg / o for tt, gg, o in zip(t, g, dims))
            table[r, s] = np.exp(2j * np.pi * phase)
    return table


def ideal_span_rank(desc: ProductDescriptor) -> int:
    """rank of span{a * b : a in I-basis, b in B-basis} inside the ideal block."""
    isl, bsl = desc.ideal_slice, desc.subalgebra_slice
    products = desc.algebra.structure[isl, bsl, isl].reshape(-1, desc.ideal.dim)
    return rank_basis(products)[0]


def ideal_span_is_full(desc: ProductDescriptor) -> bool:
    return ideal_span_rank(desc) == desc.ideal.dim
