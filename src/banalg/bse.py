"""BSE norms, BSE-property verdicts, and the product-space function calculus.

On a finite character set the bounded nets defining the classical BSE space
collapse to single elements, so a function sigma on the characters lies in
the BSE space iff it is interpolated by an algebra element, and its BSE norm
equals the minimum weighted-l1 norm of an interpolant.  That reduction is
cross-validated throughout by the dual route, which evaluates the defining
inequality sup { |sum c_j sigma(phi_j)| : ||sum c_j phi_j||_dual <= 1 }
directly as a cone program with no interpolation step.

`verify_product_bse` checks that A x_phi B is BSE iff A and B are in one
pass: it builds Phi(a, b) = (a - phi(b), b) once on the product it is
given (only A (+) B is assembled anew), computes the multiplier
spaces of A, B, A x_phi B and A (+) B once each, and derives the four
verdicts, the block split M(A (+) B) = M(A) x M(B) and the transport
through Phi from those spaces (none on a direct sum, where Phi is the
identity).  Every verdict reads a closed-form or parent character set:
A (+) B gets its closed-form set on the parents' sets once (cross-checked
against its numerical set), and the transport check reads that same set.
`check_bse_property` takes a character set and a multiplier stack already
computed, and `verify_product_bse` the product's stack and characters, so
that the harness computes one space and one character set per fixture
algebra; a verdict keeps no space, and its character set holds each
character once, as a row of the set's matrix.  Whether an
algebra is without order is decided once per algebra (`Algebra.without_order`).

A Lau product's characters are its semidirect E u F (ideal A, subalgebra
B), whose `psi_index` locates each phi_A o phi among the characters of B.
One join sigma = (tau + rho o psi, rho) through that index serves
`split_sigma` (sigma to (tau, rho)), `theta` ((tau, rho) to sigma) and
`sigma_extension` (tau = 0); the first two return the three BSE functions
and the slack ||tau|| + ||rho|| - ||sigma||.  The product law of the join
is checked against the product's own multiplication, so it fails when
`psi_index` is wrong.  A BSE norm is its solve: both routes return the
solver's `InterpolationSolution`, whose `value` and interpolant `a` the
primal route reads and whose `dual_value` and certificate `c` the dual
route reads.  The norms and these maps take one function or a stack of k,
and every result keeps the stack's axis: on square E the primal solves the
stack with one factorization, and the dual in one cone loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, rank_basis
from .constructions import (
    PhiIsomorphism,
    ProductDescriptor,
    phi_isomorphism,
)
from .errors import (
    EmptyCharacterSetError,
    NotWithoutOrderError,
    PhiNotSurjectiveError,
    RankDeficientCharactersError,
    SpanConditionError,
)
from .interpolation import InterpolationSolution, _nonzero_cone, _primal
from .multipliers import hat, multiplier_residual, multiplier_space
from .spectra import (
    CharacterSet,
    SemidirectCharacters,
    characters_numerical,
    characters_semidirect,
    gelfand,
)


class SemisimplicityWarning(UserWarning):
    """Raised as a warning when BSE machinery runs on a non-semisimple algebra."""


def _check_charset(values: np.ndarray, S: CharacterSet, algebra: Algebra) -> np.ndarray:
    """values (|S|,) or (k, |S|) as an array, once S is checked."""
    if len(S) == 0:
        raise EmptyCharacterSetError("no characters to interpolate on")
    if S.algebra is not algebra:
        raise ValueError("character set does not belong to the algebra")
    rank = S.rank
    if rank < len(S):
        raise RankDeficientCharactersError(
            "character matrix is rank-deficient; the input set is inconsistent"
        )
    if rank < algebra.dim:
        warnings.warn(
            f"algebra {algebra.name!r} is not semisimple on the given characters; "
            "BSE results are outside the usual hypotheses",
            SemisimplicityWarning,
            stacklevel=3,
        )
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != len(S):
        raise ValueError(f"sigma must assign one value per character ({len(S)})")
    return values


def bse_norm_primal(values: np.ndarray, S: CharacterSet,
                    algebra: Algebra) -> InterpolationSolution:
    """Minimum-norm interpolation route: ||sigma||_BSE = min{||a|| : a-hat = sigma},
    for values (|S|,) or a stack (k, |S|).  The norm is the solution's
    `value`, and `a` one interpolant attaining it."""
    values = _check_charset(values, S, algebra)
    # _check_charset has decided the rank of this matrix; skip solve_primal's check
    return _primal(S.matrix, values, algebra.weights)


def bse_norm_dual(values: np.ndarray, S: CharacterSet,
                  algebra: Algebra) -> InterpolationSolution:
    """Dual route, straight from the defining inequality: the supremum of
    |sum_j c_j sigma(phi_j)| over coefficient vectors with dual norm <= 1.

    The norm is the solution's `dual_value` and `c` the certificate
    attaining it: a float and (|S|,) for values of shape (|S|,), and (k,)
    and (k, |S|) for a stack of k sigmas, from one cone loop with S checked
    once.
    """
    values = _check_charset(values, S, algebra)
    return _nonzero_cone(S.matrix, values, algebra.weights)


def delta_weak_bai(algebra: Algebra, S: CharacterSet) -> InterpolationSolution:
    """The BSE norm of sigma = 1: its interpolant `a` is a minimum-norm e
    with phi(e) = 1 for every character phi.

    Always feasible (characters are linearly independent); the norm is the
    optimal bound for a character-wise approximate identity.
    """
    return bse_norm_primal(np.ones(len(S), dtype=complex), S, algebra)


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the row space."""
    rank, vh = rank_basis(rows)
    return vh[:rank]


def _containment_residual(inner: np.ndarray, outer_basis: np.ndarray) -> float:
    """Worst relative projection residual of the inner rows onto the span of
    the orthonormal outer rows; zero rows count as contained."""
    resid = inner - inner @ outer_basis.conj().T @ outer_basis
    norms = np.linalg.norm(inner, axis=1)
    r = np.linalg.norm(resid, axis=1) / np.where(norms > 0, norms, 1.0)
    return float(np.max(r, initial=0.0))


@dataclass(eq=False)
class BseVerdict:
    characters: CharacterSet
    is_bse: bool
    semisimple: bool
    gelfand_space_dim: int
    multiplier_hat_dim: int
    containment_m_in_c: float  # multiplier hats inside the interpolable functions
    containment_c_in_m: float  # and the reverse


def check_bse_property(algebra: Algebra, tol: float = DEFAULT_TOL,
                       S: CharacterSet | None = None,
                       mult: np.ndarray | None = None) -> BseVerdict:
    """Compare the interpolable functions on Delta(A) with the multiplier hats.

    The algebra must be without order (checked).  Verdict is true iff the two
    subspaces of functions on the characters coincide, each contained in the
    other up to tol.
    S defaults to the numerical character set and `mult` to the stack of the
    algebra's multiplier space; pass either to judge on one already computed.
    """
    if not algebra.without_order:
        raise NotWithoutOrderError(
            f"algebra {algebra.name!r} has a nonzero annihilator"
        )
    if S is None:
        S = characters_numerical(algebra, tol)
    if len(S) == 0:
        raise EmptyCharacterSetError("no characters; BSE comparison is void")
    # interpolable functions: the image of the Gelfand map; its dimension is
    # the rank of the character matrix
    c_space = _orthonormal_rows(S.matrix.T)
    semisimple = c_space.shape[0] == algebra.dim
    if not semisimple:
        warnings.warn(
            f"algebra {algebra.name!r} is not semisimple; BSE verdict is outside "
            "the usual hypotheses",
            SemisimplicityWarning,
            stacklevel=2,
        )
    # multiplier hats
    if mult is None:
        mult = multiplier_space(algebra)
    m_space = _orthonormal_rows(hat(mult, S, tol))
    res_m_in_c = _containment_residual(m_space, c_space)
    res_c_in_m = _containment_residual(c_space, m_space)
    return BseVerdict(
        characters=S,
        is_bse=res_m_in_c <= tol and res_c_in_m <= tol,
        semisimple=semisimple,
        gelfand_space_dim=c_space.shape[0],
        multiplier_hat_dim=m_space.shape[0],
        containment_m_in_c=res_m_in_c,
        containment_c_in_m=res_c_in_m,
    )


def _require_surjective(chars: SemidirectCharacters):
    if not chars.surjective:
        raise PhiNotSurjectiveError(
            "phi does not have dense range; composed characters are not in Delta(B)"
        )


@dataclass(eq=False)
class SplitResult:
    """The functions tau, rho and sigma = (tau + rho o psi, rho), and the
    solve of each one's BSE norm."""

    tau_values: np.ndarray
    rho_values: np.ndarray
    sigma_values: np.ndarray
    tau: InterpolationSolution
    rho: InterpolationSolution
    sigma: InterpolationSolution
    norm_slack: float | np.ndarray  # ||tau|| + ||rho|| - ||sigma||, expected ~0


def _join(tau: np.ndarray, rho: np.ndarray, chars: SemidirectCharacters) -> np.ndarray:
    """sigma = (tau + rho o psi, rho) on E u F, for one pair or a stack; every
    psi (phi_A o phi on a lau product) must be nonzero."""
    return np.concatenate([tau + rho[..., chars.psi_index], rho], axis=-1)


def _split_result(tau_values: np.ndarray, rho_values: np.ndarray,
                  sigma_values: np.ndarray, chars: SemidirectCharacters) -> SplitResult:
    desc = chars.descriptor
    tau = bse_norm_primal(tau_values, chars.ideal_chars, desc.ideal)
    rho = bse_norm_primal(rho_values, chars.subalgebra_chars, desc.subalgebra)
    sigma = bse_norm_primal(sigma_values, chars.set, desc.algebra)
    return SplitResult(tau_values, rho_values, sigma_values, tau, rho, sigma,
                       tau.value + rho.value - sigma.value)


def split_sigma(sigma_values: np.ndarray, chars: SemidirectCharacters) -> SplitResult:
    """tau(phi) = sigma(phi, phi o phi') - sigma(0, phi o phi'); rho(psi) = sigma(0, psi),
    for one sigma or a stack."""
    _require_surjective(chars)
    sigma_values = np.asarray(sigma_values, dtype=complex)
    if sigma_values.ndim not in (1, 2) or sigma_values.shape[-1] != len(chars.set):
        raise ValueError("sigma must assign one value per product character")
    ec = chars.e_count
    rho_values = sigma_values[..., ec:]
    # what sigma keeps on E once rho's extension (rho o psi, rho) is taken off
    tau_values = (sigma_values - _join(0, rho_values, chars))[..., :ec]
    return _split_result(tau_values, rho_values, sigma_values, chars)


def theta(tau_values: np.ndarray, rho_values: np.ndarray,
          chars: SemidirectCharacters) -> SplitResult:
    """The pairing (tau, rho) -> sigma: sigma(phi, phi o phi') = tau(phi) +
    rho(phi o phi') and sigma(0, psi) = rho(psi).  It is isometric when the
    returned norm_slack ||tau|| + ||rho|| - ||sigma|| is 0; the product law
    is `theta_product_residual`.  One pair, or stacks of k tau and k rho."""
    _require_surjective(chars)
    tau_values = np.asarray(tau_values, dtype=complex)
    rho_values = np.asarray(rho_values, dtype=complex)
    return _split_result(tau_values, rho_values, _join(tau_values, rho_values, chars),
                         chars)


def theta_product_residual(chars: SemidirectCharacters,
                           tau1: np.ndarray, rho1: np.ndarray,
                           tau2: np.ndarray, rho2: np.ndarray) -> float:
    """Residual of the product law of the pairing, against the product's own
    multiplication.

    Interpolants a_k of tau_k on Delta(A) and b_k of rho_k on Delta(B) give
    (a_k, b_k) in A x_phi B, whose Gelfand transform is the pairing of
    (tau_k, rho_k) when psi_index is right; the transform of the product
    (a_1, b_1)(a_2, b_2) must then be the pointwise product of the pairings.
    Takes two pairs, or stacks of k pairs, and returns the worst residual.
    """
    _require_surjective(chars)
    desc = chars.descriptor
    t1, r1, t2, r2 = (np.asarray(v, complex) for v in (tau1, rho1, tau2, rho2))
    # one interpolation per parent, of both pairs' functions stacked
    a = bse_norm_primal(np.stack([t1, t2]).reshape(-1, t1.shape[-1]),
                        chars.ideal_chars, desc.ideal).a
    b = bse_norm_primal(np.stack([r1, r2]).reshape(-1, r1.shape[-1]),
                        chars.subalgebra_chars, desc.subalgebra).a
    x = np.zeros((len(a), desc.algebra.dim), dtype=complex)
    x[:, desc.ideal_slice] = a
    x[:, desc.subalgebra_slice] = b
    x1, x2 = x.reshape((2,) + t1.shape[:-1] + x.shape[-1:])
    product = np.einsum("...i,...j,ijk->...k", x1, x2, desc.algebra.structure)
    rhs = _join(t1, r1, chars) * _join(t2, r2, chars)
    return float(np.max(np.abs(gelfand(product, chars.set) - rhs), initial=0.0))


@dataclass(eq=False)
class ExtensionResult:
    sigma_values: np.ndarray  # (rho o psi, rho) on Delta(B (+) I)
    sigma: InterpolationSolution
    rho: InterpolationSolution
    witness_error: float  # how far the lifted interpolant (b, 0) misses sigma
    norm_slack: float  # ||sigma|| - ||rho||, expected <= ~0


def sigma_extension(rho_values: np.ndarray,
                    sd: SemidirectCharacters) -> ExtensionResult:
    """Extend rho on Delta(B) to sigma on Delta(B (+) I) via psi_phi.

    Needs the full span condition <IB> = I so every psi_phi is a genuine
    subalgebra character; the lifted minimizer (b, 0) witnesses
    ||sigma|| <= ||rho||.
    """
    desc = sd.descriptor
    if not sd.spans_full_ideal:
        raise SpanConditionError("<IB> is a proper subspace of the ideal")
    if any(ix is None for ix in sd.psi_index):
        raise SpanConditionError("some psi_phi vanished despite the span condition")
    rho_values = np.asarray(rho_values, dtype=complex)
    B = desc.subalgebra
    if rho_values.shape != (len(sd.subalgebra_chars),):
        raise ValueError("rho must assign one value per subalgebra character")
    sigma_values = _join(0, rho_values, sd)
    rho = bse_norm_primal(rho_values, sd.subalgebra_chars, B)
    sigma = bse_norm_primal(sigma_values, sd.set, desc.algebra)
    lifted = np.zeros(desc.algebra.dim, dtype=complex)
    lifted[desc.subalgebra_slice] = rho.a
    werr = float(np.max(np.abs(gelfand(lifted, sd.set) - sigma_values), initial=0.0))
    return ExtensionResult(
        sigma_values=sigma_values,
        sigma=sigma,
        rho=rho,
        witness_error=werr,
        norm_slack=sigma.value - rho.value,
    )


@dataclass(eq=False)
class ProductBseReport:
    """One pass over A x_phi B and its direct sum A (+) B, joined by Phi."""

    iso: PhiIsomorphism
    verdict_first: BseVerdict
    verdict_second: BseVerdict
    verdict_product: BseVerdict
    verdict_direct: BseVerdict
    # direct-sum block split of the multiplier space
    sum_block_dim_ok: bool
    sum_block_residual: float
    # lau-product transport through the algebra isomorphism
    transport_dim_ok: bool
    # None on a direct sum, where Phi is the identity
    transport_membership: float | None
    transport_hat_residual: float | None

    @property
    def biconditional_ok(self) -> bool:
        """A x_phi B is BSE iff A and B are."""
        return self.verdict_product.is_bse == (
            self.verdict_first.is_bse and self.verdict_second.is_bse)

    @property
    def sum_biconditional_ok(self) -> bool:
        """A (+) B is BSE iff A and B are."""
        return self.verdict_direct.is_bse == (
            self.verdict_first.is_bse and self.verdict_second.is_bse)


def verify_product_bse(desc: ProductDescriptor, tol: float = DEFAULT_TOL,
                       m_product: np.ndarray | None = None,
                       chars: SemidirectCharacters | None = None) -> ProductBseReport:
    """BSE verdicts for A, B, A x_phi B and A (+) B, plus the structural checks.

    Phi(a, b) = (a - phi(b), b) is built once on `desc` itself, and each of
    the four algebras gets one multiplier space, shared by its verdict and
    the checks: the direct sum's space must split blockwise as M(A) x M(B),
    and conjugation by Phi must carry the product's multipliers onto the
    direct sum's, with matching hats through the character pairing.  A
    direct sum (phi = 0) is its own A (+) B and Phi is the identity, so there
    A (+) B reads the product's space, set and verdict, and the transport
    residuals are None.  Every verdict reads a closed-form or parent set: the
    product its closed-form characters `chars`, A and B their parent sets,
    and A (+) B its closed-form set on the same parent sets, built once here
    and shared with the transport check; pass `m_product` (a stack of M(A
    x_phi B)) or `chars` to reuse a space or character set already computed.
    """
    iso = phi_isomorphism(desc, tol)
    if chars is None:
        chars = characters_semidirect(desc, tol)
    if m_product is None:
        m_product = multiplier_space(desc.algebra)
    ma, mb = (multiplier_space(alg) for alg in (desc.ideal, desc.subalgebra))
    va = check_bse_property(desc.ideal, tol, chars.ideal_chars, ma)
    vb = check_bse_property(desc.subalgebra, tol, chars.subalgebra_chars, mb)
    vp = check_bse_property(desc.algebra, tol, chars.set, m_product)
    if iso.direct is desc:  # a direct sum is its own A (+) B, and Phi is the identity
        md, vd = m_product, vp
        membership = hat_res = None
    else:
        sum_chars = characters_semidirect(iso.direct, tol, chars.ideal_chars,
                                          chars.subalgebra_chars)
        md = multiplier_space(iso.direct.algebra)
        vd = check_bse_property(iso.direct.algebra, tol, sum_chars.set, md)
        membership, hat_res = _transport_residuals(iso, m_product, chars.set,
                                                   sum_chars.set, tol)
    return ProductBseReport(
        iso=iso,
        verdict_first=va,
        verdict_second=vb,
        verdict_product=vp,
        verdict_direct=vd,
        sum_block_dim_ok=len(md) == len(ma) + len(mb),
        sum_block_residual=_block_split_residual(iso.direct, md),
        transport_dim_ok=len(m_product) == len(md),
        transport_membership=membership,
        transport_hat_residual=hat_res,
    )


def _block_split_residual(direct: ProductDescriptor, Ts: np.ndarray) -> float:
    """Worst off-diagonal block, or diagonal block that is not a parent
    multiplier, over the stack Ts of M(A (+) B)."""
    asl, bsl = direct.ideal_slice, direct.subalgebra_slice
    off = float(np.max(np.abs(Ts[:, asl, bsl]), initial=0.0))
    off = max(off, float(np.max(np.abs(Ts[:, bsl, asl]), initial=0.0)))
    # diagonal blocks must be multipliers of the parents
    return max(off, multiplier_residual(direct.ideal, Ts[:, asl, asl]),
               multiplier_residual(direct.subalgebra, Ts[:, bsl, bsl]))


def _transport_residuals(iso: PhiIsomorphism, Ts: np.ndarray,
                         lau_set: CharacterSet, sum_set: CharacterSet,
                         tol: float) -> tuple[float, float]:
    """Worst Phi^-1 T Phi multiplier residual on A (+) B over the stack Ts of
    M(A x_phi B), and worst hat mismatch between the closed-form sets of the
    two products on the same parent sets."""
    Ss = iso.inverse @ Ts @ iso.forward
    membership = multiplier_residual(iso.direct.algebra, Ss)
    # the character pairing fixes indices blockwise: E_k <-> E_k, F_j <-> F_j
    hat_res = np.abs(hat(Ts, lau_set, tol) - hat(Ss, sum_set, tol))
    return membership, float(np.max(hat_res, initial=0.0))
