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
through Phi from those spaces.  `check_bse_property` takes a character set
and a multiplier space already computed, and `verify_product_bse` the
product's space and characters, so that the harness computes one space and
one character set per fixture algebra; a verdict keeps no space.

A Lau product's characters are its semidirect E u F (ideal A, subalgebra
B), whose `psi_index` locates each phi_A o phi among the characters of B.
`split_sigma` splits sigma into (tau, rho), `theta` joins (tau, rho) back
into sigma, and `sigma_extension` builds (rho o psi, rho), all through that
one index; the first two return the three BSE functions and the slack
||tau|| + ||rho|| - ||sigma|| of one `SplitResult`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    is_without_order,
    rank_basis,
)
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
from .interpolation import GAP_REL, _dual, _primal
from .multipliers import MultiplierBasis, hat, multiplier_residual, multiplier_space
from .spectra import (
    CharacterSet,
    SemidirectCharacters,
    characters_numerical,
    characters_semidirect,
    gelfand,
)


class SemisimplicityWarning(UserWarning):
    """Raised as a warning when BSE machinery runs on a non-semisimple algebra."""


@dataclass(eq=False)
class BSEFunction:
    """A function on a finite character list with its BSE norm and witnesses.

    The norm is the contractual output; the minimizer is one interpolant
    attaining it, which need not be the only one.
    """

    characters: CharacterSet
    values: np.ndarray
    bse_norm: float
    minimizer: np.ndarray  # coefficient vector
    dual_certificate: np.ndarray
    gap: float
    method: str

    def interpolation_error(self) -> float:
        return float(
            np.max(np.abs(gelfand(self.minimizer, self.characters) - self.values),
                   initial=0.0)
        )

    def certificate_feasibility(self) -> float:
        """max_i |sum_j c_j phi_j(e_i)| / w_i; feasible when <= 1."""
        alg = self.characters.algebra
        f = self.characters.matrix.T @ self.dual_certificate
        return float(np.max(np.abs(f) / alg.weights))


@dataclass(eq=False)
class BaiCertificate:
    """Minimum-norm element with phi(e) = 1 on every character."""

    element: np.ndarray  # coefficient vector
    norm: float
    residual: float


def _check_charset(S: CharacterSet, algebra: Algebra):
    if len(S) == 0:
        raise EmptyCharacterSetError("no characters to interpolate on")
    if S.algebra is not algebra:
        raise ValueError("character set does not belong to the algebra")
    rank = S.rank()
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


def bse_norm_primal(values: np.ndarray, S: CharacterSet, algebra: Algebra,
                    gap_rel: float = GAP_REL) -> BSEFunction:
    """Minimum-norm interpolation route: ||sigma||_BSE = min{||a|| : a-hat = sigma}."""
    _check_charset(S, algebra)
    values = np.asarray(values, dtype=complex)
    if values.shape != (len(S),):
        raise ValueError(f"sigma must assign one value per character ({len(S)})")
    # _check_charset has decided the rank of this matrix; skip solve_primal's check
    sol = _primal(S.matrix, values, algebra.weights, gap_rel)
    return BSEFunction(
        characters=S,
        values=values,
        bse_norm=sol.value,
        minimizer=sol.a,
        dual_certificate=sol.c,
        gap=sol.gap,
        method=sol.method,
    )


def bse_norm_dual(values: np.ndarray, S: CharacterSet, algebra: Algebra,
                  gap_rel: float = GAP_REL) -> tuple[float | np.ndarray, np.ndarray]:
    """Dual route, straight from the defining inequality: the supremum of
    |sum_j c_j sigma(phi_j)| over coefficient vectors with dual norm <= 1.

    values of shape (|S|,) give the value (a float) and the certificate
    (|S|,); a stack of k sigmas, shape (k, |S|), gives (k,) values and
    (k, |S|) certificates from one cone loop, with S checked once.
    """
    _check_charset(S, algebra)
    values = np.asarray(values, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != len(S):
        raise ValueError(f"sigma must assign one value per character ({len(S)})")
    return _dual(S.matrix, values, algebra.weights, gap_rel)


def delta_weak_bai(algebra: Algebra, S: CharacterSet) -> BaiCertificate:
    """Minimum-norm e with phi(e) = 1 for every character phi.

    Always feasible (characters are linearly independent); the norm is the
    optimal bound for a character-wise approximate identity.
    """
    if len(S) == 0:
        raise EmptyCharacterSetError("cannot build an identity certificate")
    ones = np.ones(len(S), dtype=complex)
    fn = bse_norm_primal(ones, S, algebra)
    return BaiCertificate(
        element=fn.minimizer,
        norm=fn.bse_norm,
        residual=fn.interpolation_error(),
    )


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
    algebra: Algebra
    characters: CharacterSet
    is_bse: bool
    semisimple: bool
    gelfand_space_dim: int
    multiplier_hat_dim: int
    containment_m_in_c: float  # multiplier hats inside the interpolable functions
    containment_c_in_m: float  # and the reverse


def check_bse_property(algebra: Algebra, tol: float = DEFAULT_TOL,
                       S: CharacterSet | None = None,
                       mult: MultiplierBasis | None = None) -> BseVerdict:
    """Compare the interpolable functions on Delta(A) with the multiplier hats.

    The algebra must be without order (checked).  Verdict is true iff the two
    subspaces of functions on the characters coincide, each contained in the
    other up to tol.
    S defaults to the numerical character set and `mult` to the algebra's
    multiplier space; pass either to judge on one already computed.
    """
    if not is_without_order(algebra):
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
    m_space = _orthonormal_rows(hat(mult.stack, S, tol))
    res_m_in_c = _containment_residual(m_space, c_space)
    res_c_in_m = _containment_residual(c_space, m_space)
    return BseVerdict(
        algebra=algebra,
        characters=S,
        is_bse=res_m_in_c <= tol and res_c_in_m <= tol,
        semisimple=semisimple,
        gelfand_space_dim=c_space.shape[0],
        multiplier_hat_dim=m_space.shape[0],
        containment_m_in_c=res_m_in_c,
        containment_c_in_m=res_c_in_m,
    )


def _require_surjective(chars: SemidirectCharacters):
    if not chars.surjective():
        raise PhiNotSurjectiveError(
            "phi does not have dense range; composed characters are not in Delta(B)"
        )


@dataclass(eq=False)
class SplitResult:
    tau: BSEFunction
    rho: BSEFunction
    sigma: BSEFunction
    norm_slack: float  # ||tau|| + ||rho|| - ||sigma||, expected ~0


def _gamma(chars: SemidirectCharacters) -> np.ndarray:
    """Index into the subalgebra characters of each E row's psi (phi_A o phi
    on a lau product); every psi must be nonzero."""
    return np.array(chars.psi_index, dtype=int)


def _split_result(tau_values: np.ndarray, rho_values: np.ndarray,
                  sigma_values: np.ndarray, chars: SemidirectCharacters) -> SplitResult:
    desc = chars.descriptor
    tau = bse_norm_primal(tau_values, chars.ideal_chars, desc.ideal)
    rho = bse_norm_primal(rho_values, chars.subalgebra_chars, desc.subalgebra)
    sigma = bse_norm_primal(sigma_values, chars.set, desc.algebra)
    return SplitResult(
        tau=tau,
        rho=rho,
        sigma=sigma,
        norm_slack=tau.bse_norm + rho.bse_norm - sigma.bse_norm,
    )


def split_sigma(sigma_values: np.ndarray, chars: SemidirectCharacters) -> SplitResult:
    """tau(phi) = sigma(phi, phi o phi') - sigma(0, phi o phi'); rho(psi) = sigma(0, psi)."""
    _require_surjective(chars)
    sigma_values = np.asarray(sigma_values, dtype=complex)
    if sigma_values.shape != (len(chars.set),):
        raise ValueError("sigma must assign one value per product character")
    ec = chars.e_count
    rho_values = sigma_values[ec:]
    tau_values = sigma_values[:ec] - rho_values[_gamma(chars)]
    return _split_result(tau_values, rho_values, sigma_values, chars)


def theta(tau_values: np.ndarray, rho_values: np.ndarray,
          chars: SemidirectCharacters) -> SplitResult:
    """The pairing (tau, rho) -> sigma: sigma(phi, phi o phi') = tau(phi) +
    rho(phi o phi') and sigma(0, psi) = rho(psi).  It is isometric when the
    returned norm_slack ||tau|| + ||rho|| - ||sigma|| is 0; the product law
    is `theta_product_residual`."""
    _require_surjective(chars)
    tau_values = np.asarray(tau_values, dtype=complex)
    rho_values = np.asarray(rho_values, dtype=complex)
    sigma_values = np.concatenate([tau_values + rho_values[_gamma(chars)], rho_values])
    return _split_result(tau_values, rho_values, sigma_values, chars)


def theta_product_residual(chars: SemidirectCharacters,
                           tau1: np.ndarray, rho1: np.ndarray,
                           tau2: np.ndarray, rho2: np.ndarray) -> float:
    """Pointwise residual of the homomorphism law for the pairing.

    The pair product is (tau1 tau2 + phitilde(rho1) tau2 + tau1 phitilde(rho2),
    rho1 rho2); its image must match the pointwise product of the images.
    """
    _require_surjective(chars)
    g = _gamma(chars)
    t1, r1 = np.asarray(tau1, complex), np.asarray(rho1, complex)
    t2, r2 = np.asarray(tau2, complex), np.asarray(rho2, complex)
    pt1 = r1[g]  # phitilde(rho1) on Delta(A)
    pt2 = r2[g]
    tau_prod = t1 * t2 + pt1 * t2 + t1 * pt2
    rho_prod = r1 * r2

    def join_values(tv, rv):
        return np.concatenate([tv + rv[g], rv])

    lhs = join_values(tau_prod, rho_prod)
    rhs = join_values(t1, r1) * join_values(t2, r2)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


@dataclass(eq=False)
class ExtensionResult:
    sigma: BSEFunction
    rho: BSEFunction
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
    sigma_values = np.concatenate([rho_values[_gamma(sd)], rho_values])
    rho = bse_norm_primal(rho_values, sd.subalgebra_chars, B)
    sigma = bse_norm_primal(sigma_values, sd.set, desc.algebra)
    lifted = np.zeros(desc.algebra.dim, dtype=complex)
    lifted[desc.subalgebra_slice] = rho.minimizer
    werr = float(np.max(np.abs(gelfand(lifted, sd.set) - sigma_values), initial=0.0))
    return ExtensionResult(
        sigma=sigma,
        rho=rho,
        witness_error=werr,
        norm_slack=sigma.bse_norm - rho.bse_norm,
    )


@dataclass(eq=False)
class ProductBseReport:
    """One pass over A x_phi B and its direct sum A (+) B, joined by Phi."""

    descriptor: ProductDescriptor
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
    transport_membership: float
    transport_hat_residual: float

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
                       m_product: MultiplierBasis | None = None,
                       chars: SemidirectCharacters | None = None) -> ProductBseReport:
    """BSE verdicts for A, B, A x_phi B and A (+) B, plus the structural checks.

    Phi(a, b) = (a - phi(b), b) is built once on `desc` itself, and each of
    the four algebras gets one multiplier space, shared by its verdict and
    the checks: the direct sum's space must split blockwise as M(A) x M(B),
    and conjugation by Phi must carry the product's multipliers onto the
    direct sum's, with matching hats through the character pairing.  A direct sum (phi = 0) is
    its own direct sum, and Phi is the identity.  The product is judged on
    its closed-form characters `chars` and A, B on their parent sets; pass
    `m_product` or `chars` to reuse a space or character set already computed.
    """
    iso = phi_isomorphism(desc, tol)
    if chars is None:
        chars = characters_semidirect(desc, tol, cross_check=False)
    if m_product is None:
        m_product = multiplier_space(desc.algebra)
    ma, mb, md = (multiplier_space(alg)
                  for alg in (desc.first, desc.second, iso.direct.algebra))
    va = check_bse_property(desc.first, tol, chars.ideal_chars, ma)
    vb = check_bse_property(desc.second, tol, chars.subalgebra_chars, mb)
    vp = check_bse_property(desc.algebra, tol, chars.set, m_product)
    vd = check_bse_property(iso.direct.algebra, tol, mult=md)
    membership, hat_res = _transport_residuals(iso, m_product, chars, tol)
    return ProductBseReport(
        descriptor=desc,
        iso=iso,
        verdict_first=va,
        verdict_second=vb,
        verdict_product=vp,
        verdict_direct=vd,
        sum_block_dim_ok=md.dim == ma.dim + mb.dim,
        sum_block_residual=_block_split_residual(iso.direct, md),
        transport_dim_ok=m_product.dim == md.dim,
        transport_membership=membership,
        transport_hat_residual=hat_res,
    )


def _block_split_residual(direct: ProductDescriptor, md: MultiplierBasis) -> float:
    """Worst off-diagonal block, or diagonal block that is not a parent multiplier."""
    asl, bsl = direct.first_slice, direct.second_slice
    Ts = md.stack
    off = float(np.max(np.abs(Ts[:, asl, bsl]), initial=0.0))
    off = max(off, float(np.max(np.abs(Ts[:, bsl, asl]), initial=0.0)))
    # diagonal blocks must be multipliers of the parents
    return max(off, multiplier_residual(direct.first, Ts[:, asl, asl]),
               multiplier_residual(direct.second, Ts[:, bsl, bsl]))


def _transport_residuals(iso: PhiIsomorphism, m_lau: MultiplierBasis,
                         lau_chars: SemidirectCharacters, tol: float) -> tuple[float, float]:
    """Worst Phi^-1 T Phi multiplier residual on A (+) B, and worst hat mismatch."""
    sum_chars = characters_semidirect(iso.direct, tol, cross_check=False,
                                      ideal_chars=lau_chars.ideal_chars,
                                      subalgebra_chars=lau_chars.subalgebra_chars)
    Ts = m_lau.stack
    Ss = iso.inverse.matrix @ Ts @ iso.forward.matrix
    membership = multiplier_residual(iso.direct.algebra, Ss)
    # the character pairing fixes indices blockwise: E_k <-> E_k, F_j <-> F_j
    hat_res = np.abs(hat(Ts, lau_chars.set, tol) - hat(Ss, sum_chars.set, tol))
    return membership, float(np.max(hat_res, initial=0.0))
