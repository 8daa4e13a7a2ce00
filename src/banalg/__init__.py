"""banalg: a workbench for finite-dimensional commutative Banach algebras.

Constructs semidirect and phi-Lau product algebras, computes character
spaces, (left) multiplier algebras, and BSE norms, and machine-checks the
structural identities tying them together at desk scale.
"""

__version__ = "0.1.0"

from .algebra import (
    Algebra,
    ValidationReport,
    operator_norm,
    validate,
)
from .constructions import (
    PhiIsomorphism,
    ProductDescriptor,
    direct_sum,
    finite_abelian_group_algebra,
    lau_product,
    phi_isomorphism,
    semidirect,
)
from .spectra import (
    CharacterSet,
    characters_numerical,
    characters_semidirect,
    gelfand,
    psi_of,
)
from .multipliers import (
    BlockDecomposition,
    decompose_left_multiplier,
    hat,
    left_multiplier_space,
    multiplier_space,
    split_blocks,
)
from .bse import (
    bse_norm_dual,
    bse_norm_primal,
    check_bse_property,
    delta_weak_bai,
    sigma_extension,
    split_sigma,
    theta,
    verify_product_bse,
)
from .verify import Report, RunConfig, run_verify

__all__ = [
    "Algebra",
    "ValidationReport",
    "operator_norm",
    "validate",
    "PhiIsomorphism",
    "ProductDescriptor",
    "direct_sum",
    "finite_abelian_group_algebra",
    "lau_product",
    "phi_isomorphism",
    "semidirect",
    "CharacterSet",
    "characters_numerical",
    "characters_semidirect",
    "gelfand",
    "psi_of",
    "BlockDecomposition",
    "decompose_left_multiplier",
    "hat",
    "left_multiplier_space",
    "multiplier_space",
    "split_blocks",
    "bse_norm_dual",
    "bse_norm_primal",
    "check_bse_property",
    "delta_weak_bai",
    "sigma_extension",
    "split_sigma",
    "theta",
    "verify_product_bse",
    "Report",
    "RunConfig",
    "run_verify",
]
