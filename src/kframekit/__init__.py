"""Numerical toolkit for frames relative to an operator K.

Computes optimal K-frame bounds, canonical and general K-duals, frame
multipliers with their K-left/K-right inverses, and certifies the defining
identities on user-supplied and built-in instances. See the ``kframe`` CLI
for the batch front door.
"""

from .duality import (
    BoundReport,
    IdentityReport,
    KDualCertificate,
    WitnessReport,
    canonical_coefficients,
    canonical_dual_bound_certificate,
    canonical_k_dual,
    dual_family_generate,
    dual_family_recover_phi,
    k_dual_lower_bounds,
    minimal_norm_identity,
    noncommutativity_witness,
    reciprocal_dual,
    verify_k_dual,
)
from .errors import KFrameError
from .frames import (
    Frame,
    FrameBounds,
    bessel_as_k_frame,
    biorthogonal_sequence,
    k_frame_check,
    minimality_check,
    optimal_bessel_bound,
    tightness_check,
    validate_bounds,
)
from .linalg import (
    IDENTITY_TOL,
    CheckResult,
    OperatorEnv,
    SvdFactors,
    majorization_constant,
    svd_decompose,
)
from .multipliers import (
    Multiplier,
    MultiplierFactorization,
    Symbol,
    assemble_multiplier,
    biorthogonal_right_inverse,
    frames_from_multiplier_identity,
    inverse_as_multiplier,
    k_left_inverse,
    k_right_inverse,
    perturbation_condition,
    perturbation_k_dual,
    perturbation_right_inverse,
    range_inclusion_inverses,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)
from .worked import minimal_example, projection_example, reproduce_examples

__version__ = "1.0.0"

__all__ = [
    "BoundReport",
    "CheckResult",
    "Frame",
    "FrameBounds",
    "IDENTITY_TOL",
    "IdentityReport",
    "KDualCertificate",
    "KFrameError",
    "Multiplier",
    "MultiplierFactorization",
    "OperatorEnv",
    "SvdFactors",
    "Symbol",
    "WitnessReport",
    "assemble_multiplier",
    "bessel_as_k_frame",
    "biorthogonal_right_inverse",
    "biorthogonal_sequence",
    "canonical_coefficients",
    "canonical_dual_bound_certificate",
    "canonical_k_dual",
    "dual_family_generate",
    "dual_family_recover_phi",
    "frames_from_multiplier_identity",
    "inverse_as_multiplier",
    "k_dual_lower_bounds",
    "k_frame_check",
    "k_left_inverse",
    "k_right_inverse",
    "majorization_constant",
    "minimal_example",
    "minimal_norm_identity",
    "minimality_check",
    "noncommutativity_witness",
    "optimal_bessel_bound",
    "perturbation_condition",
    "perturbation_k_dual",
    "perturbation_right_inverse",
    "projection_example",
    "range_inclusion_inverses",
    "range_inclusion_left_inverse",
    "range_inclusion_right_inverse",
    "reciprocal_dual",
    "reproduce_examples",
    "svd_decompose",
    "tightness_check",
    "validate_bounds",
    "verify_k_dual",
]
