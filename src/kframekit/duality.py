"""K-duals: canonical construction, verification, and the full dual family.

A Bessel sequence G is a K-dual of F when ``K f = sum_i <f, g_i> P_{R(K)} f_i``
for all f; as matrices, K = P_{R(K)} T_F T_G*. Every K-frame has the canonical
K-dual

    ftilde_i = K* (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i,

built from the frame operator's restricted inverse, and the complete family of
K-duals is ``g_i = ftilde_i + phi* delta_i`` over the maps phi (coefficient
valued) with P_{R(K)} T_F phi = 0. Alongside the constructions this module
verifies the by-products: the lower bounds a dual pair inherits, the
reciprocal dual pair, the failure of dual-of-the-dual recovery (unlike
classical frames), the minimal-norm property of the canonical coefficients
<f, ftilde_i>, and their pseudo-inverse closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InadmissiblePerturbation,
    InvalidBounds,
    NotADual,
    NotARepresentation,
    ShapeMismatch,
)
from .frames import (
    Frame,
    _synthesis_factors,
    k_frame_check,
    optimal_bessel_bound,
    validate_bounds,
)
from .linalg import (
    _SLACK,
    DEFAULT_POLICY,
    CheckResult,
    OperatorEnv,
    RestrictedMap,
    TolerancePolicy,
    _gate,
    _memoized_per_operator,
    _within,
    restricted_inverse,
    spectral_norm,
)

__all__ = [
    "KDualCertificate",
    "DualPerturbation",
    "BoundReport",
    "WitnessReport",
    "IdentityReport",
    "canonical_k_dual",
    "verify_k_dual",
    "k_dual_lower_bounds",
    "canonical_dual_bound_certificate",
    "dual_family_generate",
    "dual_family_recover_phi",
    "reciprocal_dual",
    "noncommutativity_witness",
    "minimal_norm_identity",
    "canonical_coefficients",
]


@dataclass(frozen=True)
class KDualCertificate:
    """Verified (or failed) dual pair with the operator-identity residual.

    ``residual`` is the spectral norm of K - P_{R(K)} T_F T_G*; the pair
    passes iff residual <= threshold. ``lower_bound_report`` carries the
    optimal lower K*-frame bound of G and the optimal lower K-frame bound of
    {P_{R(K)} f_i} (present only for passing certificates).
    """

    frame: Frame
    dual: Frame
    env: OperatorEnv
    residual: float
    threshold: float
    passed: bool
    lower_bound_report: tuple[float, float] | None = None


@_memoized_per_operator
def frame_restriction(f: Frame, env: OperatorEnv, policy: TolerancePolicy) -> RestrictedMap:
    """Inverse of S_F restricted to R(K), as a full-space matrix.

    The returned map annihilates S_F(R(K))-perp, so its matrix realizes
    (S_F|_{R(K)})^-1 P_{S_F(R(K))} in one piece. Memoized on ``f`` per
    (env, policy).
    """
    return restricted_inverse(f.frame_operator, env.range_k)


@_memoized_per_operator
def canonical_k_dual(
    f: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> Frame:
    """Canonical K-dual {K* (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i}.

    Index order follows ``f`` (equal frame vectors yield equal duals).
    Raises NotKFrame / ZeroOperator when ``f`` is not a K-frame. Memoized on
    ``f`` per (env, policy).
    """
    k_frame_check(f, env, policy)
    rmap = frame_restriction(f, env, policy)
    dual_syn = env.k_adjoint @ rmap.matrix @ f.synthesis
    return Frame(dual_syn.T)


def verify_k_dual(
    f: Frame,
    g: Frame,
    env: OperatorEnv,
    policy: TolerancePolicy = DEFAULT_POLICY,
    with_lower_bounds: bool = True,
) -> KDualCertificate:
    """Certify the dual identity K = P_{R(K)} T_F T_G*, to ``identity_tol`` |K|."""
    if f.size != g.size:
        raise ShapeMismatch(f"index counts differ: {f.size} vs {g.size}")
    if f.ambient_dim != g.ambient_dim or f.ambient_dim != env.dim:
        raise ShapeMismatch("ambient dimensions differ")
    achieved = env.proj_range_k @ f.synthesis @ g.analysis
    check = _gate(spectral_norm(env.k - achieved), env.norm(), policy.identity_tol)
    bounds = None
    if check.ok and with_lower_bounds:
        lb_dual = k_frame_check(g, env.adjoint(), policy).lower
        lb_projected = k_frame_check(f.map(env.proj_range_k), env, policy).lower
        bounds = (lb_dual, lb_projected)
    return KDualCertificate(f, g, env, check.residual, check.threshold, check.ok, bounds)


def _require_k_dual(
    f: Frame, g: Frame, env: OperatorEnv, policy: TolerancePolicy, what: str
) -> None:
    """Raise NotADual, message prefix ``what``, unless ``g`` is a K-dual of ``f``."""
    cert = verify_k_dual(f, g, env, policy, with_lower_bounds=False)
    if not cert.passed:
        raise NotADual(f"{what} (residual {cert.residual:.3e})", cert.residual)


def k_dual_lower_bounds(
    cert: KDualCertificate, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """Optimal lower bounds a dual pair inherits, checked against 1/B.

    For a K-dual G of F: G is a K*-frame with lower bound at least 1/B_F and
    {P_{R(K)} f_i} is a K-frame with lower bound at least 1/B_G, where B are
    the optimal Bessel bounds. Violation of either guarantee is an internal
    inconsistency.
    """
    if not cert.passed:
        raise NotADual(
            f"certificate failed (residual {cert.residual:.3e}); lower bounds undefined",
            cert.residual,
        )
    if cert.lower_bound_report is not None:
        lb_dual, lb_projected = cert.lower_bound_report
    else:
        lb_dual = k_frame_check(cert.dual, cert.env.adjoint(), policy).lower
        lb_projected = k_frame_check(cert.frame.map(cert.env.proj_range_k), cert.env, policy).lower
    guarantee_dual = 1.0 / optimal_bessel_bound(cert.frame)
    guarantee_projected = 1.0 / optimal_bessel_bound(cert.dual)
    if not (_gate(guarantee_dual - lb_dual, guarantee_dual, _SLACK)
            and _gate(guarantee_projected - lb_projected, guarantee_projected, _SLACK)):
        raise InternalConsistencyError(
            "dual lower bounds fall below the 1/B guarantees: "
            f"({lb_dual!r}, {lb_projected!r}) vs ({guarantee_dual!r}, {guarantee_projected!r})"
        )
    return (lb_dual, lb_projected)


@dataclass(frozen=True)
class BoundReport:
    """Canonical-dual bounds against the guaranteed envelope.

    For a K-frame with valid bounds (A, B) the canonical K-dual has lower
    K*-frame bound at least 1/B and Bessel bound at most B |K|^2 |Kdag|^4 / A^2.
    ``lower`` and ``upper`` carry each relative violation (negative: a margin).
    """

    envelope: tuple[float, float]
    observed: tuple[float, float]
    lower: CheckResult
    upper: CheckResult

    @property
    def passed(self) -> bool:
        return self.lower.ok and self.upper.ok


def canonical_dual_bound_certificate(
    f: Frame,
    env: OperatorEnv,
    a: float,
    b: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundReport:
    """Check the canonical dual's optimal bounds against the (A, B) envelope.

    Envelope of the Bessel bound: A K K* <= S_F compresses to R(K) as
    A |K^dagger|^-2 I <= A K K* <= S_F there, so the restriction
    S = S_F|_{R(K)} has |S^-1| <= |K^dagger|^2 / A. The canonical dual is
    T_Ftilde = K* S^-1 P_{S_F(R(K))} T_F, and since
    |P_{S_F(R(K))} T_F|^2 = |S_F|_{S_F(R(K))}| <= B, its Bessel bound is
    |T_Ftilde|^2 <= |K|^2 |S^-1|^2 B <= B |K|^2 |K^dagger|^4 / A^2, which
    has the degree of the Bessel bound, so it holds at any scale.
    """
    validation = validate_bounds(f, env, a, b, policy)
    if not validation.valid:
        raise InvalidBounds(
            f"({a}, {b}) is not a valid K-frame bound pair: slacks "
            f"({validation.lower_slack:.3e}, {validation.upper_slack:.3e})"
        )
    dual = canonical_k_dual(f, env, policy)
    envelope = (1.0 / b, b * env.norm() ** 2 * env.pinv_norm() ** 4 / a**2)
    observed = (k_frame_check(dual, env.adjoint(), policy).lower, optimal_bessel_bound(dual))
    return BoundReport(envelope, observed,
                       _gate((envelope[0] - observed[0]) / envelope[0], 1.0, _SLACK),
                       _gate((observed[1] - envelope[1]) / envelope[1], 1.0, _SLACK))


@dataclass(frozen=True)
class DualPerturbation:
    """Coefficient-valued map phi (N x n) parameterizing the dual family.

    Admissible iff P_{R(K)} T_F phi = 0; ``phi_adjoint`` has column i equal
    to phi* delta_i, the vector added to the canonical dual's i-th element.
    """

    phi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=np.complex128)
        if p.ndim != 2:
            raise ShapeMismatch(f"phi must be 2-d (N x n), got {p.shape}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "phi", p)

    @property
    def phi_adjoint(self) -> np.ndarray:
        return self.phi.conj().T

    @staticmethod
    def zero(size: int, ambient_dim: int) -> "DualPerturbation":
        return DualPerturbation(np.zeros((size, ambient_dim), dtype=np.complex128))


def _admissibility(
    f: Frame, env: OperatorEnv, pert: DualPerturbation, policy: TolerancePolicy
) -> tuple[np.ndarray, float]:
    """P_{R(K)} T_F phi and its scale |T_F| (|phi|_F + |T_Ftilde|_F).

    The scale holds the terms that cancel: a phi recovered from g = Ftilde is noise.
    """
    dual = canonical_k_dual(f, env, policy)
    scale = f.norm() * float(np.linalg.norm(pert.phi) + np.linalg.norm(dual.synthesis))
    return env.proj_range_k @ f.synthesis @ pert.phi, scale


def admissibility_violation(
    f: Frame, env: OperatorEnv, pert: DualPerturbation, policy: TolerancePolicy = DEFAULT_POLICY
) -> CheckResult:
    """Spectral norm of P_{R(K)} T_F phi (zero for admissible phi) against its threshold."""
    product, scale = _admissibility(f, env, pert, policy)
    return _gate(spectral_norm(product), scale, policy.identity_tol)


def dual_family_generate(
    f: Frame,
    env: OperatorEnv,
    pert: DualPerturbation,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Frame:
    """Member g_i = ftilde_i + phi* delta_i of the K-dual family of ``f``.

    Admissibility is enforced, never silently projected: an inadmissible phi
    raises with the violation norm, past the threshold ``admissibility_violation`` reports.
    """
    if pert.phi.shape != (f.size, f.ambient_dim):
        raise ShapeMismatch(
            f"phi must be {f.size} x {f.ambient_dim}, got {pert.phi.shape}"
        )
    product, scale = _admissibility(f, env, pert, policy)
    _within(product, policy.identity_tol * scale, InadmissiblePerturbation,
            "P_R(K) T_F phi has norm {:.3e}")
    dual = canonical_k_dual(f, env, policy)
    return Frame((dual.synthesis + pert.phi_adjoint).T)


def dual_family_recover_phi(
    f: Frame,
    g: Frame,
    env: OperatorEnv,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> DualPerturbation:
    """Recover the family parameter of a verified dual: phi = T_g* - T_Ftilde*.

    The closed form T_g* - T_F* ((S_F|_{R(K)})^-1)* K; regenerating with the
    result reproduces ``g`` and the result is always admissible.
    """
    _require_k_dual(f, g, env, policy, "g is not a K-dual of f at tolerance")
    dual = canonical_k_dual(f, env, policy)
    return DualPerturbation(g.analysis - dual.analysis)


def reciprocal_dual(
    f: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> KDualCertificate:
    """Certify that {K* P_{R(K)} f_i} is a K-dual of {(S_F|_{R(K)})^-1 P f_i}.

    The certified identity is
    K f = sum_i <K f, P_{R(K)} f_i> P_{R(K)} (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i.
    """
    k_frame_check(f, env, policy)
    rmap = frame_restriction(f, env, policy)
    reduced = Frame((rmap.matrix @ f.synthesis).T)
    companion = Frame((env.k_adjoint @ env.proj_range_k @ f.synthesis).T)
    return verify_k_dual(reduced, companion, env, policy)


@dataclass(frozen=True)
class WitnessReport:
    """Result of the K/K*-exchanged canonical construction applied to Ftilde.

    ``images_of_frame`` holds W f_i for the witness operator
    W = K (S_Ftilde|_{R(K*)})^-1 P_{S_Ftilde(R(K*))}, compared against f_i in
    ``frame_discrepancies``; ``double_dual`` holds W ftilde_i (the exchanged
    construction applied to the dual's own vectors), whose distances to f_i in
    ``recovery_discrepancies`` decide ``recovered``. Classical frames (K = I)
    always recover; K-frames generally do not.
    """

    images_of_frame: np.ndarray
    frame_discrepancies: np.ndarray
    double_dual: np.ndarray
    recovery_discrepancies: np.ndarray
    recovered: bool
    threshold: float


def noncommutativity_witness(
    f: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> WitnessReport:
    """Test whether the exchanged construction on Ftilde recovers F, to ``identity_tol`` |T_F|."""
    dual = canonical_k_dual(f, env, policy)
    rmap = frame_restriction(dual, env.adjoint(), policy)
    witness = env.k @ rmap.matrix
    images = (witness @ f.synthesis).T
    frame_disc = np.linalg.norm(images - f.vectors, axis=1)
    double_dual = (witness @ dual.synthesis).T
    recovery_disc = np.linalg.norm(double_dual - f.vectors, axis=1)
    check = _gate(float(np.max(recovery_disc)), f.norm(), policy.identity_tol)
    return WitnessReport(images, frame_disc, double_dual, recovery_disc, check.ok, check.threshold)


@dataclass(frozen=True)
class IdentityReport:
    """Minimal-norm coefficient identity |c|^2 = |d|^2 + |c - d|^2.

    ``d`` holds the canonical coefficients <f, ftilde_i>; ``matrix_residual``
    is the error of the closed form
    S_Ftilde = K* (S_F|)^-1 P S_F ((S_F|)^-1)* K against the assembled dual
    frame operator, gated at ``matrix_threshold``.
    """

    lhs: float
    rhs: float
    relative_error: float
    identity_ok: bool
    matrix_residual: float
    matrix_threshold: float
    matrix_ok: bool
    passed: bool
    canonical: np.ndarray


def minimal_norm_identity(
    f: Frame,
    env: OperatorEnv,
    target: np.ndarray,
    coeffs: np.ndarray,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> IdentityReport:
    """Verify the Pythagorean split of any representation against d_i = <f, ftilde_i>.

    Requires T_F coeffs = T_F d (the representability hypothesis) to
    ``identity_tol`` |T_F| (|coeffs| + |d|); raises NotARepresentation otherwise.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if target.size != f.ambient_dim or coeffs.size != f.size:
        raise ShapeMismatch("target/coefficient sizes do not match the frame")
    dual = canonical_k_dual(f, env, policy)
    d = dual.analysis @ target
    rep = _gate(float(np.linalg.norm(f.synthesis @ (coeffs - d))),
                f.norm() * float(np.linalg.norm(coeffs) + np.linalg.norm(d)), policy.identity_tol)
    if not rep:
        raise NotARepresentation(f"T_F c differs from T_F d by {rep.residual:.3e}", rep.residual)
    lhs = float(np.sum(np.abs(coeffs) ** 2))
    rhs = float(np.sum(np.abs(d) ** 2) + np.sum(np.abs(coeffs - d) ** 2))
    identity = _gate(abs(lhs - rhs), lhs, _SLACK)
    # for c = 0 the split holds only with d = 0; rel is then the absolute residual
    rel = identity.residual / lhs if lhs else identity.residual

    rmap = frame_restriction(f, env, policy)
    composed = (
        env.k_adjoint
        @ rmap.matrix
        @ f.frame_operator
        @ rmap.adjoint_matrix
        @ env.k
    )
    s_dual = dual.frame_operator
    matrix = _gate(spectral_norm(s_dual - composed), spectral_norm(s_dual), policy.identity_tol)
    return IdentityReport(lhs, rhs, rel, identity.ok, matrix.residual, matrix.threshold, matrix.ok,
                          identity.ok and matrix.ok, d)


def canonical_coefficients(
    f: Frame,
    env: OperatorEnv,
    target: np.ndarray,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Canonical coefficients via the pseudo-inverse closed form.

    Returns pinv(T_F) S_F ((S_F|_{R(K)})^-1)* K target and asserts it equals
    {<target, ftilde_i>} to 1e-9 |T_Ftilde|_F |target|.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if target.size != f.ambient_dim:
        raise ShapeMismatch("target size does not match the frame's ambient dimension")
    dual = canonical_k_dual(f, env, policy)
    rmap = frame_restriction(f, env, policy)
    coeffs = _synthesis_factors(f).solve(
        f.frame_operator @ rmap.adjoint_matrix @ env.k @ target
    )[0]
    direct = dual.analysis @ target
    check = _gate(float(np.linalg.norm(coeffs - direct)),
                  float(np.linalg.norm(dual.synthesis) * np.linalg.norm(target)), _SLACK)
    if not check:
        raise InternalConsistencyError(
            f"pseudo-inverse coefficients differ from <f, ftilde_i> by {check.residual:.3e}",
            check.residual,
        )
    return coeffs
