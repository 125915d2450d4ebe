"""K-duals: canonical construction, verification, and the full dual family.

A Bessel sequence G is a K-dual of F when ``K f = sum_i <f, g_i> P_{R(K)} f_i``
for all f; as matrices, K = P_{R(K)} T_F T_G*. Every K-frame has the canonical
K-dual

    ftilde_i = K* (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i,

and the complete family of K-duals is ``g_i = ftilde_i + phi* delta_i`` over
the maps phi (coefficient valued) with P_{R(K)} T_F phi = 0. Alongside the
constructions this module verifies the by-products: the lower bounds a dual
pair inherits, the reciprocal dual pair, the failure of dual-of-the-dual
recovery (unlike classical frames) and the minimal-norm property of the
canonical coefficients <f, ftilde_i>.

The restriction (S_F|_{R(K)})^-1 P_{S_F(R(K))} is applied in factored order on
the frame's one SVD T_F = U_r Sigma V_r* (``_restriction``), so
S_F = T_F T_F*, whose condition number is kappa(T_F)^2, is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InadmissiblePerturbation,
    NotADual,
    NotARepresentation,
    RankDeficientRestriction,
    ShapeMismatch,
)
from .frames import (
    Frame,
    _factored,
    _factors,
    _k_frame_hypothesis,
    _require_bounds,
    k_frame_check,
    optimal_bessel_bound,
)
from .linalg import (
    _SLACK,
    IDENTITY_TOL,
    CheckResult,
    OperatorEnv,
    _gate,
    _memo,
    _memoized_per_operator,
    _Restriction,
    _range_residual,
    _read_only,
    _require,
    _restricted_inverse,
    _Verdicts,
    _within,
    spectral_norm,
    svd_decompose,
)

__all__ = [
    "KDualCertificate",
    "BoundReport",
    "WitnessReport",
    "IdentityReport",
    "canonical_k_dual",
    "verify_k_dual",
    "k_dual_lower_bounds",
    "canonical_dual_bound_certificate",
    "dual_family_generate",
    "dual_family_recover_phi",
    "dual_family_member",
    "reciprocal_dual",
    "noncommutativity_witness",
    "minimal_norm_identity",
    "canonical_coefficients",
]


@dataclass(frozen=True)
class KDualCertificate(_Verdicts):
    """Verified (or failed) dual pair: the verdict ``identity`` on K = P_{R(K)} T_F T_G*.

    Its residual is the spectral norm of K - P_{R(K)} T_F T_G*; ``_Verdicts.passed`` iff
    ``identity`` holds. ``lower_bound_report`` carries the
    optimal lower K*-frame bound of G and the optimal lower K-frame bound of
    {P_{R(K)} f_i}, only from ``verify_k_dual`` on a passing pair; the constructions leave
    it None, and ``k_dual_lower_bounds`` computes them for any passing certificate.
    """

    frame: Frame
    dual: Frame
    env: OperatorEnv
    identity: CheckResult
    lower_bound_report: tuple[float, float] | None = None

    @property
    def residual(self) -> float:
        """The dual identity's residual, ``identity.residual``."""
        return self.identity.residual


def _restriction(f: Frame, env: OperatorEnv) -> _Restriction:
    """(S_F|_{R(K)})^-1 P_{S_F(R(K))} as a ``_Restriction`` with L = T_F, memoized per env.

    Its r x k operand B = Sigma^2 W, W = U_r* Q, is read off the frame's SVD, not off S_F Q.
    """

    def build():
        factors = _factors(f)
        w = factors.left_vectors.conj().T @ env.range_basis
        b = svd_decompose(factors.singular_values[: factors.rank, None] ** 2 * w)
        return _restricted_inverse(factors, b)

    return _memo(f, ("restriction", env), build)


def _coordinates(f: Frame, env: OperatorEnv) -> Frame:
    """{U_k* f_i}: {P_{R(K)} f_i} in R(K)'s coordinates (k x N), memoized per env."""
    return _memo(f, ("coordinates", env), lambda: f.map(env.range_basis.conj().T))


@_memoized_per_operator
def canonical_k_dual(
    f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> Frame:
    """Canonical K-dual {K* (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i}.

    Index order follows ``f`` (equal frame vectors yield equal duals). Built
    as (K* Q) B^+ Sigma V_r* = V_k (Sigma_k B^+ Sigma) V_r* with the k x r core as a
    frame, whose one SVD serves the dual's factors and its K*-frame check (on the core,
    ``k_frame_check``). Raises NotKFrame / ZeroOperator when ``f`` is not a K-frame
    (``_k_frame_hypothesis``); no A is computed, so none raises on over- or underflow.
    Memoized on ``f`` per (env, tol).
    """
    _k_frame_hypothesis(f, env, tol)
    core = env.factors.singular_values[: env.rank, None] * _restriction(f, env).coordinates()
    return _factored(env.corange_basis, Frame(core.T), _factors(f).right_vectors)


def verify_k_dual(
    f: Frame,
    g: Frame,
    env: OperatorEnv,
    tol: float = IDENTITY_TOL,
    with_lower_bounds: bool = True,
) -> KDualCertificate:
    """Certify the dual identity K = P_{R(K)} T_F T_G*, to ``tol`` |K|.

    The residual is |Sigma_k V_k* - (U_k* T_F) T_G*|: the same up to K - K V_k V_k*.
    """
    check = _gate(spectral_norm(_dual_residual(f, g, env)), env.norm(), tol)
    bounds = _lower_bounds(f, g, env, tol) if check.ok and with_lower_bounds else None
    return KDualCertificate(f, g, env, check, bounds)


def _dual_residual(f: Frame, g: Frame, env: OperatorEnv) -> np.ndarray:
    """(U_k* T_F) T_G* - Sigma_k V_k* (k x n, ``_range_residual``), once the sizes agree."""
    if f.size != g.size:
        raise ShapeMismatch(f"index counts differ: {f.size} vs {g.size}")
    if f.ambient_dim != g.ambient_dim or f.ambient_dim != env.dim:
        raise ShapeMismatch("ambient dimensions differ")
    return _range_residual(env, f.synthesis, g.analysis)


def _lower_bounds(f: Frame, g: Frame, env: OperatorEnv, tol: float) -> tuple[float, float]:
    """Optimal lower bounds of G against K* and of {P_{R(K)} f_i} against K.

    P T_F = U_k (U_k* T_F) and U_k* K = Sigma_k V_k*, so the second is exactly that
    of {U_k* f_i} against Sigma_k: an SVD of k x N, not n x N, with rank cutoff
    max(k, N), the same number as max(n, N) whenever N >= n. G and {U_k* f_i} then
    keep their own SVDs, like every frame whose bounds are checked; a G built on a core
    in R(K*) (``k_frame_check``) is checked as that core against Sigma_k in the same way.
    """
    dual = k_frame_check(g, env.adjoint(), tol).lower  # ZeroOperator at K = 0, before k = 0 rows
    return dual, k_frame_check(_coordinates(f, env), env.range_coordinates, tol).lower


def _require_k_dual(f: Frame, g: Frame, env: OperatorEnv, tol: float, what: str) -> None:
    """Raise NotADual, message prefix ``what``, unless ``g`` is a K-dual of ``f``: the gate
    of ``verify_k_dual``'s residual, decided Frobenius-first (``_within``)."""
    _within(_dual_residual(f, g, env), tol * env.norm(), NotADual, what + " (residual {:.3e})")


def k_dual_lower_bounds(
    cert: KDualCertificate, tol: float = IDENTITY_TOL
) -> tuple[float, float]:
    """Optimal lower bounds a dual pair inherits, checked against 1/B.

    For a K-dual G of F: G is a K*-frame with lower bound at least 1/B_F and
    {P_{R(K)} f_i} is a K-frame with lower bound at least 1/B_G, where B are
    the optimal Bessel bounds. Violation of either guarantee is an internal
    inconsistency.
    """
    _require(cert.identity, NotADual,
             "certificate failed (residual {:.3e}); lower bounds undefined")
    bounds = cert.lower_bound_report or _lower_bounds(cert.frame, cert.dual, cert.env, tol)
    guarantees = 1.0 / optimal_bessel_bound(cert.frame), 1.0 / optimal_bessel_bound(cert.dual)
    message = f"dual lower bounds fall below the 1/B guarantees: {bounds!r} vs {guarantees!r}"
    for guarantee, bound in zip(guarantees, bounds):
        _require(_gate(guarantee - bound, guarantee, _SLACK), InternalConsistencyError, message)
    return bounds


@dataclass(frozen=True)
class BoundReport(_Verdicts):
    """Canonical-dual bounds against the guaranteed envelope.

    For a K-frame with valid bounds (A, B) the canonical K-dual has lower
    K*-frame bound at least 1/B and Bessel bound at most B |K|^2 |Kdag|^4 / A^2.
    ``lower`` and ``upper`` carry each relative violation (negative: a margin);
    ``_Verdicts.passed`` when both hold.
    """

    envelope: tuple[float, float]
    observed: tuple[float, float]
    lower: CheckResult
    upper: CheckResult


def canonical_dual_bound_certificate(
    f: Frame,
    env: OperatorEnv,
    a: float,
    b: float,
    tol: float = IDENTITY_TOL,
) -> BoundReport:
    """Check the canonical dual's optimal bounds against the (A, B) envelope.

    Envelope of the Bessel bound: A K K* <= S_F compresses to R(K) as
    A |K^dagger|^-2 I <= A K K* <= S_F there, so the restriction
    S = S_F|_{R(K)} has |S^-1| <= |K^dagger|^2 / A. The canonical dual is
    T_Ftilde = K* S^-1 P_{S_F(R(K))} T_F, and since
    |P_{S_F(R(K))} T_F|^2 = |S_F|_{S_F(R(K))}| <= B, its Bessel bound is
    |T_Ftilde|^2 <= |K|^2 |S^-1|^2 B <= B (|K| |K^dagger| |K^dagger| / A)^2, of
    the Bessel bound's degree and evaluated in that order, so at any scale. It holds for
    K-frame bounds alone: ``frames._require_bounds`` refuses any other (a, b) first.
    """
    _require_bounds(f, env, a, b, tol)
    dual = canonical_k_dual(f, env, tol)
    envelope = (1.0 / b, b * (env.norm() * env.pinv_norm() * env.pinv_norm() / a) ** 2)
    observed = (k_frame_check(dual, env.adjoint(), tol).lower, optimal_bessel_bound(dual))
    return BoundReport(envelope, observed,
                       _gate((envelope[0] - observed[0]) / envelope[0], 1.0, _SLACK),
                       _gate((observed[1] - envelope[1]) / envelope[1], 1.0, _SLACK))


def _admissibility(
    f: Frame, env: OperatorEnv, phi, tol: float
) -> tuple[np.ndarray, float]:
    """U_k* T_F phi (of P_{R(K)} T_F phi's norm) and its scale |T_F| (|phi|_F + |T_Ftilde|_F).

    The scale holds the terms that cancel: a phi recovered from g = Ftilde is noise.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (f.size, f.ambient_dim):
        raise ShapeMismatch(f"phi must be {f.size} x {f.ambient_dim}, got {phi.shape}")
    dual = canonical_k_dual(f, env, tol)
    scale = f.norm() * float(np.linalg.norm(phi) + np.linalg.norm(dual.synthesis))
    return (env.range_basis.conj().T @ f.synthesis) @ phi, scale


def admissibility_violation(
    f: Frame, env: OperatorEnv, phi, tol: float = IDENTITY_TOL
) -> CheckResult:
    """Spectral norm of P_{R(K)} T_F phi (zero for admissible phi) against its threshold."""
    product, scale = _admissibility(f, env, phi, tol)
    return _gate(spectral_norm(product), scale, tol)


def dual_family_generate(
    f: Frame,
    env: OperatorEnv,
    phi,
    tol: float = IDENTITY_TOL,
) -> Frame:
    """Member g_i = ftilde_i + phi* delta_i of the K-dual family of ``f``, for an N x n phi.

    Admissibility is enforced, never silently projected: an inadmissible phi
    raises with the violation norm, past the threshold ``admissibility_violation`` reports.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    product, scale = _admissibility(f, env, phi, tol)
    _within(product, tol * scale, InadmissiblePerturbation,
            "P_R(K) T_F phi has norm {:.3e}")
    dual = canonical_k_dual(f, env, tol)
    return Frame((dual.synthesis + phi.conj().T).T)


def dual_family_recover_phi(
    f: Frame,
    g: Frame,
    env: OperatorEnv,
    tol: float = IDENTITY_TOL,
) -> np.ndarray:
    """Recover the family parameter of a verified dual: phi = T_g* - T_Ftilde*, read-only N x n.

    The closed form T_g* - T_F* ((S_F|_{R(K)})^-1)* K; regenerating with the
    result reproduces ``g`` and the result is always admissible.
    """
    _require_k_dual(f, g, env, tol, "g is not a K-dual of f at tolerance")
    dual = canonical_k_dual(f, env, tol)
    return _read_only(g.analysis - dual.analysis)


def dual_family_member(
    f: Frame, g: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> tuple[np.ndarray, CheckResult, CheckResult]:
    """(phi, ``admissibility_violation`` on it, round trip) for ``dual_family_recover_phi``'s
    phi: max |g'_ij - g_ij| against 1e-9 max |g_ij| for g' = ``dual_family_generate(phi)``."""
    phi = dual_family_recover_phi(f, g, env, tol)
    admissible = admissibility_violation(f, env, phi, tol)
    regenerated = dual_family_generate(f, env, phi, tol)
    round_trip = float(np.max(np.abs(regenerated.vectors - g.vectors)))
    return phi, admissible, _gate(round_trip, float(np.max(np.abs(g.vectors))), _SLACK)


def reciprocal_dual(
    f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> KDualCertificate:
    """Certify that {K* P_{R(K)} f_i} is a K-dual of {(S_F|_{R(K)})^-1 P f_i}.

    The certified identity is
    K f = sum_i <K f, P_{R(K)} f_i> P_{R(K)} (S_F|_{R(K)})^-1 P_{S_F(R(K))} f_i.
    F is tested by its inclusion alone (no A, none raised on over- or underflow); the
    pair's lower bounds come from ``k_dual_lower_bounds``.
    """
    _k_frame_hypothesis(f, env, tol)
    fac = _factors(f)
    coords = _restriction(f, env).coordinates()
    reduced = _factored(env.range_basis, Frame(coords.T), fac.right_vectors)
    # K* P_{R(K)} T_F = V_k (Sigma_k U_k* U_r Sigma) V_r*
    core = (env.range_factor.conj().T @ fac.left_vectors) * fac.singular_values[: fac.rank]
    companion = _factored(env.corange_basis, Frame(core.T), fac.right_vectors)
    return verify_k_dual(reduced, companion, env, tol, with_lower_bounds=False)


@dataclass(frozen=True)
class WitnessReport:
    """Result of the K/K*-exchanged canonical construction applied to Ftilde.

    ``images_of_frame`` holds W f_i for the witness operator
    W = K (S_Ftilde|_{R(K*)})^-1 P_{S_Ftilde(R(K*))}, compared against f_i in
    ``frame_discrepancies``; ``double_dual`` holds W ftilde_i (the exchanged
    construction applied to the dual's own vectors), whose distances to f_i in
    ``recovery_discrepancies`` decide the verdict ``recovery`` (their maximum is its
    residual). Classical frames (K = I) always recover; K-frames generally do not.
    """

    images_of_frame: np.ndarray
    frame_discrepancies: np.ndarray
    double_dual: np.ndarray
    recovery_discrepancies: np.ndarray
    recovery: CheckResult


def noncommutativity_witness(
    f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> WitnessReport:
    """Test whether the exchanged construction on Ftilde recovers F, to ``tol`` |T_F|."""
    dual = canonical_k_dual(f, env, tol)
    # Ftilde lies in R(K*) = span V_k: its memoized SVD T_Ftilde = U_g Sigma_g V_g* gives
    # G = V_k* T_Ftilde = (V_k* U_g) Sigma_g V_g* and, for Y = (V_k* U_g) Sigma_g^-1,
    # W = K V_k (G G*)^-1 V_k* = (U_k Sigma_k) Y Y* V_k*
    basis = env.corange_basis
    g = _factors(dual)
    if g.rank < env.rank:
        raise RankDeficientRestriction(f"S_Ftilde collapses R(K*): rank {g.rank} < {env.rank}")
    y = (basis.conj().T @ g.left_vectors) / g.singular_values[: g.rank]
    images = (env.range_factor @ (y @ (y.conj().T @ (basis.conj().T @ f.synthesis)))).T
    frame_disc = np.linalg.norm(images - f.vectors, axis=1)
    double_dual = (env.range_factor @ (y @ g.right_vectors.conj().T)).T
    recovery_disc = np.linalg.norm(double_dual - f.vectors, axis=1)
    return WitnessReport(images, frame_disc, double_dual, recovery_disc,
                         _gate(float(np.max(recovery_disc)), f.norm(), tol))


@dataclass(frozen=True)
class IdentityReport(_Verdicts):
    """Minimal-norm coefficient identity |c|^2 = |d|^2 + |c - d|^2: the verdict ``pythagoras``
    gates the two sides' difference against 1e-9 ``lhs`` = |c|^2.

    ``canonical`` holds d, the canonical coefficients <f, ftilde_i>; the verdict ``dual``
    gates the dual identity applied to the target, |P_{R(K)} T_F d - K target|.
    ``_Verdicts.passed`` when both hold.
    """

    lhs: float
    pythagoras: CheckResult
    dual: CheckResult
    canonical: np.ndarray


def _dual_identity(
    f: Frame, env: OperatorEnv, target: np.ndarray, d: np.ndarray, tol: float
) -> CheckResult:
    """|P_{R(K)} T_F d - K target| in R(K)'s coordinates, against ``tol`` times
    |K| |target| + |T_F| |d|: the dual identity applied to ``target``, which the
    construction of d shares nothing with.
    """
    achieved = env.range_basis.conj().T @ (f.synthesis @ d)
    residual = float(np.linalg.norm(env.corange_factor.conj().T @ target - achieved))
    scale = env.norm() * float(np.linalg.norm(target)) + f.norm() * float(np.linalg.norm(d))
    return _gate(residual, scale, tol)


def minimal_norm_identity(
    f: Frame,
    env: OperatorEnv,
    target: np.ndarray,
    coeffs: np.ndarray,
    tol: float = IDENTITY_TOL,
) -> IdentityReport:
    """Verify the Pythagorean split of any representation against d_i = <f, ftilde_i>.

    Requires T_F coeffs = T_F d (the representability hypothesis) to
    ``tol`` |T_F| (|coeffs| + |d|); raises NotARepresentation otherwise.
    d itself must pass ``_dual_identity`` to ``tol``.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if target.size != f.ambient_dim or coeffs.size != f.size:
        raise ShapeMismatch("target/coefficient sizes do not match the frame")
    dual = canonical_k_dual(f, env, tol)
    d = dual.analysis @ target
    _require(_gate(float(np.linalg.norm(f.synthesis @ (coeffs - d))),
                   f.norm() * float(np.linalg.norm(coeffs) + np.linalg.norm(d)), tol),
             NotARepresentation, "T_F c differs from T_F d by {:.3e}")
    lhs = float(np.sum(np.abs(coeffs) ** 2))
    rhs = float(np.sum(np.abs(d) ** 2) + np.sum(np.abs(coeffs - d) ** 2))
    identity = _gate(abs(lhs - rhs), lhs, _SLACK)
    return IdentityReport(lhs, identity, _dual_identity(f, env, target, d, tol), d)


def canonical_coefficients(
    f: Frame,
    env: OperatorEnv,
    target: np.ndarray,
    tol: float = IDENTITY_TOL,
) -> np.ndarray:
    """Canonical coefficients {<target, ftilde_i>}, read off the memoized dual.

    They must pass ``_dual_identity`` to 1e-9, else InternalConsistencyError.
    """
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if target.size != f.ambient_dim:
        raise ShapeMismatch("target size does not match the frame's ambient dimension")
    d = canonical_k_dual(f, env, tol).analysis @ target
    _require(_dual_identity(f, env, target, d, _SLACK), InternalConsistencyError,
             "canonical coefficients miss P_R(K) T_F d = K x by {:.3e}")
    return d
