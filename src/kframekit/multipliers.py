"""Multipliers of frame pairs and their K-left / K-right inverses.

A multiplier combines two sequences Phi, Psi and a scalar symbol m into
``M f = sum_i m_i <f, psi_i> phi_i`` (as a matrix, T_Phi diag(m) T_Psi*),
with norm at most sqrt(B_Phi B_Psi) sup|m_i|. A K-right inverse R satisfies
M R = K, a K-left inverse L satisfies L M = K; R exists exactly when R(K)
is contained in R(M), which is also equivalent to K K* <= lambda^2 M M* for
some lambda.

Three construction families are implemented: expressing L K and K R
themselves as multipliers once a dual of the analysis-side frame is chosen,
inverting a multiplier on R(K) when Psi is a small perturbation of a K-frame
Phi (with a semi-normalized symbol), and the range-inclusion recipes that
produce a K-right inverse of M_{1,P_K Psi,Phi} or a K-left inverse of
M_{1,Psi,Phi} on R(K*) out of restricted inverses of the two frame operators.

Since M_{m,Phi,Psi}* = M_{mbar,Psi,Phi}, each K*-side construction is the
adjoint of its K-side twin, never a second copy: the K-left inverse, the
right side of ``inverse_as_multiplier`` and the K*-identity of
``biorthogonal_right_inverse``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .duality import _require_k_dual, canonical_k_dual, frame_restriction, verify_k_dual
from .errors import (
    ConditionViolated,
    HypothesisNotMet,
    InternalConsistencyError,
    InvalidBounds,
    NoLeftInverse,
    NoRightInverse,
    NotAnInverse,
    NotInvertible,
    NotSemiNormalized,
    RangeNotIncluded,
    RestrictionSingular,
    ShapeMismatch,
)
from .frames import (
    Frame,
    biorthogonal_sequence,
    k_frame_check,
    optimal_bessel_bound,
    validate_bounds,
)
from .linalg import (
    _SLACK,
    DEFAULT_POLICY,
    CheckResult,
    OperatorEnv,
    SvdFactors,
    TolerancePolicy,
    _douglas,
    _gate,
    _majorization,
    _memo,
    _memoized_per_operator,
    _read_only,
    _require_inclusion,
    _within,
    neumann_invertibility_margin,
    restricted_inverse,
    spectral_norm,
    svd_decompose,
)

__all__ = [
    "Symbol",
    "Multiplier",
    "RightInverse",
    "SideBound",
    "LowerBoundReport",
    "MultiplierFactorization",
    "BiorthogonalFactorization",
    "ConditionReport",
    "assemble_multiplier",
    "k_right_inverse",
    "k_left_inverse",
    "frames_from_multiplier_identity",
    "inverse_as_multiplier",
    "biorthogonal_right_inverse",
    "perturbation_condition",
    "perturbation_k_dual",
    "perturbation_right_inverse",
    "range_inclusion_right_inverse",
    "range_inclusion_left_inverse",
    "range_inclusion_inverses",
]


@dataclass(frozen=True)
class Symbol:
    """Finite scalar symbol, optionally with declared semi-normalization bounds.

    Declared bounds are validated against the recomputed moduli: a
    semi-normalized symbol needs 0 < lower <= |m_i| <= upper for every i.
    """

    values: np.ndarray
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if v.size == 0:
            raise ShapeMismatch("symbol must not be empty")
        if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
            raise NotSemiNormalized("symbol contains NaN or Inf")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if (self.lower is None) != (self.upper is None):
            raise NotSemiNormalized("declare both semi-normalization bounds or neither")
        if self.lower is not None:
            mods = np.abs(v)
            if not (0.0 < self.lower <= float(mods.min())) or float(mods.max()) > self.upper:
                raise NotSemiNormalized(
                    f"declared bounds ({self.lower}, {self.upper}) do not bracket "
                    f"the moduli [{mods.min():.6g}, {mods.max():.6g}]"
                )

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def sup_modulus(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def is_semi_normalized(self) -> bool:
        return self.lower is not None

    def conjugated(self) -> "Symbol":
        return Symbol(np.conj(self.values), self.lower, self.upper)

    @staticmethod
    def ones(n: int) -> "Symbol":
        return Symbol(np.ones(n), 1.0, 1.0)

    @staticmethod
    def semi_normalized(values) -> "Symbol":
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        mods = np.abs(v)
        if v.size == 0 or float(mods.min()) <= 0.0:
            raise NotSemiNormalized("a semi-normalized symbol needs strictly positive moduli")
        return Symbol(v, float(mods.min()), float(mods.max()))


@dataclass(frozen=True)
class Multiplier:
    """Assembled multiplier M_{m,Phi,Psi} with its dense matrix.

    One SVD of M is memoized on the value (the rank rule is fixed, and
    ``identity_tol`` does not enter an SVD); ``norm()`` and both K-inverses
    read it. The K-right and K-left inverses are memoized per (operator env,
    tolerance policy), like a frame's results.
    ``adjoint()`` is M* = M_{mbar,Psi,Phi}.
    """

    symbol: Symbol
    phi: Frame
    psi: Frame
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def _factors(self) -> SvdFactors:
        return _memo(self, "svd", lambda: svd_decompose(self.matrix))

    def norm(self) -> float:
        return float(self._factors().singular_values[0])

    def adjoint(self) -> "Multiplier":
        """M* = M_{mbar,Psi,Phi}, keeping M's memoized SVD as its adjoint.

        M's inverses do not apply to M* and are not copied; the adjoint holds
        no reference back to M.
        """
        adj = Multiplier(
            self.symbol.conjugated(), self.psi, self.phi, _read_only(self.matrix.conj().T)
        )
        factors = self._memo.get("svd")
        if factors is not None:
            adj._memo["svd"] = factors.adjoint()
        return adj

    def norm_bound(self) -> float:
        """The Bessel bound sqrt(B_Phi B_Psi) sup|m| on ``norm()``."""
        return float(
            np.sqrt(optimal_bessel_bound(self.phi) * optimal_bessel_bound(self.psi))
            * self.symbol.sup_modulus
        )

    def norm_bound_check(self) -> CheckResult:
        """The excess of ``norm()`` over ``norm_bound()``, against a slack relative to it."""
        bound = self.norm_bound()
        return _gate(max(0.0, self.norm() - bound), bound, DEFAULT_POLICY.identity_tol)


def assemble_multiplier(m: Symbol, phi: Frame, psi: Frame) -> Multiplier:
    """Build T_Phi diag(m) T_Psi* and assert the Bessel norm bound."""
    if not (m.size == phi.size == psi.size):
        raise ShapeMismatch(
            f"index counts differ: symbol {m.size}, phi {phi.size}, psi {psi.size}"
        )
    if phi.ambient_dim != psi.ambient_dim:
        raise ShapeMismatch("frames live in different ambient dimensions")
    mult = Multiplier(m, phi, psi, _read_only((phi.synthesis * m.values) @ psi.analysis))
    check = mult.norm_bound_check()
    if not check:
        raise InternalConsistencyError(
            f"multiplier norm {mult.norm()!r} exceeds sqrt(B_Phi B_Psi) sup|m| = "
            f"{mult.norm_bound()!r} by more than {check.threshold!r}", check.residual
        )
    return mult


def _multiplier_factors(mult: Multiplier, env: OperatorEnv) -> SvdFactors:
    """M's memoized SVD, once M and K are known to have equal sizes."""
    if env.dim != mult.matrix.shape[0]:
        raise ShapeMismatch(f"row counts differ: {env.dim} vs {mult.matrix.shape[0]}")
    return mult._factors()


@dataclass(frozen=True)
class RightInverse:
    """Minimal K-right inverse with the majorization constant of K against M."""

    matrix: np.ndarray
    majorization: float


@_memoized_per_operator
def k_right_inverse(
    mult: Multiplier, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> RightInverse:
    """R = pinv(M) K with M R = K; exists iff R(K) is contained in R(M).

    R is the minimal Douglas solution, so its norm is the majorization
    constant. Memoized on ``mult`` per (env, policy).
    """
    factors = _multiplier_factors(mult, env)
    norm_k = env.norm()
    _, r, core = _douglas(
        env.k, mult.matrix, factors, norm_k, policy, NoRightInverse, "R(K) not contained in R(M)"
    )
    return RightInverse(_read_only(r), _majorization(env.k, mult.matrix, factors, core))


@_memoized_per_operator
def k_left_inverse(
    mult: Multiplier, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """L = K pinv(M) with L M = K; exists iff R(K*) is contained in R(M*).

    L* is the minimal Douglas solution of M* L* = K*, solved on the
    adjoint of M's factors. Memoized on ``mult`` per (env, policy); the
    returned matrix is read-only.
    """
    factors = _multiplier_factors(mult, env).adjoint()
    left_adjoint = _douglas(
        env.k_adjoint, mult.matrix.conj().T, factors, env.norm(), policy,
        NoLeftInverse, "R(K*) not contained in R(M*)",
    )[1]
    return _read_only(left_adjoint.conj().T)


@dataclass(frozen=True)
class SideBound:
    guaranteed: float
    optimal: float
    ok: bool


@dataclass(frozen=True)
class LowerBoundReport:
    """Certified lower frame bounds extracted from a multiplier identity.

    Case "identity" (M = K): Phi is a K-frame with lower bound at least
    1/(sup|m|^2 B_Psi) and Psi a K*-frame with at least 1/(sup|m|^2 B_Phi).
    Case "inverse": with a K-right inverse R (resp. K-left inverse L) the
    guarantees carry |R|^2 (resp. |L|^2) in the denominator. Each guarantee
    is checked against the optimal bound.
    """

    case: str
    phi_side: SideBound | None
    psi_side: SideBound | None
    passed: bool


def frames_from_multiplier_identity(
    mult: Multiplier, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> LowerBoundReport:
    """Lower-bound certificates for Phi / Psi from M = K or from an inverse."""
    sup = mult.symbol.sup_modulus

    def side(frame: Frame, side_env: OperatorEnv, other: Frame, inverse_norm: float) -> SideBound:
        guaranteed = 1.0 / (sup**2 * inverse_norm**2 * optimal_bessel_bound(other))
        optimal = k_frame_check(frame, side_env, policy).lower
        return SideBound(guaranteed, optimal, _gate(guaranteed - optimal, guaranteed, _SLACK).ok)

    if _within(mult.matrix - env.k, policy.identity_tol * env.norm()):
        phi_side = side(mult.phi, env, mult.psi, 1.0)
        psi_side = side(mult.psi, env.adjoint(), mult.phi, 1.0)
        return LowerBoundReport("identity", phi_side, psi_side, phi_side.ok and psi_side.ok)

    try:
        phi_side = side(mult.phi, env, mult.psi, k_right_inverse(mult, env, policy).majorization)
    except NoRightInverse:
        phi_side = None
    try:
        psi_side = side(
            mult.psi, env.adjoint(), mult.phi, spectral_norm(k_left_inverse(mult, env, policy))
        )
    except NoLeftInverse:
        psi_side = None
    if phi_side is None and psi_side is None:
        raise HypothesisNotMet(
            "M differs from K and admits neither a K-right nor a K-left inverse"
        )
    passed = all(s.ok for s in (phi_side, psi_side) if s is not None)
    return LowerBoundReport("inverse", phi_side, psi_side, passed)


@dataclass(frozen=True)
class MultiplierFactorization:
    """Multiplier factors whose ordered product realizes ``target``.

    ``achieved`` is the product of the factor matrices left to right
    (times K* first for the left-inverse identity on R(K*));
    ``certificates`` carries named residuals of the intermediate claims.
    """

    factors: tuple[Multiplier, ...]
    target: np.ndarray
    achieved: np.ndarray
    residual: float
    threshold: float
    passed: bool
    certificates: dict[str, float] = field(default_factory=dict)

    def adjoint(self) -> "MultiplierFactorization":
        """The adjoint identity: adjoint factors reversed; norms and verdict carry over."""
        return MultiplierFactorization(
            tuple(factor.adjoint() for factor in reversed(self.factors)),
            self.target.conj().T, self.achieved.conj().T, self.residual, self.threshold,
            self.passed, dict(self.certificates),
        )


def inverse_as_multiplier(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    inverse: np.ndarray,
    side: str,
    dual_choice: Frame,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> MultiplierFactorization:
    """Express the composition of K with an inverse as a single multiplier.

    side="left": given a K-left inverse L of M_{1,P_K Phi,Psi} and a K-dual
    Phi-dag of Phi, the multiplier M_{1, L P_K Phi, Phi-dag} equals L K; along
    the way Psi is certified to be a K-dual of {L P_K phi_i}.

    side="right": given a K-right inverse R of M_{1,Phi,P_K* Psi} and a
    K*-dual Psi-dag of Psi, the multiplier M_{1, Psi-dag, R* P_K* Psi} equals
    the composition K R (apply R, then K); Phi is certified to be a K*-dual
    of {R* P_K* psi_i}. It is computed as the adjoint of the left side on
    (Psi, Phi, K*, R*). Certificates: ``inverse_residual``, ``dual_of_transported``.
    """
    if side == "right":
        return inverse_as_multiplier(
            psi, phi, env.adjoint(), np.conj(inverse).T, "left", dual_choice, policy
        ).adjoint()
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    inverse = np.asarray(inverse, dtype=np.complex128)
    ones = Symbol.ones(phi.size)
    base = assemble_multiplier(ones, phi.map(env.proj_range_k), psi)
    check = _gate(spectral_norm(inverse @ base.matrix - env.k), env.norm(), policy.identity_tol)
    if not check:
        raise NotAnInverse(f"inverse misses the projected multiplier identity by "
                           f"{check.residual:.3e}", check.residual)
    _require_k_dual(phi, dual_choice, env, policy, "dual_choice is not a dual of its frame")
    transported = phi.map(inverse @ env.proj_range_k)
    factor = assemble_multiplier(ones, transported, dual_choice)
    target = inverse @ env.k
    inter = verify_k_dual(transported, psi, env, policy, with_lower_bounds=False)
    out = _gate(spectral_norm(factor.matrix - target), spectral_norm(target), policy.identity_tol)
    return MultiplierFactorization(
        (factor,), target, factor.matrix, out.residual, out.threshold, out.ok and inter.passed,
        {"inverse_residual": check.residual, "dual_of_transported": inter.residual},
    )


@dataclass(frozen=True)
class BiorthogonalFactorization:
    """Multiplier pairs composing to K and to K*; ``mirrored`` is the adjoint of ``forward``."""

    forward: MultiplierFactorization
    mirrored: MultiplierFactorization
    passed: bool


def biorthogonal_right_inverse(
    phi: Frame, psi: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> BiorthogonalFactorization:
    """Invert M_{1,P_K Phi,Psi} through the biorthogonal sequence of Psi.

    Needs Phi a K-frame and Psi a minimal K*-frame. With G biorthogonal to
    Psi and Phi-tilde the canonical K-dual of Phi,
    M_{1,P_K Phi,Psi} M_{1,G,Phi-tilde} = K, and its adjoint
    M_{1,Phi-tilde,G} M_{1,Psi,P_K Phi} = K*.
    """
    k_frame_check(phi, env, policy)
    bio = biorthogonal_sequence(psi)
    k_frame_check(psi, env.adjoint(), policy)
    ones = Symbol.ones(phi.size)
    phi_tilde = canonical_k_dual(phi, env, policy)
    projected = phi.map(env.proj_range_k)

    analysis_side = assemble_multiplier(ones, projected, psi)
    synthesis_side = assemble_multiplier(ones, bio, phi_tilde)
    achieved = analysis_side.matrix @ synthesis_side.matrix
    check = _gate(spectral_norm(achieved - env.k), env.norm(), policy.identity_tol)
    forward = MultiplierFactorization(
        (analysis_side, synthesis_side), env.k, achieved, check.residual, check.threshold, check.ok
    )
    return BiorthogonalFactorization(forward, forward.adjoint(), forward.passed)


@dataclass(frozen=True)
class ConditionReport:
    """Perturbation smallness against the threshold a A / (b sqrt(B) |Kdag|^2)."""

    rho: float
    tau: float
    satisfied: bool


def perturbation_condition(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    a_bound: float,
    b_bound: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> ConditionReport:
    """Restricted perturbation norm rho of Psi against Phi on R(K), and tau.

    rho is the operator norm of f -> {<f, psi_i - phi_i>} on R(K); tau is
    a A / (b sqrt(B) |Kdag|^2) for the symbol bounds (a, b) and the validated
    K-frame bounds (A, B) of Phi.
    """
    if not m.is_semi_normalized:
        raise NotSemiNormalized("the perturbation theorem needs a semi-normalized symbol")
    if phi.size != psi.size or phi.ambient_dim != psi.ambient_dim:
        raise ShapeMismatch("Phi and Psi must share index count and ambient dimension")
    k_frame_check(phi, env, policy)
    validation = validate_bounds(phi, env, a_bound, b_bound, policy)
    if not validation.valid:
        raise InvalidBounds(
            f"({a_bound}, {b_bound}) is not a valid K-frame bound pair for Phi"
        )
    diff = psi.analysis - phi.analysis
    rho = spectral_norm(diff @ env.range_k.basis)
    tau = (m.lower * a_bound) / (m.upper * np.sqrt(b_bound) * env.pinv_norm() ** 2)
    return ConditionReport(rho, float(tau), bool(rho <= tau))


def _perturbed_restriction(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    bounds: tuple[float, float],
    policy: TolerancePolicy,
):
    """Shared setup: condition check, invertibility margin, restricted inverse."""
    cond = perturbation_condition(phi, psi, env, m, bounds[0], bounds[1], policy)
    if not cond.satisfied:
        raise ConditionViolated(
            f"perturbation norm {cond.rho:.6g} exceeds threshold {cond.tau:.6g}",
            cond.rho - cond.tau,
        )
    mult = assemble_multiplier(m, phi, psi)
    reference = (phi.synthesis * m.values) @ phi.analysis
    basis = env.range_k.basis
    try:
        report = neumann_invertibility_margin(reference @ basis, mult.matrix @ basis)
    except NotInvertible as exc:
        raise RestrictionSingular(
            f"the reference operator already collapses R(K): {exc}"
        ) from exc
    if not report.invertible:
        raise RestrictionSingular(
            f"M collapses R(K): perturbation distance {report.distance:.3e} "
            f"vs margin {report.margin:.3e}"
        )
    minv = restricted_inverse(mult.matrix, env.range_k)
    diagnostics = {"perturbation_rho": cond.rho, "perturbation_tau": cond.tau,
                   "margin": report.margin, "distance": report.distance}
    return mult, minv, diagnostics


def perturbation_k_dual(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    bounds: tuple[float, float],
    policy: TolerancePolicy = DEFAULT_POLICY,
):
    """K-dual of a perturbed sequence: {K* M^-1 P_{M(R(K))} m_i phi_i}.

    M = M_{m,Phi,Psi} is inverted as a bijection R(K) -> M(R(K)); for
    Psi = Phi and m = 1 the construction collapses to the canonical K-dual.
    Returns the verification certificate of the constructed dual against Psi.
    """
    mult, minv, _ = _perturbed_restriction(phi, psi, env, m, bounds, policy)
    dual_syn = env.k_adjoint @ minv.matrix @ (phi.synthesis * m.values)
    dual = Frame(dual_syn.T)
    return verify_k_dual(psi, dual, env, policy)


def perturbation_right_inverse(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    bounds: tuple[float, float],
    dual_choice: Frame,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> MultiplierFactorization:
    """K-right inverse R = (M^-1)* K of the reversed multiplier, as multipliers.

    R is realized as the multiplier M_{1, (M^-1)* P_K Phi, Phi-d} for any
    K-dual Phi-d of Phi, and M_{mbar, P_K Psi, Phi} R = K is certified (the
    reversed multiplier needs its output projected onto R(K); the projection
    is absorbed into the frame P_K Psi, keeping both factors multipliers).
    The multiplier form of R must match it to ``identity_tol`` |(M^-1)* K|_F.
    """
    mult, minv, diagnostics = _perturbed_restriction(phi, psi, env, m, bounds, policy)
    _require_k_dual(phi, dual_choice, env, policy, "dual_choice is not a K-dual of Phi")
    right = minv.adjoint_matrix @ env.k
    ones = Symbol.ones(phi.size)
    r_frame = phi.map(minv.adjoint_matrix @ env.proj_range_k)
    r_mult = assemble_multiplier(ones, r_frame, dual_choice)
    form = _gate(spectral_norm(r_mult.matrix - right), float(np.linalg.norm(right)),
                 policy.identity_tol)
    reversed_mult = assemble_multiplier(m.conjugated(), psi.map(env.proj_range_k), phi)
    achieved = reversed_mult.matrix @ r_mult.matrix
    check = _gate(spectral_norm(achieved - env.k), env.norm(), policy.identity_tol)
    certificates = dict(diagnostics)
    certificates["right_inverse_multiplier_form"] = form.residual
    return MultiplierFactorization(
        (reversed_mult, r_mult), env.k, achieved, check.residual, check.threshold,
        check.ok and form.ok, certificates,
    )


def range_inclusion_right_inverse(
    psi: Frame, phi: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> MultiplierFactorization:
    """K-right inverse of M_{1,P_K Psi,Phi} when R(T_Psi*) is in R(T_Phi* K*).

    The inverse is the multiplier M_{1,Phi-dag,Psi-tilde} with
    Phi-dag = {(S_Phi|_{R(K*)})^-1 P_{S_Phi(R(K*))} phi_i} and Psi-tilde the
    canonical K-dual of Psi; the certified identity is
    M_{1,P_K Psi,Phi} M_{1,Phi-dag,Psi-tilde} = K.
    """
    if psi.size != phi.size:
        raise ShapeMismatch("Psi and Phi must share a coefficient space")
    k_frame_check(psi, env, policy)
    k_frame_check(phi, env.adjoint(), policy)
    inclusion = _require_inclusion(
        psi.analysis, svd_decompose(phi.analysis @ env.k_adjoint), psi.norm(), policy,
        RangeNotIncluded, "R(T_Psi*) not contained in R(T_Phi* K*)",
    )
    ones = Symbol.ones(psi.size)
    phi_dag = phi.map(frame_restriction(phi, env.adjoint(), policy).matrix)
    psi_tilde = canonical_k_dual(psi, env, policy)
    left_factor = assemble_multiplier(ones, psi.map(env.proj_range_k), phi)
    right_factor = assemble_multiplier(ones, phi_dag, psi_tilde)
    achieved = left_factor.matrix @ right_factor.matrix
    check = _gate(spectral_norm(achieved - env.k), env.norm(), policy.identity_tol)
    return MultiplierFactorization(
        (left_factor, right_factor), env.k, achieved, check.residual, check.threshold,
        check.ok, {"inclusion_residual": inclusion.residual},
    )


def range_inclusion_left_inverse(
    psi: Frame, phi: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> MultiplierFactorization:
    """K-left inverse of M_{1,Psi,Phi} on R(K*) when R(T_Phi*) is in R(T_Psi* K).

    The inverse is M_{1,Phi-tilde,Psi-dag} with
    Psi-dag = {((S_Psi|_{R(K)})^-1)* P_K psi_i} and Phi-tilde the canonical
    K*-dual of Phi; the certified identity is
    M_{1,Phi-tilde,Psi-dag} M_{1,Psi,Phi} K* = K K*.
    """
    if psi.size != phi.size:
        raise ShapeMismatch("Psi and Phi must share a coefficient space")
    k_frame_check(psi, env, policy)
    k_frame_check(phi, env.adjoint(), policy)
    inclusion = _require_inclusion(
        phi.analysis, svd_decompose(psi.analysis @ env.k), phi.norm(), policy,
        RangeNotIncluded, "R(T_Phi*) not contained in R(T_Psi* K)",
    )
    ones = Symbol.ones(psi.size)
    psi_dag = psi.map(frame_restriction(psi, env, policy).adjoint_matrix @ env.proj_range_k)
    phi_tilde = canonical_k_dual(phi, env.adjoint(), policy)
    left_factor = assemble_multiplier(ones, phi_tilde, psi_dag)
    right_factor = assemble_multiplier(ones, psi, phi)
    achieved = left_factor.matrix @ right_factor.matrix @ env.k_adjoint
    target = env.k @ env.k_adjoint
    check = _gate(spectral_norm(achieved - target), env.norm() ** 2, policy.identity_tol)
    return MultiplierFactorization(
        (left_factor, right_factor), target, achieved, check.residual, check.threshold,
        check.ok, {"inclusion_residual": inclusion.residual},
    )


def range_inclusion_inverses(
    psi: Frame, phi: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[MultiplierFactorization, MultiplierFactorization]:
    """Both range-inclusion constructions (right-inverse case, left-inverse case)."""
    return (
        range_inclusion_right_inverse(psi, phi, env, policy),
        range_inclusion_left_inverse(psi, phi, env, policy),
    )
