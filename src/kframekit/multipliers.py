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

from dataclasses import dataclass, field, replace

import numpy as np

from .duality import (
    _coordinates,
    _require_k_dual,
    _restriction,
    canonical_k_dual,
    verify_k_dual,
)
from .errors import (
    ConditionViolated,
    HypothesisNotMet,
    InternalConsistencyError,
    NoLeftInverse,
    NoRightInverse,
    NotAnInverse,
    NotSemiNormalized,
    RangeNotIncluded,
    RankDeficientRestriction,
    RestrictionSingular,
    ShapeMismatch,
)
from .frames import (
    Frame,
    _factored,
    _factors,
    _k_frame_hypothesis,
    _require_bounds,
    biorthogonal_sequence,
    k_frame_check,
    optimal_bessel_bound,
)
from .linalg import (
    _SLACK,
    IDENTITY_TOL,
    CheckResult,
    OperatorEnv,
    SvdFactors,
    _divisible,
    _douglas,
    _gate,
    _inclusion,
    _majorization,
    _memo,
    _memoized_per_operator,
    _range_residual,
    _read_only,
    _require,
    _restricted_inverse,
    _threshold,
    _Verdicts,
    _within,
    range_identity_check,
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


@dataclass(frozen=True, eq=False)
class Symbol:
    """Finite scalar symbol, optionally with declared semi-normalization bounds.

    Declared bounds are validated against the recomputed moduli: a
    semi-normalized symbol needs 0 < lower <= |m_i| <= upper < inf for every i.
    A symbol memoizes the perturbed restriction built with it; no frame or env
    refers to a symbol, so that memo holds no reference back.
    """

    values: np.ndarray
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if v.size == 0:
            raise ShapeMismatch("symbol must not be empty")
        if not np.isfinite(v).all():
            raise NotSemiNormalized("symbol contains NaN or Inf")
        v = _read_only(v.copy())
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_memo", {})
        if (self.lower is None) != (self.upper is None):
            raise NotSemiNormalized("declare both semi-normalization bounds or neither")
        if self.lower is not None:
            mods = np.abs(v)
            if not (0.0 < self.lower <= float(mods.min()) and mods.max() <= self.upper < np.inf):
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


@dataclass(frozen=True, eq=False)
class Multiplier:
    """Assembled multiplier M_{m,Phi,Psi} with its dense matrix.

    Nothing is factored until it is asked for: the first call of ``norm()``,
    of a K-inverse or of ``norm_bound_check()`` takes M's one SVD, memoized on
    the value (the rank rule is fixed, and the tolerance does not enter an
    SVD), and only ``norm_bound()`` reads the frames' norms.
    The K-right and K-left inverses are memoized per (operator env,
    tolerance), like a frame's results.
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
        """The Bessel bound |T_Phi| |T_Psi| sup|m| = sqrt(B_Phi B_Psi) sup|m| on ``norm()``."""
        return self.phi.norm() * self.psi.norm() * self.symbol.sup_modulus

    def norm_bound_check(self, tol: float = IDENTITY_TOL) -> CheckResult:
        """The excess of ``norm()`` over ``norm_bound()``, against ``tol`` times it.

        The bound holds for every M by submultiplicativity, so a failure means M's
        SVD or a frame's disagrees with the matrices (InternalConsistencyError); on request.
        """
        bound = self.norm_bound()
        return _require(_gate(max(0.0, self.norm() - bound), bound, tol), InternalConsistencyError,
                        f"multiplier norm {self.norm()!r} exceeds sqrt(B_Phi B_Psi) sup|m| = "
                        f"{bound!r} by more than {{1!r}}")


def assemble_multiplier(m: Symbol, phi: Frame, psi: Frame) -> Multiplier:
    """T_Phi diag(m) T_Psi* once the index counts and ambient dimensions agree.

    Factors nothing: the Bessel bound holds for every multiplier by
    submultiplicativity, and ``Multiplier.norm_bound_check`` tests it on request.
    """
    if not (m.size == phi.size == psi.size):
        raise ShapeMismatch(
            f"index counts differ: symbol {m.size}, phi {phi.size}, psi {psi.size}"
        )
    if phi.ambient_dim != psi.ambient_dim:
        raise ShapeMismatch("frames live in different ambient dimensions")
    return Multiplier(m, phi, psi, _read_only((phi.synthesis * m.values) @ psi.analysis))


def _projected(f: Frame, env: OperatorEnv) -> Frame:
    """{P_{R(K)} f_i} = U_k (U_k* T_F), U_k = ``env.range_basis``, lifting the SVD of
    the memoized k x N coordinates frame {U_k* f_i} (``_coordinates``)."""
    return _factored(env.range_basis, _coordinates(f, env), None)


def _multiplier_factors(mult: Multiplier, env: OperatorEnv) -> SvdFactors:
    """M's memoized SVD, once M and K have equal sizes; FloatingPointError if M's least kept
    singular value (``SvdFactors.solve`` divides by it) is subnormal or M = 0 by underflow."""
    if env.dim != mult.matrix.shape[0]:
        raise ShapeMismatch(f"row counts differ: {env.dim} vs {mult.matrix.shape[0]}")
    factors = mult._factors()
    top = [float(np.abs(a).max()) for a in (mult.phi.vectors, mult.symbol.values, mult.psi.vectors)]
    if factors.rank == 0 and min(top) > 0.0 and top[0] * top[1] * top[2] < np.finfo(float).tiny:
        raise FloatingPointError(f"M underflows to 0: its factors' largest entries are {top}")
    return _divisible(factors, "the least kept singular value of M")


@dataclass(frozen=True, eq=False)
class RightInverse:
    """Minimal K-right inverse M^+ K with the majorization constant of K against M,
    lambda = |M^+ K V_k|, read on K's range factor K V_k (``k_right_inverse``)."""

    matrix: np.ndarray
    majorization: float


@_memoized_per_operator
def k_right_inverse(
    mult: Multiplier, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> RightInverse:
    """R = pinv(M) K with M R = K; exists iff R(K) is contained in R(M).

    R is the minimal Douglas solution, so its norm is the majorization constant. As in
    ``k_frame_check``, the Douglas pass (inclusion, residual gate, lambda's core) and
    lambda's two certificates take L1 = K V_k (``env.range_factor``, n x k), dropping only
    K - K V_k V_k* (``OperatorEnv``). Memoized on ``mult`` per (env, tol).
    """
    factors = _multiplier_factors(mult, env)
    a = env.range_factor
    _, _, core, residual = _douglas(a, mult.matrix, factors, env.norm(), tol,
                                    NoRightInverse, "R(K) not contained in R(M)")
    return RightInverse(_read_only(factors.solve(env.k)[0]),
                        _majorization(a, mult.matrix, factors, core, residual)[0])


@_memoized_per_operator
def k_left_inverse(
    mult: Multiplier, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> np.ndarray:
    """L = K pinv(M) with L M = K; exists iff R(K*) is contained in R(M*).

    L* is the minimal Douglas solution of M* L* = K*, solved on the
    adjoint of M's factors. Memoized on ``mult`` per (env, tol); the
    returned matrix is read-only.
    """
    factors = _multiplier_factors(mult, env).adjoint()
    left_adjoint = _douglas(
        env.k_adjoint, mult.matrix.conj().T, factors, env.norm(), tol,
        NoLeftInverse, "R(K*) not contained in R(M*)",
    )[1]
    return _read_only(left_adjoint.conj().T)


@dataclass(frozen=True)
class SideBound(_Verdicts):
    """The verdict ``bound`` (``_Verdicts.passed``): the ``optimal`` lower bound is at least
    the ``guaranteed`` one."""

    guaranteed: float
    optimal: float
    bound: CheckResult


@dataclass(frozen=True)
class LowerBoundReport(_Verdicts):
    """Certified lower frame bounds extracted from a multiplier identity.

    Case "identity" (M = K): Phi is a K-frame with lower bound at least
    1/(sup|m|^2 B_Psi) and Psi a K*-frame with at least 1/(sup|m|^2 B_Phi).
    Case "inverse": with a K-right inverse R (resp. K-left inverse L) the
    guarantees carry |R|^2 (resp. |L|^2) in the denominator. Each guarantee
    is checked against the optimal bound; ``_Verdicts.passed`` when every present side's holds.
    """

    case: str
    phi_side: SideBound | None
    psi_side: SideBound | None


def frames_from_multiplier_identity(
    mult: Multiplier, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> LowerBoundReport:
    """Lower-bound certificates for Phi / Psi from M = K or from an inverse.

    |R| is ``k_right_inverse``'s lambda and |L| is read as |U_k* L| (k x n): L = K pinv(M)
    maps into R(K) but for K - K V_k V_k*, of norm sigma_{k+1} (``OperatorEnv``).
    """
    sup = mult.symbol.sup_modulus

    def side(frame: Frame, side_env: OperatorEnv, other: Frame, inverse_norm: float) -> SideBound:
        optimal = k_frame_check(frame, side_env, tol).lower
        guaranteed = 1.0 / (sup**2 * inverse_norm**2 * optimal_bessel_bound(other))
        return SideBound(guaranteed, optimal, _gate(guaranteed - optimal, guaranteed, _SLACK))

    if _within(mult.matrix - env.k, _threshold(tol, env.norm())):
        return LowerBoundReport("identity", side(mult.phi, env, mult.psi, 1.0),
                                side(mult.psi, env.adjoint(), mult.phi, 1.0))

    try:
        phi_side = side(mult.phi, env, mult.psi, k_right_inverse(mult, env, tol).majorization)
    except NoRightInverse:
        phi_side = None
    try:
        left = env.range_basis.conj().T @ k_left_inverse(mult, env, tol)
        psi_side = side(mult.psi, env.adjoint(), mult.phi, spectral_norm(left))
    except NoLeftInverse:
        psi_side = None
    if phi_side is None and psi_side is None:
        raise HypothesisNotMet(
            "M differs from K and admits neither a K-right nor a K-left inverse"
        )
    return LowerBoundReport("inverse", phi_side, psi_side)


@dataclass(frozen=True, eq=False)
class MultiplierFactorization(_Verdicts):
    """Multiplier factors whose ordered product realizes ``target``.

    ``achieved`` is the product of the factor matrices left to right
    (times K* first for the left-inverse identity on R(K*)); the verdict ``identity``
    gates |achieved - target|, read on K's rank-k coordinates on the side where the identity
    puts P_K, K or K* (``_range_residual``). ``certificates`` holds the verdicts of the
    intermediate claims by name, ``diagnostics`` plain numbers; ``_Verdicts.passed`` when
    all hold.
    """

    factors: tuple[Multiplier, ...]
    target: np.ndarray
    achieved: np.ndarray
    identity: CheckResult
    certificates: dict[str, CheckResult] = field(default_factory=dict)
    diagnostics: dict[str, float] = field(default_factory=dict)

    def adjoint(self) -> "MultiplierFactorization":
        """The adjoint identity: adjoint factors reversed; norms and verdicts carry over."""
        return replace(self, factors=tuple(factor.adjoint() for factor in reversed(self.factors)),
                       target=self.target.conj().T, achieved=self.achieved.conj().T)


def inverse_as_multiplier(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    inverse: np.ndarray,
    side: str,
    dual_choice: Frame,
    tol: float = IDENTITY_TOL,
) -> MultiplierFactorization:
    """Express the composition of K with an inverse as a single multiplier.

    side="left": given a K-left inverse L of M_{1,P_K Phi,Psi} and a K-dual
    Phi-dag of Phi, the multiplier M_{1, L P_K Phi, Phi-dag} equals L K; along
    the way Psi is certified to be a K-dual of {L P_K phi_i}.

    side="right": given a K-right inverse R of M_{1,Phi,P_K* Psi} and a
    K*-dual Psi-dag of Psi, the multiplier M_{1, Psi-dag, R* P_K* Psi} equals
    the composition K R (apply R, then K); Phi is certified to be a K*-dual
    of {R* P_K* psi_i}. It is computed as the adjoint of the left side on
    (Psi, Phi, K*, R*). The transported frame {L P_K phi_i} is L applied to the
    factored P_K Phi frame of the base multiplier, so no n x n projector is formed; the
    identity is gated at ``tol`` |L K|_F. Certificates: ``inverse``, ``dual_of_transported``.
    """
    if side == "right":
        return inverse_as_multiplier(
            psi, phi, env.adjoint(), np.conj(inverse).T, "left", dual_choice, tol
        ).adjoint()
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    inverse = np.asarray(inverse, dtype=np.complex128)
    ones = Symbol.ones(phi.size)
    base = assemble_multiplier(ones, _projected(phi, env), psi)
    check = _require(_gate(spectral_norm(inverse @ base.matrix - env.k), env.norm(), tol),
                     NotAnInverse, "inverse misses the projected multiplier identity by {:.3e}")
    _require_k_dual(phi, dual_choice, env, tol, "dual_choice is not a dual of its frame")
    transported = base.phi.map(inverse)
    factor = assemble_multiplier(ones, transported, dual_choice)
    target = inverse @ env.k
    inter = verify_k_dual(transported, psi, env, tol, with_lower_bounds=False)
    out = _gate(spectral_norm(factor.matrix - target), float(np.linalg.norm(target)), tol)
    return MultiplierFactorization(
        (factor,), target, factor.matrix, out,
        {"inverse": check, "dual_of_transported": inter.identity},
    )


@dataclass(frozen=True, eq=False)
class BiorthogonalFactorization(_Verdicts):
    """Multiplier pairs composing to K and to K*; ``mirrored`` is the adjoint of ``forward``.
    ``_Verdicts.passed`` when both pass."""

    forward: MultiplierFactorization
    mirrored: MultiplierFactorization


def biorthogonal_right_inverse(
    phi: Frame, psi: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> BiorthogonalFactorization:
    """Invert M_{1,P_K Phi,Psi} through the biorthogonal sequence of Psi.

    Needs Phi a K-frame and Psi a minimal K*-frame. With G biorthogonal to
    Psi and Phi-tilde the canonical K-dual of Phi,
    M_{1,P_K Phi,Psi} M_{1,G,Phi-tilde} = K, gated on U_k* (P_K Phi is on the left), and
    its adjoint M_{1,Phi-tilde,G} M_{1,Psi,P_K Phi} = K*, whose verdict carries over.
    """
    _k_frame_hypothesis(phi, env, tol)
    bio = biorthogonal_sequence(psi)
    _k_frame_hypothesis(psi, env.adjoint(), tol)
    ones = Symbol.ones(phi.size)
    phi_tilde = canonical_k_dual(phi, env, tol)
    projected = _projected(phi, env)

    analysis_side = assemble_multiplier(ones, projected, psi)
    synthesis_side = assemble_multiplier(ones, bio, phi_tilde)
    achieved = analysis_side.matrix @ synthesis_side.matrix
    check = range_identity_check(env, achieved, tol=tol)
    forward = MultiplierFactorization((analysis_side, synthesis_side), env.k, achieved, check)
    return BiorthogonalFactorization(forward, forward.adjoint())


def perturbation_condition(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    a_bound: float,
    b_bound: float,
    tol: float = IDENTITY_TOL,
) -> CheckResult:
    """The perturbation theorem's verdict rho <= tau: rho its residual, tau its threshold.

    rho is the operator norm of f -> {<f, psi_i - phi_i>} on R(K), 0.0 with no norm taken
    when Psi is Phi; tau is a A / (b sqrt(B) |Kdag|^2) for the symbol bounds (a, b) and the
    K-frame bounds (A, B) of Phi given, which ``_require_bounds`` decides on the optimal
    bounds that ``k_frame_check`` memoizes in its one Douglas pass on Phi's hypothesis;
    FloatingPointError when tau is not finite and positive (B underflows at 1e-200).
    """
    if not m.is_semi_normalized:
        raise NotSemiNormalized("the perturbation theorem needs a semi-normalized symbol")
    if phi.size != psi.size or phi.ambient_dim != psi.ambient_dim:
        raise ShapeMismatch("Phi and Psi must share index count and ambient dimension")
    k_frame_check(phi, env, tol)
    _require_bounds(phi, env, a_bound, b_bound, tol, " for Phi")
    rho = 0.0 if psi is phi else spectral_norm((psi.analysis - phi.analysis) @ env.range_basis)
    kdag = env.pinv_norm()
    with np.errstate(all="ignore"):  # in a uniform scale a / sqrt(b) has degree -1, 1/|Kdag| 1
        tau = float(m.lower / m.upper * (a_bound / np.sqrt(b_bound)) / kdag / kdag)
    if not 0.0 < tau < np.inf:
        raise FloatingPointError(f"perturbation threshold tau = {tau!r} is not finite and positive")
    return _gate(rho, tau, 1.0)


def _perturbed_restriction(
    phi: Frame, psi: Frame, env: OperatorEnv, m: Symbol, bounds: tuple[float, float], tol: float
):
    """Shared setup: condition check, invertibility margin, restricted inverse.

    (M|_{R(K)})^-1 P_{M(R(K))} is a ``_Restriction`` with L = T_Phi = U_r Sigma V_r*,
    R* = diag(m) T_Psi*. M Q = U_r B for B = Sigma V_r* diag(m) T_Psi* Q (r x k) and U_r
    is an isometry, so all is read off r x k operands: the margin is sigma_min of B_ref
    (B at Psi = Phi, and B itself, at distance 0.0, when Psi is Phi), the distance
    |B_ref - B| is formed from T_Phi - T_Psi, and the rank tests of B_ref and B decide
    invertibility (RestrictionSingular). Memoized on ``m`` per (Phi, Psi, env, bounds,
    tol): Psi may be Phi, and a frame's memo is keyed by env.
    """

    def build():
        cond = _require(perturbation_condition(phi, psi, env, m, bounds[0], bounds[1], tol),
                        ConditionViolated, "perturbation norm {:.6g} exceeds threshold {:.6g}")
        fac = _factors(phi)

        def core(analysis):  # Sigma V_r* diag(m) T* Q for T* = ``analysis``
            rows = fac.right_vectors.conj().T @ ((m.values[:, None] * analysis) @ env.range_basis)
            return fac.singular_values[: fac.rank, None] * rows

        reference = svd_decompose(core(phi.analysis))
        if reference.rank < env.rank:
            raise RestrictionSingular(f"the reference operator already collapses R(K): "
                                      f"rank {reference.rank} < dim {env.rank}")
        margin = float(reference.singular_values[-1])
        distance = 0.0 if psi is phi else spectral_norm(core(phi.analysis - psi.analysis))
        b = reference if psi is phi else svd_decompose(core(psi.analysis))
        try:
            minv = _restricted_inverse(fac, b)
        except RankDeficientRestriction as exc:
            raise RestrictionSingular(f"M collapses R(K) at perturbation distance "
                                      f"{distance:.3e} vs margin {margin:.3e}: {exc}") from exc
        return minv, cond, {"margin": margin, "distance": distance}

    return _memo(m, ("perturbed", phi, psi, env, tuple(bounds), tol), build)


def perturbation_k_dual(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    bounds: tuple[float, float],
    tol: float = IDENTITY_TOL,
):
    """K-dual of a perturbed sequence: {K* M^-1 P_{M(R(K))} m_i phi_i}.

    M = M_{m,Phi,Psi} is inverted as a bijection R(K) -> M(R(K)); for
    Psi = Phi and m = 1 the construction collapses to the canonical K-dual.
    Returns the certificate of the constructed dual V_k C (k x N core C, as a frame,
    which its K*-frame check reads) against Psi. Phi is tested by its inclusion alone (no
    A, none raised on over- or underflow); ``k_dual_lower_bounds`` gives the lower bounds.
    """
    minv = _perturbed_restriction(phi, psi, env, m, bounds, tol)[0]
    # V_k (Sigma_k B^+ Sigma V_r* diag(m)): diag(m) leaves no orthonormal right factor
    core = minv.coordinates() @ _factors(phi).right_vectors.conj().T * m.values
    dual = _factored(env.corange_basis,
                     Frame((env.factors.singular_values[: env.rank, None] * core).T), None)
    return verify_k_dual(psi, dual, env, tol, with_lower_bounds=False)


def perturbation_right_inverse(
    phi: Frame,
    psi: Frame,
    env: OperatorEnv,
    m: Symbol,
    bounds: tuple[float, float],
    dual_choice: Frame,
    tol: float = IDENTITY_TOL,
) -> MultiplierFactorization:
    """K-right inverse R = (M^-1)* K of the reversed multiplier, as multipliers.

    R is realized as the multiplier M_{1, (M^-1)* P_K Phi, Phi-d} for any
    K-dual Phi-d of Phi, and M_{mbar, P_K Psi, Phi} R = K is certified on U_k* (the
    reversed multiplier needs its output projected onto R(K); the projection
    is absorbed into the frame P_K Psi, keeping both factors multipliers).
    The multiplier form of R must match it to ``tol`` |(M^-1)* K|_F. ``certificates``
    holds that verdict and the perturbation ``condition`` rho <= tau.
    """
    minv, condition, diagnostics = _perturbed_restriction(phi, psi, env, m, bounds, tol)
    _require_k_dual(phi, dual_choice, env, tol, "dual_choice is not a K-dual of Phi")
    # (M^-1)* Q c = U_r (B^+)* c, for c = Q* K and c = Q* T_Phi
    right = minv.apply_adjoint(env.corange_factor.conj().T)
    ones = Symbol.ones(phi.size)
    r_frame = Frame(minv.apply_adjoint(env.range_basis.conj().T @ phi.synthesis).T)
    r_mult = assemble_multiplier(ones, r_frame, dual_choice)
    form = _gate(spectral_norm(r_mult.matrix - right), float(np.linalg.norm(right)), tol)
    reversed_mult = assemble_multiplier(m.conjugated(), _projected(psi, env), phi)
    achieved = reversed_mult.matrix @ r_mult.matrix
    check = range_identity_check(env, achieved, tol=tol)
    return MultiplierFactorization(
        (reversed_mult, r_mult), env.k, achieved, check,
        {"condition": condition, "right_inverse_multiplier_form": form}, dict(diagnostics))


def _analysis_range(f: Frame, env: OperatorEnv) -> SvdFactors:
    """The SVD of T_F* K V_k (N x k), whose range is R(T_F* K), memoized on ``f`` per env."""
    return _memo(f, ("analysis_range", env), lambda: svd_decompose(f.analysis @ env.range_factor))


def range_inclusion_right_inverse(
    psi: Frame, phi: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> MultiplierFactorization:
    """K-right inverse of M_{1,P_K Psi,Phi} when R(T_Psi*) is in R(T_Phi* K*).

    The inverse is the multiplier M_{1,Phi-dag,Psi-tilde} with
    Phi-dag = {(S_Phi|_{R(K*)})^-1 P_{S_Phi(R(K*))} phi_i} and Psi-tilde the
    canonical K-dual of Psi; the certified identity is
    M_{1,P_K Psi,Phi} M_{1,Phi-dag,Psi-tilde} = K, gated on U_k* (P_K Psi is on the left).
    R(T_Phi* K*) is read off the SVD of T_Phi* V_k Sigma_k (N x k, V_k Sigma_k = K* U_k),
    which has the same range but for K - K V_k V_k* (``OperatorEnv``); its rank cutoff
    max(N, k) 2^-40 is that of T_Phi* K*, max(N, n) 2^-40, whenever N >= n. T_Psi* is
    read as its rank factor V_r Sigma_r off T_Psi's memoized SVD.
    """
    if psi.size != phi.size:
        raise ShapeMismatch("Psi and Phi must share a coefficient space")
    adjoint = env.adjoint()
    _k_frame_hypothesis(psi, env, tol)
    _k_frame_hypothesis(phi, adjoint, tol)
    inclusion = _require(_inclusion(_factors(psi).adjoint()._range_factor(),
                                    _analysis_range(phi, adjoint), psi.norm(), tol),
                         RangeNotIncluded, "R(T_Psi*) not contained in R(T_Phi* K*): "
                         "residual {:.3e} > threshold {:.3e}")
    ones = Symbol.ones(psi.size)
    phi_dag = _factored(adjoint.range_basis, Frame(_restriction(phi, adjoint).coordinates().T),
                        _factors(phi).right_vectors)
    psi_tilde = canonical_k_dual(psi, env, tol)
    left_factor = assemble_multiplier(ones, _projected(psi, env), phi)
    right_factor = assemble_multiplier(ones, phi_dag, psi_tilde)
    achieved = left_factor.matrix @ right_factor.matrix
    return MultiplierFactorization(
        (left_factor, right_factor), env.k, achieved,
        range_identity_check(env, achieved, tol=tol),
        {"inclusion": inclusion},
    )


def range_inclusion_left_inverse(
    psi: Frame, phi: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> MultiplierFactorization:
    """K-left inverse of M_{1,Psi,Phi} on R(K*) when R(T_Phi*) is in R(T_Psi* K).

    The inverse is M_{1,Phi-tilde,Psi-dag} with
    Psi-dag = {((S_Psi|_{R(K)})^-1)* P_K psi_i} and Phi-tilde the canonical
    K*-dual of Phi; the certified identity is
    M_{1,Phi-tilde,Psi-dag} M_{1,Psi,Phi} K* = K K*, gated on U_k (K* is on the right).
    R(T_Psi* K) is read off the SVD of T_Psi* U_k Sigma_k (N x k, U_k Sigma_k = K V_k)
    and T_Phi* as its rank factor, as in ``range_inclusion_right_inverse``.
    """
    if psi.size != phi.size:
        raise ShapeMismatch("Psi and Phi must share a coefficient space")
    _k_frame_hypothesis(psi, env, tol)
    _k_frame_hypothesis(phi, env.adjoint(), tol)
    inclusion = _require(_inclusion(_factors(phi).adjoint()._range_factor(),
                                    _analysis_range(psi, env), phi.norm(), tol),
                         RangeNotIncluded, "R(T_Phi*) not contained in R(T_Psi* K): "
                         "residual {:.3e} > threshold {:.3e}")
    ones = Symbol.ones(psi.size)
    # ((S_Psi|)^-1)* P_K T_Psi = U_r (B^+)* Q* T_Psi
    restriction = _restriction(psi, env)
    psi_dag = Frame(restriction.apply_adjoint(env.range_basis.conj().T @ psi.synthesis).T)
    phi_tilde = canonical_k_dual(phi, env.adjoint(), tol)
    left_factor = assemble_multiplier(ones, phi_tilde, psi_dag)
    right_factor = assemble_multiplier(ones, psi, phi)
    achieved = left_factor.matrix @ right_factor.matrix @ env.k_adjoint
    # (achieved - K K*) U_k = (M_1 M_2 - K) V_k Sigma_k, since K* U_k = V_k Sigma_k
    residual = _range_residual(env, left_factor.matrix, right_factor.matrix, right=True)
    residual *= env.factors.singular_values[: env.rank]
    return MultiplierFactorization(
        (left_factor, right_factor), env.k @ env.k_adjoint, achieved,
        _gate(spectral_norm(residual), env.norm() ** 2, tol), {"inclusion": inclusion},
    )


def range_inclusion_inverses(
    psi: Frame, phi: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> tuple[MultiplierFactorization, MultiplierFactorization]:
    """Both range-inclusion constructions (right-inverse case, left-inverse case)."""
    return (
        range_inclusion_right_inverse(psi, phi, env, tol),
        range_inclusion_left_inverse(psi, phi, env, tol),
    )
