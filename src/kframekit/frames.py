"""Finite frames and their bounds relative to an operator K.

A sequence F = {f_i} in C^n is a K-frame when
``A |K* f|^2 <= sum_i |<f, f_i>|^2 <= B |f|^2`` for some A, B > 0; with
K = I this is the classical frame condition. The synthesis operator T_F maps
coefficients to ``sum_i c_i f_i`` (columns f_i), the analysis operator is its
adjoint, and the frame operator is S_F = T_F T_F*. Existence of the lower
bound is equivalent to R(K) being contained in R(T_F), and the optimal
constants are eigenvalue quantities: B = sigma_max(T_F)^2 and
A = 1 / lambda^2 for the least lambda with K K* <= lambda^2 S_F.

The functions here always compute optimal bounds; ``validate_bounds``
confirms user-supplied (possibly non-optimal) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexExceedsDimension,
    NotMinimal,
    ShapeMismatch,
    ZeroOperator,
    NotKFrame,
)
from .linalg import (
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
    _rank,
    as_matrix,
    min_eig,
    spectral_norm,
    svd_decompose,
)

__all__ = [
    "Frame",
    "FrameBounds",
    "BoundsValidation",
    "TightnessReport",
    "optimal_bessel_bound",
    "k_frame_check",
    "validate_bounds",
    "tightness_check",
    "bessel_as_k_frame",
    "minimality_check",
    "biorthogonal_sequence",
]


@dataclass(frozen=True)
class Frame:
    """Ordered finite sequence of vectors in C^n, stored as rows (N x n).

    A frame memoizes what it derives from factorizations: the singular
    values of its synthesis operator and, per (operator env, tolerance
    policy), the results of ``k_frame_check``, ``frame_restriction`` and
    ``canonical_k_dual``. Memoization never changes a result, entries are
    only ever added (so concurrent use stays safe), and singular vectors are
    never kept.
    """

    vectors: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.vectors, dtype=np.complex128)
        if raw.ndim != 2:
            raise ShapeMismatch(
                f"frame vectors must form a 2-d array (N x n), got shape {raw.shape}"
            )
        v = as_matrix(raw, "frame vectors")
        if v.shape[0] < 1:
            raise ShapeMismatch("a frame needs at least one vector")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_memo", {})

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def __len__(self) -> int:
        return self.size

    def norm(self) -> float:
        """Spectral norm of T_F, from the memoized singular values."""
        return float(_singular_values(self)[0])

    @property
    def synthesis(self) -> np.ndarray:
        """n x N matrix whose i-th column is f_i (a pure transpose)."""
        return self.vectors.T

    @property
    def analysis(self) -> np.ndarray:
        return self.vectors.conj()

    @property
    def frame_operator(self) -> np.ndarray:
        return self.synthesis @ self.analysis

    def map(self, operator: np.ndarray) -> "Frame":
        """Frame with vectors {A f_i} for a matrix A."""
        return Frame((as_matrix(operator, "operator") @ self.synthesis).T)

    def scaled(self, c: complex) -> "Frame":
        return Frame(c * self.vectors)

    @staticmethod
    def from_vectors(vectors) -> "Frame":
        return Frame(np.asarray(vectors, dtype=np.complex128))

    @staticmethod
    def standard_basis(n: int) -> "Frame":
        return Frame(np.eye(n, dtype=np.complex128))


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds; ``inclusion`` is the R(K) in R(T_F) test behind A."""

    lower: float
    upper: float
    optimal: bool = True
    inclusion: CheckResult | None = None


def _synthesis_factors(f: Frame) -> SvdFactors:
    """Thin SVD of T_F; its singular values are memoized on the frame."""
    factors = svd_decompose(f.synthesis)
    f._memo.setdefault("singular_values", factors.singular_values)
    return factors


def _singular_values(f: Frame) -> np.ndarray:
    """Singular values of T_F."""
    return _memo(f, "singular_values", lambda: svd_decompose(f.synthesis).singular_values)


def optimal_bessel_bound(f: Frame) -> float:
    """Least valid B in sum_i |<f, f_i>|^2 <= B |f|^2, i.e. sigma_max(T_F)^2."""
    return f.norm() ** 2


@_memoized_per_operator
def k_frame_check(
    f: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> FrameBounds:
    """Optimal K-frame bounds (A, B) of ``f`` against the operator of ``env``.

    Raises NotKFrame when R(K) is not contained in R(T_F) (exactly the
    failure of the lower bound), ZeroOperator for K = 0 (the condition is
    vacuous and every downstream formula divides by A). One SVD of T_F
    serves the inclusion test, B and the Douglas route
    A = 1/|pinv(T_F) K|^2. The one cross-check, ``linalg``'s QR route,
    shares only U_r of that SVD; it must agree with the Douglas route in
    lambda to 5e-9 relative, which is 1e-8 relative in A. Memoized on ``f``
    per (env, policy).
    """
    if f.ambient_dim != env.dim:
        raise ShapeMismatch(
            f"frame lives in C^{f.ambient_dim}, operator acts on C^{env.dim}"
        )
    if env.is_zero():
        raise ZeroOperator("K = 0: every Bessel sequence qualifies vacuously; refusing")
    factors = _synthesis_factors(f)
    norm_k = env.norm()
    inclusion, _, core = _douglas(
        env.k, f.synthesis, factors, norm_k, policy, NotKFrame, "R(K) not contained in R(T_F)"
    )
    lower = 1.0 / _majorization(env.k, f.synthesis, factors, core) ** 2
    upper = float(factors.singular_values[0] ** 2)
    return FrameBounds(lower, upper, optimal=True, inclusion=inclusion)


@dataclass(frozen=True)
class BoundsValidation:
    """Verdict on a user-supplied bound pair, with the eigenvalue slacks."""

    valid: bool
    lower_ok: bool
    upper_ok: bool
    lower_slack: float  # min eig of S_F - a K K*  (>= 0 up to tolerance when valid)
    upper_slack: float  # b - lambda_max(S_F)
    threshold: float


def validate_bounds(
    f: Frame, env: OperatorEnv, a: float, b: float, policy: TolerancePolicy = DEFAULT_POLICY
) -> BoundsValidation:
    """Check a K-frame inequality pair a K K* <= S_F <= b I, to ``identity_tol`` B."""
    if f.ambient_dim != env.dim:
        raise ShapeMismatch("frame/operator dimension mismatch")
    bessel = optimal_bessel_bound(f)
    lower_slack = min_eig(f.frame_operator - a * (env.k @ env.k_adjoint))
    upper_slack = b - bessel
    lower = _gate(-lower_slack, bessel, policy.identity_tol)
    upper = _gate(-upper_slack, bessel, policy.identity_tol)
    return BoundsValidation(lower.ok and upper.ok, lower.ok, upper.ok, lower_slack, upper_slack,
                            lower.threshold)


@dataclass(frozen=True)
class TightnessReport:
    """Whether S_F = A K K* for some A (tight), with A = 1 meaning Parseval."""

    tight: bool
    constant: float | None
    parseval: bool
    residual: float
    threshold: float


def tightness_check(
    f: Frame, env: OperatorEnv, policy: TolerancePolicy = DEFAULT_POLICY
) -> TightnessReport:
    """Best-fit tightness constant and the residual of S_F - A K K*, to ``identity_tol`` B.

    The constant is fitted on G = (K/|K|)(K/|K|)*, as tr(G S_F) / (tr(G^2) |K|^2),
    so neither trace under- or overflows where K K* itself does not.
    """
    if f.ambient_dim != env.dim:
        raise ShapeMismatch("frame/operator dimension mismatch")
    s = f.frame_operator
    gram_k = env.k @ env.k_adjoint
    norm_k = env.norm()
    const = 0.0
    if norm_k > 0.0:
        unit = gram_k / norm_k**2
        const = float(np.real(np.trace(unit @ s))) / (
            float(np.real(np.trace(unit @ unit))) * norm_k**2
        )
    check = _gate(spectral_norm(s - const * gram_k), optimal_bessel_bound(f), policy.identity_tol)
    parseval = check.ok and _gate(abs(const - 1.0), 1.0, policy.identity_tol).ok
    return TightnessReport(check.ok, const if check.ok else None, parseval, check.residual,
                           check.threshold)


def bessel_as_k_frame(f: Frame) -> OperatorEnv:
    """Operator K with K e_i = f_i on the first N standard basis vectors.

    Any finite sequence is Bessel, and against this K it is a Parseval
    K-frame: K* f = {<f, f_i>} gives K K* = S_F exactly. Requires N <= n so
    the standard basis can index the vectors; embed first otherwise.
    """
    n, big_n = f.ambient_dim, f.size
    if big_n > n:
        raise IndexExceedsDimension(
            f"{big_n} vectors need an ambient dimension of at least {big_n}, got {n}"
        )
    k = np.zeros((n, n), dtype=np.complex128)
    k[:, :big_n] = f.synthesis
    return OperatorEnv.from_matrix(k)


def minimality_check(f: Frame) -> bool:
    """True iff T_F has trivial kernel (sum c_i f_i = 0 forces c = 0)."""
    return _rank(_singular_values(f), f.synthesis.shape) == f.size


def biorthogonal_sequence(f: Frame) -> Frame:
    """The unique biorthogonal sequence inside span{f_i}.

    G = T_F (T_F* T_F)^-1 satisfies <f_i, g_j> = delta_ij with every g_j in
    the span of the f_i; requires a minimal sequence.
    """
    factors = _synthesis_factors(f)
    if factors.rank != f.size:
        raise NotMinimal("sequence is not minimal: synthesis operator has a kernel")
    return Frame(factors.pinv().conj())
