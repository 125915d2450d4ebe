"""Finite frames and their bounds relative to an operator K.

A sequence F = {f_i} in C^n is a K-frame when
``A |K* f|^2 <= sum_i |<f, f_i>|^2 <= B |f|^2`` for some A, B > 0; with
K = I this is the classical frame condition. The synthesis operator T_F maps
coefficients to ``sum_i c_i f_i`` (columns f_i), the analysis operator is its
adjoint, and the frame operator is S_F = T_F T_F*. Existence of the lower
bound is equivalent to R(K) being contained in R(T_F), and the optimal
constants are read off T_F's one SVD: B = sigma_max(T_F)^2 and
A = 1 / lambda^2 for the least lambda with K K* <= lambda^2 S_F.

``k_frame_check`` computes optimal bounds, ``_k_frame_hypothesis`` only the
inclusion; ``validate_bounds`` decides user-supplied pairs on the optimal bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexExceedsDimension,
    InvalidBounds,
    NotMinimal,
    ShapeMismatch,
    ZeroOperator,
    NotKFrame,
)
from .linalg import (
    _SLACK,
    IDENTITY_TOL,
    CheckResult,
    OperatorEnv,
    SvdFactors,
    _cut,
    _douglas,
    _douglas_solution,
    _gate,
    _majorization,
    _memo,
    _memoized_per_operator,
    as_matrix,
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


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered finite sequence of vectors in C^n, stored as rows (N x n).

    A frame memoizes one SVD of its synthesis operator (``_factors``), from
    which every frame quantity is read, and per operator env the restriction
    built on it, the coordinates frame {U_k* f_i}, the SVD of T_F* K V_k and (per tolerance
    too) the results of ``k_frame_check``, ``_k_frame_hypothesis`` and ``canonical_k_dual``.
    Memoization never changes a result, entries are only ever added (so concurrent
    use stays safe), and no n x n matrix is kept.
    Its private form T_F = Q C V* (``_form``) is C = T_F alone when read from
    vectors; frames built from known factors keep a small core C (``_factored``),
    which may be a frame whose SVD they lift.
    """

    vectors: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.vectors, dtype=np.complex128)
        if raw.ndim != 2:
            raise ShapeMismatch(
                f"frame vectors must form a 2-d array (N x n), got shape {raw.shape}"
            )
        object.__setattr__(self, "vectors", as_matrix(raw, "frame vectors"))
        object.__setattr__(self, "_form", None)
        object.__setattr__(self, "_memo", {})

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def norm(self) -> float:
        """Spectral norm of T_F, from the memoized SVD; for T_F = Q C V* (``_factored``),
        that of the core C, whose singular values the lift copies, so nothing is lifted."""
        if self._form is not None:
            return self._form[1].norm()
        return float(_factors(self).singular_values[0])

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


@dataclass(frozen=True)
class FrameBounds:
    """The optimal bounds (A, B); ``inclusion`` is the R(K) in R(T_F) test behind A, and
    ``lower_attained`` and ``upper_attained`` the equalities that make them optimal."""

    lower: float
    upper: float
    inclusion: CheckResult
    lower_attained: CheckResult
    upper_attained: CheckResult


def _factored(q: np.ndarray, core: Frame, v: np.ndarray | None) -> Frame:
    """The frame T = Q C V* for Q, V with orthonormal columns (V may be None), C = T_core.

    Its vectors are formed from C, and ``_factors`` lifts the core's memoized SVD (a
    frame is never empty). ``k_frame_check`` against an env whose U_k is Q reads the
    core alone."""
    c = core.synthesis
    t = c if v is None else c @ v.conj().T
    f = Frame((q @ t).T)
    object.__setattr__(f, "_form", (q, core, v))
    return f


def _factors(f: Frame) -> SvdFactors:
    """T_F = U_r Sigma V_r*, the one SVD of T_F, memoized on ``f``.

    It decomposes only the core of T_F = Q C V* (the core frame's SVD is its own
    memoized one): C = U_C Sigma W_C* lifts to U = Q U_C, V = V W_C, which
    ``linalg._cut`` gates against the stored vectors as ``svd_decompose`` does and cuts
    to the rank for T_F's shape (the core keeps its own, for C's shape). The factors are
    returned as they come, cut to the rank, with every singular value (a zero frame has
    norm 0).
    """

    def build():
        if f._form is None:  # C = T_F
            return svd_decompose(f.synthesis)
        q, core, v = f._form
        c = _factors(core)
        w = c.right_vectors if v is None else v @ c.right_vectors
        return _cut(q @ c.left_vectors, c.singular_values, w, f.synthesis)

    return _memo(f, "svd", build)


def optimal_bessel_bound(f: Frame) -> float:
    """Least valid B in sum_i |<f, f_i>|^2 <= B |f|^2, i.e. sigma_max(T_F)^2."""
    return f.norm() ** 2


def _core(f: Frame, env: OperatorEnv) -> Frame | None:
    """The core C of T_F = Q C W* (``_factored``), Q equal to U_k, or V_k if K = K*, else None."""
    q, inner, _ = f._form or (None, None, None)
    if q is None or np.array_equal(q, env.range_basis):
        return inner
    return inner if np.array_equal(q, env.corange_basis) and env.hermitian else None


def _hypothesis(f: Frame, env: OperatorEnv, tol: float) -> tuple[CheckResult, tuple | None]:
    """``_k_frame_hypothesis``'s verdict, with lambda's r x k core Sigma_r^-1 U_r* K V_k and
    its Douglas residual when this call ran the Douglas pass on T_F (else None). The memo
    keeps the verdict alone."""
    key = ("_k_frame_hypothesis", env, tol)
    if key in f._memo:
        return f._memo[key], None
    if f.ambient_dim != env.dim:
        raise ShapeMismatch(
            f"frame lives in C^{f.ambient_dim}, operator acts on C^{env.dim}"
        )
    if env.rank == 0:
        raise ZeroOperator("K = 0: every Bessel sequence qualifies vacuously; refusing")
    core = _core(f, env)
    if core is not None:
        inclusion, douglas = _k_frame_hypothesis(core, env.range_coordinates, tol), None
    else:
        inclusion, _, lam_core, residual = _douglas(
            env.range_factor, f.synthesis, _factors(f), env.norm(), tol,
            NotKFrame, "R(K) not contained in R(T_F)")
        douglas = lam_core, residual
    return _memo(f, key, lambda: inclusion), douglas


def _k_frame_hypothesis(f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL) -> CheckResult:
    """The passed test of R(K) in R(T_F): by Douglas' lemma, that ``f`` is a K-frame.

    Computes no bound. Raises ZeroOperator for K = 0 (the condition is vacuous and every
    downstream formula divides by A), NotKFrame when the inclusion fails and
    InternalConsistencyError when ``_douglas``'s residual gate does. Memoized on ``f``
    per (env, tol) as the verdict alone.
    """
    return _hypothesis(f, env, tol)[0]


@_memoized_per_operator
def k_frame_check(
    f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> FrameBounds:
    """Optimal K-frame bounds (A, B) of ``f`` against the operator of ``env``.

    Raises as ``_k_frame_hypothesis``, whose one Douglas pass also gives lambda's core and
    residual on a fresh pair (after a memoized verdict they are solved for again); the
    constructions that need only F to be a K-frame call that alone. The frame's one SVD
    (``_factors``) serves the inclusion test (decided by its rank alone, residual 0, when
    T_F spans C^n), B and A = (1/|pinv(T_F) K|)^2; OverflowError when A is not a finite
    float, FloatingPointError when it is below the least normal float. lambda is certified
    from both sides by plain products on T_F and L1 = K V_k (``linalg._majorization``), and
    A |K* w|^2 - |T_F* w|^2 at its unit witness w is gated at ``tol`` (|T_F| |T_F* w| +
    A |K| |K* w|), |T_F* u_1|^2 - B at 1e-9 B. Memoized on ``f`` per (env, tol). Every step
    takes L1 (``env.range_factor``, n x k): no operand has n columns, and only K - K V_k V_k*
    is dropped (``OperatorEnv``).
    T = Q C W* (``_factored``, frame core C, Q equal to U_k, or to V_k if K = K*) is checked
    as C against Sigma_k: lambda = |C^+ Sigma_k| and B = |C|^2 are T's, C's rank decides
    C^k in R(C), and C's cutoff max(k, r) 2^-40 is below T's, as for {U_k* f_i}.
    """
    core = _core(f, env)
    if core is not None:
        return k_frame_check(core, env.range_coordinates, tol)
    inclusion, douglas = _hypothesis(f, env, tol)
    factors = _factors(f)
    a = env.range_factor
    if douglas is None:  # the verdict was memoized: solve again for the core and residual
        douglas = _douglas_solution(a, f.synthesis, factors, env.norm(), tol)[1:]
    lam, (witness, k_w, t_w) = _majorization(a, f.synthesis, factors, *douglas)
    try:
        lower = (1.0 / lam) ** 2  # 1/lambda is inf, not an error, for a subnormal lambda
    except (OverflowError, ZeroDivisionError):
        lower = np.inf
    if lower == np.inf:
        raise OverflowError(f"optimal lower bound A = 1/lambda^2 overflows at lambda = {lam!r}")
    if lower < np.finfo(float).tiny:  # 0 or subnormal: no bound to divide by
        raise FloatingPointError(f"optimal lower bound A = 1/lambda^2 underflows to {lower!r}")
    upper = float(factors.singular_values[0] ** 2)
    k_w, t_w = k_w / witness, t_w / witness  # |K* w| (as |L1* w|) and |T_F* w| at unit w
    scale = float(factors.singular_values[0]) * t_w + lower * env.norm() * k_w
    attained = float(np.linalg.norm(f.analysis @ factors.left_vectors[:, 0]) ** 2)
    return FrameBounds(lower, upper, inclusion, _gate(lower * k_w**2 - t_w**2, scale, tol),
                       _gate(abs(attained - upper), upper, _SLACK))


@dataclass(frozen=True)
class BoundsValidation:
    """Verdicts ``lower`` (a <= A: a K K* <= S_F) and ``upper`` (b >= B: S_F <= b I) on a
    user-supplied pair, each residual the negated slack; ``passed`` when both hold."""

    lower: CheckResult
    upper: CheckResult
    lower_slack: float  # A - a, of A's degree (>= -tol A when valid)
    upper_slack: float  # b - B

    @property
    def passed(self) -> bool:
        return self.lower.ok and self.upper.ok


def validate_bounds(
    f: Frame, env: OperatorEnv, a: float, b: float, tol: float = IDENTITY_TOL
) -> BoundsValidation:
    """Decide a K-frame pair a K K* <= S_F <= b I as a <= A (1 + tol) and b >= B (1 - tol).

    By Douglas' lemma a K K* <= S_F exactly when a <= A. (A, B) is the memoized
    ``k_frame_check``, so no S_F, K K* or eigensolver; its errors pass on, except that a
    non-K-frame reads A = 0 and K = 0 reads A = inf (the inequality is vacuous).
    """
    try:
        lower = k_frame_check(f, env, tol).lower
    except NotKFrame:
        lower = 0.0
    except ZeroOperator:
        lower = np.inf
    upper = optimal_bessel_bound(f)
    return BoundsValidation(_gate(a - lower, lower, tol), _gate(upper - b, upper, tol),
                            lower - a, b - upper)


def _require_bounds(f: Frame, env: OperatorEnv, a: float, b: float, tol: float,
                    of: str = "") -> None:
    """Raise InvalidBounds unless (a, b) are K-frame bounds of ``f``, which ``of`` names.

    They are positive and finite, so a <= 0 (-0.0 too) and b = inf are refused by name (b = 0
    is not: B underflows to 0.0 at scale 1e-200); then ``validate_bounds`` decides the pair."""
    pair = f"({a}, {b}) is not a valid K-frame bound pair{of}"
    if a <= 0.0 or b == np.inf:
        side = "lower bound a is not positive" if a <= 0.0 else "upper bound b is not finite"
        raise InvalidBounds(f"{pair}: the {side}")
    validation = validate_bounds(f, env, a, b, tol)
    if not validation.passed:
        raise InvalidBounds(f"{pair}: A - a = {validation.lower_slack:.3e}, "
                            f"b - B = {validation.upper_slack:.3e}")


@dataclass(frozen=True)
class TightnessReport:
    """Verdicts ``identity`` (S_F = A K K* for the fitted A: tight, ``constant`` A, else None)
    and ``parseval`` (A = 1); ``passed`` when both hold, a Parseval K-frame."""

    identity: CheckResult
    parseval: CheckResult
    constant: float | None

    @property
    def passed(self) -> bool:
        return self.identity.ok and self.parseval.ok


def tightness_check(
    f: Frame, env: OperatorEnv, tol: float = IDENTITY_TOL
) -> TightnessReport:
    """Best-fit tightness constant and the residual of S_F - A K K*, to ``tol`` B.

    The constant is fitted on G = (K/|K|)(K/|K|)*, as tr(G S_F) / (tr(G^2) |K|^2),
    so neither trace under- or overflows where K K* itself does not (FloatingPointError
    where |K|^2 underflows and G is 0/0)."""
    if f.ambient_dim != env.dim:
        raise ShapeMismatch("frame/operator dimension mismatch")
    s = f.frame_operator
    gram_k = env.k @ env.k_adjoint
    norm_k = env.norm()
    const = 0.0
    if norm_k > 0.0:
        if norm_k**2 < np.finfo(float).tiny:
            raise FloatingPointError(f"|K|^2 underflows to {norm_k**2!r} at |K| = {norm_k!r}")
        unit = gram_k / norm_k**2  # tr(G S_F) = sum G o S_F^T, tr(G^2) = |G|_F^2 (G Hermitian)
        const = float(np.real(np.sum(unit * s.T) / np.vdot(unit, unit))) / norm_k**2
    check = _gate(spectral_norm(s - const * gram_k), optimal_bessel_bound(f), tol)
    return TightnessReport(check, _gate(abs(const - 1.0), 1.0, tol), const if check else None)


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
    return _factors(f).rank == f.size


def biorthogonal_sequence(f: Frame) -> Frame:
    """The unique biorthogonal sequence inside span{f_i}.

    G = T_F (T_F* T_F)^-1 satisfies <f_i, g_j> = delta_ij with every g_j in
    the span of the f_i; requires a minimal sequence.
    """
    factors = _factors(f)
    if factors.rank != f.size:
        raise NotMinimal("sequence is not minimal: synthesis operator has a kernel")
    return Frame(factors.pinv().conj())
