"""Dense complex linear algebra kernel.

Matrices are two-dimensional ``numpy`` arrays of ``complex128``; the helpers
here add the pieces the frame-theory layers need on top of LAPACK:
rank-revealing SVD with one scale-invariant cutoff (``_rank``: singular
values above sigma_max * max(rows, cols) * 2^-40), Moore-Penrose
pseudo-inverses, orthonormal range bases and projectors, range-inclusion
tests with the associated factorization (given operators L1, L2 with
R(L1) inside R(L2) there is an X with L2 X = L1, and the least lambda with
L1 L1* <= lambda^2 L2 L2* equals the norm of the minimal X), inverses of an
operator restricted to a subspace, and a sufficient invertibility margin for
perturbed operators.

All "closed range" hypotheses of the underlying operator theory are vacuous
here: everything is finite dimensional, and only numerical rank is ever
tested, always by ``_rank``; no caller sets a cutoff. Every object is an
immutable value and every function is pure, so unrestricted concurrent use
is safe.

Each function factors its operand once: ``range_inclusion_check``,
``douglas_solve``, ``majorization_constant`` and ``restricted_inverse`` pass
one ``SvdFactors`` through every step that needs it. Douglas' lemma is
decided once, in the private ``_douglas`` step (inclusion test raising the
caller's error, minimal solution, residual gate), which ``k_frame_check``
and both multiplier inverses share. It applies the factors in order
(``SvdFactors.solve``) and reads lambda off the r x m core Sigma_r^-1 U_r*
l1. Each optimal bound has one cross-check, ``_majorization``'s QR route,
which shares only the range basis U_r. Reported residuals are spectral
norms; a residual that only gates (``_within``) is decided on its Frobenius
norm first. Every identity is homogeneous, so every verdict is one gate,
``_gate``: residual <= tol * scale, for the magnitude ``scale`` of the
identity's terms and no absolute floor, so no verdict depends on the units
of the input. An ``OperatorEnv`` stores K and its one ``SvdFactors`` and reads
K*, K^dagger, its range and projector, its norms and its adjoint off them,
memoized on first use. ``svd_decompose(m).pinv()`` is the pseudo-inverse of
a matrix. A memoized value is the value a fresh computation returns, so
memoization never changes a result. Memo entries are only ever added and
every caller gets the stored entry, so concurrent use stays safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    NonFiniteInput,
    NotInvertible,
    RangeNotIncluded,
    RankDeficientRestriction,
    ShapeMismatch,
)

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "SvdFactors",
    "Subspace",
    "OperatorEnv",
    "CheckResult",
    "RestrictedMap",
    "MarginReport",
    "as_matrix",
    "spectral_norm",
    "herm_eigvals",
    "min_eig",
    "svd_decompose",
    "range_inclusion_check",
    "douglas_solve",
    "majorization_constant",
    "restricted_inverse",
    "neumann_invertibility_margin",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """The one user-set threshold, the relative tolerance of operator identities.

    A check passes when its residual is at most ``identity_tol * scale``
    (``_gate``), where ``scale`` is the magnitude of the identity's terms.
    Numerical rank is not part of the policy: it is the fixed rule of ``_rank``.
    """

    identity_tol: float = 1e-10

    def with_tol(self, tol: float | None) -> "TolerancePolicy":
        if tol is None:
            return self
        return TolerancePolicy(tol)


DEFAULT_POLICY = TolerancePolicy()

# relative slack of a guarantee a theorem gives and of two routes to one value
_SLACK = 1e-9
# relative agreement of the two routes to lambda: 1e-8 relative on A = 1/lambda^2
_AGREEMENT = 5e-9
# numerical rank counts singular values above sigma_max * max(rows, cols) * _RANK_SCALE
_RANK_SCALE = 2.0 ** -40


def _rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of ``shape`` with these (descending) singular values."""
    sigma_max = float(singular_values[0]) if singular_values.size else 0.0
    return int(np.sum(singular_values > sigma_max * max(shape) * _RANK_SCALE))


def _memo(owner, key, compute):
    """``owner``'s memo entry for ``key``, filled by ``compute()`` on first use.

    Entries are never replaced: owners are immutable and ``compute`` is
    deterministic, so a fill racing another fill stores an equal value and
    every caller gets the stored one.
    """
    memo = owner._memo
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, compute())


def _memoized_per_operator(fn):
    """Memoize ``fn(value, env, policy)`` on ``value`` per (env, policy).

    The entry holds ``env`` itself, so the ``id`` in its key cannot be
    reused while the entry lives; an env never refers back to the values
    that memoize results for it, which keeps the references one-way and
    free of cycles. Failures are not memoized.
    """

    @functools.wraps(fn)
    def memoized(value, env, policy=DEFAULT_POLICY):
        key = (fn.__name__, id(env), policy)
        return _memo(value, key, lambda: (env, fn(value, env, policy)))[1]

    return memoized


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only 2-d complex128 array, rejecting NaN/Inf."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.size == 0:
        raise ShapeMismatch(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    a = a.copy()
    a.setflags(write=False)
    return a


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def herm_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part (ascending)."""
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)


def min_eig(h: np.ndarray) -> float:
    return float(herm_eigvals(h)[0])


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD with a committed numerical rank.

    ``left_vectors`` and ``right_vectors`` have orthonormal columns;
    ``singular_values`` is descending and ``rank`` is the numerical rank
    ``_rank`` reads off them.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T

    def adjoint(self) -> "SvdFactors":
        """Factors of the conjugate transpose: the same SVD read backwards."""
        return SvdFactors(self.right_vectors, self.singular_values, self.left_vectors, self.rank)

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse, truncated at the committed rank."""
        r = self.rank
        v = self.right_vectors[:, :r] / self.singular_values[:r]
        return v @ self.left_vectors[:, :r].conj().T

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, C) with C = (Sigma_r^-1 U_r*) rhs and X = V_r C = ``pinv() @ rhs``.

        V_r mixes only after the division, so the residual stays at rounding level.
        """
        r = self.rank
        core = (self.left_vectors[:, :r].conj().T / self.singular_values[:r, None]) @ rhs
        return self.right_vectors[:, :r] @ core, core


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^n carried by an orthonormal column basis (n x k)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128).copy()
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ShapeMismatch(
                f"basis must be {self.ambient_dim} x k, got shape {b.shape}"
            )
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-10:
                raise ShapeMismatch("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def svd_decompose(m) -> SvdFactors:
    """Thin SVD of ``m`` with its numerical rank (``_rank``).

    Deterministic for fixed input; raises NonFiniteInput on NaN/Inf.
    """
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    factors = SvdFactors(_read_only(u), _read_only(s), _read_only(vh.conj().T), _rank(s, a.shape))
    resid = float(np.linalg.norm(factors.reconstruct() - a))
    if not _gate(resid, float(np.linalg.norm(a)), DEFAULT_POLICY.identity_tol):
        raise InternalConsistencyError(
            f"SVD reconstruction residual {resid:.3e} exceeds tolerance", resid
        )
    return factors


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict carrying its residual and the threshold used."""

    ok: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.ok


def _gate(residual: float, scale: float, tol: float) -> CheckResult:
    """residual <= tol * scale, for ``scale`` of the same degree in the input as ``residual``."""
    return CheckResult(residual <= tol * scale, residual, tol * scale)


def range_inclusion_check(l1, l2, policy: TolerancePolicy = DEFAULT_POLICY) -> CheckResult:
    """Test R(l1) inside R(l2) via the residual of (I - P_{R(l2)}) l1."""
    a, b = _operand_pair(l1, l2)
    return _inclusion(a, svd_decompose(b), spectral_norm(a), policy)


def _operand_pair(l1, l2) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(l1, "l1")
    b = as_matrix(l2, "l2")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def _inclusion(
    a: np.ndarray, f2: SvdFactors, norm_a: float, policy: TolerancePolicy
) -> CheckResult:
    """``range_inclusion_check`` of ``a`` against the factored l2, given norm(a)."""
    basis = f2.left_vectors[:, : f2.rank]
    return _gate(spectral_norm(a - (basis @ basis.conj().T) @ a), norm_a, policy.identity_tol)


def douglas_solve(l1, l2, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Minimal-norm X with l2 X = l1, available exactly when R(l1) is in R(l2).

    X = pinv(l2) l1, whose rows live in R(l2*); raises RangeNotIncluded when
    the inclusion fails at tolerance.
    """
    a, b = _operand_pair(l1, l2)
    return _douglas(a, b, svd_decompose(b), spectral_norm(a), policy)[1]


def _require_inclusion(
    a: np.ndarray, f2: SvdFactors, norm_a: float, policy: TolerancePolicy, error, ranges: str
) -> CheckResult:
    """The passed test of R(a) in the factored range; raises ``error`` on failure."""
    inclusion = _inclusion(a, f2, norm_a, policy)
    if not inclusion:
        raise error(
            f"{ranges}: residual {inclusion.residual:.3e} "
            f"> threshold {inclusion.threshold:.3e}",
            inclusion.residual,
        )
    return inclusion


def _douglas(
    a: np.ndarray, b: np.ndarray, f2: SvdFactors, norm_a: float, policy: TolerancePolicy,
    error=RangeNotIncluded, ranges: str = "R(l1) not contained in R(l2)",
) -> tuple[CheckResult, np.ndarray]:
    """Douglas' lemma for ``b X = a`` from the factors ``f2`` of ``b``.

    Returns the passed inclusion test (failure raises ``error``, message
    prefix ``ranges``), X = pinv(b) a and its core (``SvdFactors.solve``);
    the residual |b X - a| is gated at the identity tolerance.
    """
    inclusion = _require_inclusion(a, f2, norm_a, policy, error, ranges)
    x, core = f2.solve(a)
    _within(b @ x - a, policy.identity_tol * norm_a, InternalConsistencyError,
            "factorization residual {:.3e} despite range inclusion")
    return inclusion, x, core


def _within(r: np.ndarray, threshold: float, error=None, message: str = "") -> bool:
    """Whether |r|_2 <= ``threshold``, for a residual that is never reported.

    |r|_F / sqrt(min(m, n)) <= |r|_2 <= |r|_F, so |r|_2 (an SVD) is computed
    only when ``threshold`` lies between those bounds, or to raise
    ``error(message.format(|r|_2), |r|_2)`` when ``error`` is given.
    """
    fro = float(np.linalg.norm(r))
    if fro <= threshold:
        return True
    if error is None and fro > threshold * np.sqrt(min(r.shape)):
        return False
    resid = spectral_norm(r)
    if error is not None and resid > threshold:
        raise error(message.format(resid), resid)
    return resid <= threshold


def majorization_constant(l1, l2, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Least lambda >= 0 with l1 l1* <= lambda^2 l2 l2*.

    Computed as the spectral norm of the minimal Douglas solution and
    cross-checked by the QR route of ``_majorization``; a relative
    disagreement beyond 5e-9 raises InternalConsistencyError.
    """
    a, b = _operand_pair(l1, l2)
    f2 = svd_decompose(b)
    core = _douglas(a, b, f2, spectral_norm(a), policy)[2]
    return _majorization(a, b, f2, core)


def _majorization(a: np.ndarray, b: np.ndarray, f2: SvdFactors, core: np.ndarray) -> float:
    """lambda = |core| of the minimal Douglas solution, cross-checked to 5e-9 relative.

    The cross-check shares only U_r of ``f2``: Householder QR (U_r* b)* = Q R
    gives lambda = |R^-* U_r* a|, without squaring the conditioning of b.
    """
    lam = spectral_norm(core)
    basis = f2.left_vectors[:, : f2.rank]
    r = np.linalg.qr(b.conj().T @ basis, mode="r")
    lam_cc = spectral_norm(np.linalg.solve(r.conj().T, basis.conj().T @ a))
    if not _gate(abs(lam - lam_cc), lam, _AGREEMENT):
        raise InternalConsistencyError(
            f"majorization routes disagree: {lam!r} vs {lam_cc!r}", abs(lam - lam_cc)
        )
    return lam


@dataclass(frozen=True)
class RestrictedMap:
    """Inverse of ``s`` viewed as a bijection from a subspace V onto s(V).

    ``matrix`` is the full-space realization: it annihilates s(V)-perp and
    maps s(V) back onto V, so ``matrix @ s`` acts as the identity on V.
    """

    matrix: np.ndarray
    domain: Subspace

    @property
    def adjoint_matrix(self) -> np.ndarray:
        return self.matrix.conj().T


def restricted_inverse(s, v: Subspace) -> RestrictedMap:
    """Invert ``s`` restricted to ``v``; requires s injective on v.

    Raises RankDeficientRestriction when ``s`` collapses ``v``.
    """
    a = as_matrix(s, "s")
    if a.shape[1] != v.ambient_dim:
        raise ShapeMismatch(
            f"operator acts on C^{a.shape[1]} but subspace lives in C^{v.ambient_dim}"
        )
    if not v.dim:
        matrix = np.zeros((v.ambient_dim, a.shape[0]), dtype=np.complex128)
        domain = Subspace(a.shape[0], np.zeros((a.shape[0], 0), dtype=np.complex128))
        return RestrictedMap(_read_only(matrix), domain)
    f = svd_decompose(a @ v.basis)
    if f.rank < v.dim:
        raise RankDeficientRestriction(
            f"operator collapses the subspace: rank {f.rank} < dim {v.dim}"
        )
    domain = Subspace(a.shape[0], f.left_vectors[:, : f.rank])
    return RestrictedMap(_read_only(v.basis @ f.pinv()), domain)


@dataclass(frozen=True)
class MarginReport:
    """Invertibility verdict for a perturbed operator.

    ``margin`` is 1/norm(t^-1) (the smallest singular value of t); whenever
    ``distance`` < ``margin`` the perturbed operator is invertible. Outside
    that sufficient condition the verdict is settled by a direct rank test
    and ``settled_by`` says which route decided.
    """

    distance: float
    margin: float
    invertible: bool
    settled_by: str  # "margin" or "rank"


def neumann_invertibility_margin(t, u) -> MarginReport:
    """Perturbation margin: norm(t - u) against 1/norm(t^-1).

    Square t must be invertible at tolerance. Rectangular t (a restriction
    expressed against a subspace basis) is accepted when it has full column
    rank; "invertible" then means injective, which is invertibility onto
    the image.
    """
    a = as_matrix(t, "t")
    b = as_matrix(u, "u")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < a.shape[1]:
        raise ShapeMismatch(f"t has more columns than rows: {a.shape}")
    fa = svd_decompose(a)
    if fa.rank < a.shape[1]:
        raise NotInvertible(
            f"t is singular at tolerance (rank {fa.rank} of {a.shape[1]})"
        )
    margin = float(fa.singular_values[-1])
    distance = spectral_norm(a - b)
    if distance < margin:
        return MarginReport(distance, margin, True, "margin")
    rank_u = svd_decompose(b).rank
    return MarginReport(distance, margin, rank_u == b.shape[1], "rank")


@dataclass(frozen=True)
class OperatorEnv:
    """An operator K with its one SVD, from which its geometry is read.

    Satisfies K K^dagger = P_{R(K)} and P_{R(K)} K = K; ``adjoint()`` swaps
    the roles of K and K*, which is how every K*-frame question is asked.
    K*, K^dagger, the range of K with its projector, and ``adjoint()`` (the
    env of K* on the adjoint factors) are derived from ``factors`` on first
    use and memoized on the value; the norms read its singular values. An
    env holds its adjoint, and the adjoint never refers back to it.
    """

    k: np.ndarray
    factors: SvdFactors

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @staticmethod
    def from_matrix(k) -> "OperatorEnv":
        a = as_matrix(k, "k")
        if a.shape[0] != a.shape[1]:
            raise ShapeMismatch(f"operator must be square, got {a.shape}")
        env = OperatorEnv(a, svd_decompose(a))
        env._self_check()
        return env

    def _self_check(self) -> None:
        tol = DEFAULT_POLICY.identity_tol * self.norm()
        _within(self.k @ self.k_pinv - self.proj_range_k, tol * self.pinv_norm(),
                InternalConsistencyError, "K K^dagger differs from the range projector by {:.3e}")
        _within(self.proj_range_k @ self.k - self.k, tol,
                InternalConsistencyError, "P_R(K) K differs from K by {:.3e}")

    @property
    def k_adjoint(self) -> np.ndarray:
        return _memo(self, "k_adjoint", lambda: as_matrix(self.k.conj().T))

    @property
    def k_pinv(self) -> np.ndarray:
        return _memo(self, "k_pinv", lambda: _read_only(self.factors.pinv()))

    @property
    def range_k(self) -> Subspace:
        basis = self.factors.left_vectors[:, : self.rank]
        return _memo(self, "range_k", lambda: Subspace(self.dim, basis))

    @property
    def proj_range_k(self) -> np.ndarray:
        return _memo(self, "proj_range_k", lambda: _read_only(self.range_k.projector()))

    @property
    def proj_range_k_adjoint(self) -> np.ndarray:
        return self.adjoint().proj_range_k

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    @property
    def rank(self) -> int:
        return self.factors.rank

    def is_zero(self) -> bool:
        return self.rank == 0

    def norm(self) -> float:
        return float(self.factors.singular_values[0])

    def pinv_norm(self) -> float:
        r = self.rank
        return 1.0 / float(self.factors.singular_values[r - 1]) if r else 0.0

    def adjoint(self) -> "OperatorEnv":
        return _memo(
            self, "adjoint", lambda: OperatorEnv(self.k_adjoint, self.factors.adjoint())
        )

    @staticmethod
    def identity(n: int) -> "OperatorEnv":
        return OperatorEnv.from_matrix(np.eye(n, dtype=np.complex128))
