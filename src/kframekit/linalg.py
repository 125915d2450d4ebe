"""Dense complex linear algebra kernel.

Matrices are two-dimensional ``numpy`` arrays of ``complex128``; the helpers
here add the pieces the frame-theory layers need on top of LAPACK:
rank-revealing SVD with one scale-invariant cutoff (``_rank``: singular
values above sigma_max * max(rows, cols) * 2^-40) whose ``SvdFactors`` hold the
singular vectors of the kept values alone (U_r, V_r), Moore-Penrose
pseudo-inverses, orthonormal range bases read off the SVD, range-inclusion
tests (decided by the committed rank alone, residual 0, when the including
range is all of C^m) with the associated factorization (given operators L1, L2 with
R(L1) inside R(L2) there is an X with L2 X = L1, and the least lambda with
L1 L1* <= lambda^2 L2 L2* equals the norm of the minimal X), the inverse of
an operator A = L R* restricted to a subspace, applied in factored order on
L's own ``SvdFactors`` (``_Restriction``: A is never formed, so neither is a
frame operator, and the adjoint form applies U_r itself, never L V_r Sigma^-1).
The rank test on the SVD of its r x k operand B is the one decision that A is
invertible on the subspace.

All "closed range" hypotheses of the underlying operator theory are vacuous
here: everything is finite dimensional, and only numerical rank is ever
tested, always by ``_rank``; no caller sets a cutoff. Every object is an
immutable value and every function is pure, so unrestricted concurrent use
is safe.

Each function factors its operand once: ``majorization_constant`` passes one
``SvdFactors`` through every step that needs it. Douglas' lemma is decided once,
in the private ``_douglas`` step (inclusion test raising the caller's error,
minimal solution, residual gate), which the K-frame hypothesis and both multiplier
inverses share. It applies the factors in order (``SvdFactors.solve``) and reads
lambda off the r x m core Sigma_r^-1 U_r* l1. ``_majorization`` certifies lambda
from both sides by plain products on l1 and l2 (a witness vector from below, the
Douglas residual from above), each to a fixed multiple of d kappa eps lambda, d the
largest operand dimension. Reported residuals are spectral norms, an identity's read
on K's rank-k coordinates on the side where it puts P_K, K or K* (``_range_residual``,
the same up to sigma_{k+1}; its verdict is ``range_identity_check``); one that only gates
(``_within``: the K-frame hypothesis's inclusion, and the Douglas inclusions discarded by
``majorization_constant`` and both K-inverses) is decided on its Frobenius norm first.
Every identity is homogeneous, so every verdict is one gate, ``_gate``:
residual <= tol * scale, for a plain float ``tol`` (the one user-set threshold, ``IDENTITY_TOL``
by default), the magnitude ``scale`` of the identity's terms and no absolute floor, so no
verdict depends on the units of the input. A gate that raises its residual raises through
``_require``; a result type's ``passed`` is the conjunction of its verdicts (``_Verdicts``). An
``OperatorEnv`` stores K and its one ``SvdFactors`` and reads K*, its range basis
U_k, its norms, its adjoint, its range factor K V_k (n x k) and the env of Sigma_k
off them; it forms no n x n projector, and its self-check no n x n product.
``svd_decompose(m).pinv()`` is the pseudo-inverse of a matrix,
``env.factors.pinv()`` is K^dagger. A memoized value is the value a fresh
computation returns, and memo entries are only ever added, every caller getting
the stored entry, so concurrent use stays safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    NonFiniteInput,
    RangeNotIncluded,
    RankDeficientRestriction,
    ShapeMismatch,
)

__all__ = [
    "IDENTITY_TOL",
    "RANK_SCALE",
    "SvdFactors",
    "OperatorEnv",
    "CheckResult",
    "as_matrix",
    "spectral_norm",
    "svd_decompose",
    "majorization_constant",
    "range_identity_check",
]


# default relative tolerance of operator identities; numerical rank is the fixed rule of _rank
IDENTITY_TOL = 1e-10

# relative slack of a guarantee a theorem gives and of two routes to one value
_SLACK = 1e-9
# lambda's certificates lie within _CERTIFICATE d kappa eps lambda of it, d the largest
# operand dimension (``_majorization``)
_CERTIFICATE = 40.0
# numerical rank counts singular values above sigma_max * max(rows, cols) * RANK_SCALE
RANK_SCALE = 2.0 ** -40


def _rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of ``shape`` with these (descending) singular values."""
    sigma_max = float(singular_values[0]) if singular_values.size else 0.0
    return int(np.sum(singular_values > sigma_max * max(shape) * RANK_SCALE))


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
    """Memoize ``fn(value, env, tol)`` on ``value``, keyed on (env, tol).

    An env hashes by identity and the key holds it; an env never refers back
    to the values that memoize results for it, which keeps the references
    one-way and free of cycles. Failures are not memoized.
    """

    @functools.wraps(fn)
    def memoized(value, env, tol=IDENTITY_TOL):
        return _memo(value, (fn.__name__, env, tol), lambda: fn(value, env, tol))

    return memoized


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only 2-d complex128 array, rejecting NaN/Inf."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise ShapeMismatch(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return _read_only(a.copy())


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _norm(m: np.ndarray) -> float:
    """|m|_F, divided by m's largest modulus first, so it neither under- nor overflows."""
    top = float(np.max(np.abs(m), initial=0.0))
    return top * float(np.linalg.norm(m / top)) if top else 0.0


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD cut to its numerical rank r.

    ``left_vectors`` U_r and ``right_vectors`` V_r hold the r orthonormal singular
    vectors of the singular values ``_rank`` keeps, and ``rank`` is their column count;
    ``singular_values`` holds every singular value, descending, so the tail past the
    rank (sigma_{r+1}, or sigma_1 = 0 of a zero matrix) is still read.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return self.left_vectors.shape[1]

    def _range_factor(self) -> np.ndarray:
        """U_r Sigma_r: the same range, and the same norms |X U_r Sigma_r| = |X A| but for
        the tail the rank drops."""
        return self.left_vectors * self.singular_values[: self.rank]

    def adjoint(self) -> "SvdFactors":
        """Factors of the conjugate transpose: the same SVD read backwards."""
        return SvdFactors(self.right_vectors, self.singular_values, self.left_vectors)

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse, truncated at the committed rank."""
        return (self.right_vectors / self.singular_values[: self.rank]) @ self.left_vectors.conj().T

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, C) with the r x m core C = (Sigma_r^-1 U_r*) rhs and X = V_r C = ``pinv() @ rhs``.

        V_r mixes only after the division, so the residual stays at rounding level.
        """
        core = (self.left_vectors.conj().T / self.singular_values[: self.rank, None]) @ rhs
        return self.right_vectors @ core, core


def svd_decompose(m) -> SvdFactors:
    """Thin SVD of ``m`` cut to its numerical rank (``_rank``), gated on LAPACK's full
    factors by ``_cut``.

    Deterministic for fixed input; raises NonFiniteInput on NaN/Inf.
    """
    a = as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return _cut(u, s, vh.conj().T, a)


def _cut(u: np.ndarray, s: np.ndarray, w: np.ndarray, a: np.ndarray) -> SvdFactors:
    """The ``SvdFactors`` of ``a`` = U diag(s) W*: InternalConsistencyError unless the stored
    vectors reconstruct ``a`` to ``IDENTITY_TOL`` |a|_F beyond the singular values they lack,
    then cut to the rank ``_rank`` reads for a's shape, copied only when columns are dropped."""
    dropped = float(np.linalg.norm(s[u.shape[1]:]))
    resid = float(np.linalg.norm((u * s[: u.shape[1]]) @ w.conj().T - a))
    _require(_gate(resid - dropped, float(np.linalg.norm(a)), IDENTITY_TOL),
             InternalConsistencyError, f"SVD reconstruction residual {resid:.3e} exceeds tolerance")
    r = _rank(s, a.shape)
    if r < u.shape[1]:
        u, w = u[:, :r].copy(), w[:, :r].copy()
    return SvdFactors(_read_only(u), _read_only(s), _read_only(w))


@dataclass(frozen=True)
class CheckResult:
    """The one verdict type: ``ok``, the residual and the threshold it was tested against."""

    ok: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.ok


class _Verdicts:
    """Base of the result types: ``passed`` is the conjunction of every verdict held, the
    ``CheckResult`` fields, the values of a dict field and the ``passed`` of nested results.
    A None field and a field that holds no verdict do not count."""

    @property
    def passed(self) -> bool:
        return all(map(_holds, vars(self).values()))


def _holds(value) -> bool:
    """False only for a failed verdict, a failed result or a dict holding one."""
    if isinstance(value, dict):
        return all(map(_holds, value.values()))
    if isinstance(value, _Verdicts):
        return value.passed
    return value.ok if isinstance(value, CheckResult) else True


def _require(check: CheckResult, error, message: str) -> CheckResult:
    """``check`` if it passed, else raise ``error(message.format(r, t), r)`` for its residual r
    and threshold t: the one site where a failed gate raises."""
    if not check:
        raise error(message.format(check.residual, check.threshold), check.residual)
    return check


def _gate(residual: float, scale: float, tol: float) -> CheckResult:
    """residual <= tol * scale in Python types, ``scale`` of the same degree as ``residual``."""
    threshold = _threshold(tol, scale)
    return CheckResult(bool(residual <= threshold), float(residual), float(threshold))


def _threshold(tol: float, scale: float) -> float:
    """tol * scale, the threshold of every gate; 0.0 at a zero scale, where an infinite
    ``tol`` would give inf * 0 = nan. ``tol`` is checked first (``_nonnegative``)."""
    tol = _nonnegative(tol)
    return tol * scale if scale else 0.0


def _nonnegative(threshold: float) -> float:
    """``threshold``; ValueError if NaN or negative (0 is an exact test, inf a vacuous one)."""
    if not threshold >= 0.0:
        raise ValueError(f"a tolerance must be a non-negative number, got {threshold!r}")
    return threshold


def _inclusion(
    a: np.ndarray, f2: SvdFactors, norm_a: float, tol: float
) -> CheckResult:
    """R(a) inside R(l2) from the factors ``f2`` of l2, given norm(a): the residual of
    (I - P_{R(l2)}) a, 0 at full row rank."""
    if f2.rank == a.shape[0]:
        return _gate(0.0, norm_a, tol)
    basis = f2.left_vectors
    return _gate(spectral_norm(a - basis @ (basis.conj().T @ a)), norm_a, tol)


def _douglas(
    a: np.ndarray, b: np.ndarray, f2: SvdFactors, norm_a: float, tol: float,
    error=RangeNotIncluded, ranges: str = "R(l1) not contained in R(l2)",
) -> tuple[CheckResult, np.ndarray, np.ndarray, np.ndarray]:
    """Douglas' lemma for ``b X = a`` from the factors ``f2`` of ``b``.

    Returns the passed inclusion verdict, which no caller reports, so ``_within`` decides
    it (failure raises ``error``, message "``ranges``: residual ... > threshold ..."), and
    ``_douglas_solution``'s X, core and residual.
    """
    inclusion = _gate(0.0, norm_a, tol)
    if f2.rank < a.shape[0]:
        basis = f2.left_vectors
        inclusion = _within(a - basis @ (basis.conj().T @ a), _threshold(tol, norm_a), error,
                            ranges + ": residual {:.3e} > threshold {:.3e}")
    return (inclusion, *_douglas_solution(a, b, f2, norm_a, tol))


def _douglas_solution(
    a: np.ndarray, b: np.ndarray, f2: SvdFactors, norm_a: float, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = pinv(b) a, its core (``SvdFactors.solve``) and the residual E = b X - a, whose
    norm is gated at the identity tolerance, once R(a) is known to lie in R(b)."""
    x, core = f2.solve(a)
    residual = b @ x - a
    _within(residual, _threshold(tol, norm_a), InternalConsistencyError,
            "factorization residual {:.3e} despite range inclusion")
    return x, core, residual


def _within(r: np.ndarray, threshold: float, error=None, message: str = "") -> CheckResult:
    """The verdict |r|_2 <= ``threshold`` on a residual that is never reported.

    |r|_F / sqrt(min(m, n)) <= |r|_2 <= |r|_F (``_norm``, which neither under- nor
    overflows), so |r|_2 (an SVD) is computed
    only when ``threshold`` lies between those bounds, or to decide the verdict through
    ``_require(verdict, error, message)`` when ``error`` is given. The verdict's
    residual is |r|_2 where it was computed, else nan: it was never measured.
    """
    fro, threshold = _norm(r), _nonnegative(threshold)
    if fro <= threshold or (error is None and fro > threshold * np.sqrt(min(r.shape))):
        return CheckResult(bool(fro <= threshold), np.nan, float(threshold))
    resid = spectral_norm(r)
    check = CheckResult(bool(resid <= threshold), resid, float(threshold))
    return check if error is None else _require(check, error, message)


def majorization_constant(l1, l2, tol: float = IDENTITY_TOL) -> float:
    """Least lambda >= 0 with l1 l1* <= lambda^2 l2 l2*: the spectral norm of the minimal
    Douglas solution, certified from both sides by ``_majorization`` (else
    InternalConsistencyError)."""
    a = as_matrix(l1, "l1")
    b = as_matrix(l2, "l2")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    f2 = svd_decompose(b)
    _, _, core, residual = _douglas(a, b, f2, spectral_norm(a), tol)
    return _majorization(a, b, f2, core, residual)[0]


def _majorization(a: np.ndarray, b: np.ndarray, f2: SvdFactors, core: np.ndarray,
                  residual: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """lambda = s_1 of the minimal Douglas solution's ``core``, certified by plain products,
    and the norms (|w|, |a* w|, |b* w|) at a multiple w of its witness (all 0 when b = 0 or a
    has no columns).

    From below, lambda >= |a* w| / |b* w| for any w with b* w != 0, equal at the witness
    w = U_r Sigma_r^-1 u_1 (u_1 the core's top left singular vector). From above, lambda <=
    |V_r core| + |b^+ E| <= s_1 + |U_r* E|_F / sigma_r for the Douglas ``residual`` E (U_r* E
    is E at full row rank). A certificate farther than 40 d kappa eps lambda from lambda
    (d the largest dimension of a and b, kappa = kappa(b); 3x the largest measured gap per
    unit of d) raises InternalConsistencyError.
    """
    r, s = f2.rank, f2.singular_values
    if not r or not a.shape[1]:  # the inclusion test admits only a = 0 into R(0)
        return 0.0, (0.0, 0.0, 0.0)
    vectors, values, _ = np.linalg.svd(core, full_matrices=False)
    lam, basis = float(values[0]), f2.left_vectors
    witness = basis @ (vectors[:, 0] * (s[r - 1] / s[:r]))  # sigma_r w: no entry above 1
    norms = _norm(witness), _norm(a.conj().T @ witness), _norm(b.conj().T @ witness)
    below = norms[1] / norms[2]
    in_range = residual if r == a.shape[0] else basis.conj().T @ residual
    above = lam + _norm(in_range) / float(s[r - 1])
    gap = max(abs(lam - below), above - lam)
    unit = max(a.shape + b.shape) * np.finfo(float).eps * float(s[0] / s[r - 1])
    _require(_gate(gap, lam, _CERTIFICATE * unit), InternalConsistencyError, "majorization routes "
             f"disagree: lambda {lam!r}, witness {below!r}, upper bound {above!r}")
    return lam, norms


@dataclass(frozen=True)
class _Restriction:
    """(A|_V)^-1 P_{A(V)} = Q B^+ U_r* for A = L R*, L = U_r Sigma V_r* (``left``), Q a basis of V.

    A Q = U_r B for the r x k operand B = Sigma V_r* R* Q, whose one SVD is ``b``;
    A is never formed.
    """

    left: SvdFactors
    b: SvdFactors

    def coordinates(self) -> np.ndarray:
        """B^+ Sigma = V_B (Sigma_B^-1 U_B* Sigma) (k x r): the restriction applied to L is
        Q (B^+ Sigma) V_r*."""
        b = self.b
        core = b.left_vectors.conj().T / b.singular_values[: b.rank, None]
        return b.right_vectors @ (core * self.left.singular_values[: self.left.rank])

    def apply_adjoint(self, c: np.ndarray) -> np.ndarray:
        """U_r (B^+)* c: the adjoint restriction applied to Q c."""
        return self.left.left_vectors @ self.b.adjoint().solve(c)[0]


def _restricted_inverse(left: SvdFactors, b: SvdFactors) -> _Restriction:
    """``_Restriction`` on the one SVD ``b`` of B; RankDeficientRestriction if A collapses V,
    FloatingPointError if B's least singular value, which ``coordinates`` divides by, is
    subnormal."""
    if b.rank < b.right_vectors.shape[0]:
        raise RankDeficientRestriction(
            f"operator collapses the subspace: rank {b.rank} < dim {b.right_vectors.shape[0]}"
        )
    return _Restriction(left, _divisible(b, "the least singular value of B"))


def _divisible(factors: SvdFactors, least: str) -> SvdFactors:
    """``factors``; FloatingPointError naming ``least`` when the least kept singular value,
    which a solve divides by, is subnormal."""
    value = factors.singular_values[factors.rank - 1] if factors.rank else np.inf
    if value < np.finfo(float).tiny:
        raise FloatingPointError(f"{least}, {value:g}, is subnormal")
    return factors


@dataclass(frozen=True, eq=False)
class OperatorEnv:
    """An operator K with its one SVD, from which its geometry is read.

    Satisfies K K^dagger = P_{R(K)} and P_{R(K)} K = K (the self-check gates the
    same norms as |K V_k Sigma_k^-1 - U_k| and |U_k (U_k* K) - K|); ``adjoint()``
    swaps K and K*, which is how every K*-frame question is asked; a Hermitian K is its own
    adjoint env. K* and ``adjoint()`` are derived from ``factors`` on first use and memoized
    on the value; ``range_basis`` (U_k, the factors' own left vectors, never copied) and
    the norms read the factors. An env holds its adjoint, and the adjoint never refers back
    to it. A product that must equal K or K* reads V_k and K* U_k off ``corange_basis`` and
    ``corange_factor``, paired with U_k, never off ``adjoint()`` (U_k again, off V_k by
    signs, for an indefinite Hermitian K). An env compares and hashes by identity, so it
    keys the memo entries of the values that derive results for it.
    K-frame questions are asked on ``range_factor`` or ``range_coordinates``; both
    drop only K - K V_k V_k*, of norm sigma_{k+1} <= n 2^-40 |K| (``_rank``), which
    the self-check caps: |P_{R(K)} K - K| <= sigma_{k+1} + tol |K|.
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
        f, r = self.factors, self.rank
        u, tol = self.range_basis, IDENTITY_TOL * self.norm()
        _within(self.k @ (f.right_vectors / f.singular_values[:r]) - u,
                _threshold(tol, self.pinv_norm()), InternalConsistencyError,
                "K K^dagger differs from the range projector by {:.3e}")
        dropped = f.singular_values[r:]  # P_R(K) K - K has norm sigma_{k+1}
        _within(u @ (u.conj().T @ self.k) - self.k, (dropped[0] if dropped.size else 0.0) + tol,
                InternalConsistencyError, "P_R(K) K differs from K by {:.3e}")

    @property
    def k_adjoint(self) -> np.ndarray:
        return _memo(self, "k_adjoint", lambda: as_matrix(self.k.conj().T))

    @property
    def range_basis(self) -> np.ndarray:
        """U_k (n x k), an orthonormal basis of R(K)."""
        return self.factors.left_vectors

    @property
    def corange_basis(self) -> np.ndarray:
        """V_k (n x k), an orthonormal basis of R(K*) paired with U_k by K V_k = U_k Sigma_k."""
        return self.factors.right_vectors

    @property
    def range_factor(self) -> np.ndarray:
        """U_k Sigma_k = K V_k (n x k)."""
        return _memo(self, "range_factor", lambda: _read_only(self.factors._range_factor()))

    @property
    def corange_factor(self) -> np.ndarray:
        """V_k Sigma_k = K* U_k (n x k), paired with U_k as ``corange_basis`` is."""
        return self.factors.adjoint()._range_factor()

    @property
    def range_coordinates(self) -> "OperatorEnv":
        """The env of Sigma_k = U_k* K V_k, built on known factors, not ``from_matrix``;
        ``adjoint()`` shares it, since Sigma_k is its own adjoint."""
        s = self.factors.singular_values[: self.rank]

        def build():
            eye = _read_only(np.eye(s.size, dtype=np.complex128))
            return OperatorEnv(_read_only(np.diag(s.astype(np.complex128))),
                               SvdFactors(eye, s, eye))

        return _memo(self, "range_coordinates", build)

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    @property
    def rank(self) -> int:
        return self.factors.rank

    def norm(self) -> float:
        return float(self.factors.singular_values[0])

    def pinv_norm(self) -> float:
        r = self.rank
        return 1.0 / float(self.factors.singular_values[r - 1]) if r else 0.0

    def adjoint(self) -> "OperatorEnv":
        """The env of K*: this env itself if ``hermitian`` (never a memo entry), else a new one."""
        def build():
            adj = OperatorEnv(self.k_adjoint, self.factors.adjoint())
            adj._memo["range_coordinates"] = self.range_coordinates
            return adj

        return self if self.hermitian else _memo(self, "adjoint", build)

    @property
    def hermitian(self) -> bool:
        """K = K* entry for entry, memoized; it builds neither K* nor the adjoint env."""
        return _memo(self, "hermitian", lambda: bool(np.array_equal(self.k, self.k.conj().T)))


def _range_residual(env: OperatorEnv, *factors: np.ndarray, right: bool = False) -> np.ndarray:
    """U_k* F_1 ... F_j - Sigma_k V_k* (k x m), or with ``right`` F_1 ... F_j V_k - U_k Sigma_k
    (m x k): the residual of F_1 ... F_j = K on the side where the identity puts P_K, K or K*,
    read on K's rank-k coordinates. Its norm is the n x n residual's up to sigma_{k+1}
    (``OperatorEnv``) and rounding."""
    if right:
        v = env.corange_basis
        return functools.reduce(lambda x, f: f @ x, factors[::-1], v) - env.range_factor
    u = env.range_basis.conj().T
    return functools.reduce(np.matmul, factors, u) - env.corange_factor.conj().T


def range_identity_check(env: OperatorEnv, *factors: np.ndarray, tol: float = IDENTITY_TOL,
                         right: bool = False) -> CheckResult:
    """The verdict on F_1 ... F_j = K: the spectral norm of its residual on K's rank-k
    coordinates (``_range_residual``, ``right`` as there) against ``tol`` |K|."""
    return _gate(spectral_norm(_range_residual(env, *factors, right=right)), env.norm(), tol)
