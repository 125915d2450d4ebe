"""Factor once: factorization counts, memo correctness, and no reference cycles.

Values memoize what they derive from their factorizations. These tests pin
how many LAPACK factorizations the K-dual pipeline makes, that a memoized
result is bit-identical to a fresh one and never crosses tolerance
policies, and that the memo references stay one-way (no cycles), so values
die as soon as the caller drops them.
"""

import gc
import hashlib
import importlib.util
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    admissible_perturbation,
    both_inclusion_instance,
    crandn,
    graded_instance,
    minimal_instance,
    random_k_frame,
    random_rank_matrix,
    range_projector,
    well_conditioned,
)
import kframekit
from kframekit import (
    IDENTITY_TOL,
    Frame,
    Multiplier,
    OperatorEnv,
    Symbol,
    assemble_multiplier,
    biorthogonal_right_inverse,
    canonical_coefficients,
    canonical_k_dual,
    dual_family_generate,
    frames_from_multiplier_identity,
    inverse_as_multiplier,
    k_dual_lower_bounds,
    k_frame_check,
    k_left_inverse,
    k_right_inverse,
    noncommutativity_witness,
    perturbation_condition,
    perturbation_k_dual,
    optimal_bessel_bound,
    perturbation_right_inverse,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
    svd_decompose,
    verify_k_dual,
)
from kframekit import cli, io
from kframekit.cli import main
from kframekit.duality import _coordinates, _require_k_dual, _restriction
from kframekit.errors import InternalConsistencyError, NotADual, NotKFrame, RangeNotIncluded
from kframekit.frames import _factors, _k_frame_hypothesis
from kframekit.linalg import (
    CheckResult,
    SvdFactors,
    _inclusion,
    majorization_constant,
    spectral_norm,
)
from kframekit.multipliers import _perturbed_restriction, _projected
from kframekit.worked import projection_example, reproduce_examples

# k_frame_check makes at most 3 per (frame, operator) pair (the SVD of T_F, the inclusion
# residual's norm and the SVD of lambda's core; 5 with the QR route's QR and solve) and
# the pipeline checks three pairs; add the SVD of B = Sigma^2 U_r* Q for the canonical
# dual and the dual-identity residual; the canonical coefficients factor nothing (20 -> 11)
PIPELINE_CEILING = 11
# one run of each CLI command that validates the optimal pair it has just computed: the
# pair is read against k_frame_check's memoized bounds, not on an eigvalsh of
# S_F - A K K* (dual 19 -> 18, perturb-check 8 -> 7). Each majorization cross-check
# passes on its Gram difference, without the QR route's norm (dual 18 -> 15: the frame's,
# the dual's and the projected frame's lambda; perturb-check 7 -> 6). lambda is
# certified by plain products, with no QR or solve (dual 15 -> 9, perturb-check 6 -> 4).
# A frame path given twice is loaded once, so Psi is Phi and the zero perturbation
# takes no norm (perturb-check 4 -> 3)
CLI_VALIDATING = {"dual": 9, "perturb-check": 3}
# one run of kframe analyze: the SVDs of K and T_F, the SVD of lambda's core and
# tightness_check's residual norm; lambda's certificates (6 -> 4) and both inequalities
# are plain products at vectors the SVDs hold, so they add none
CLI_ANALYZE = 4
# perturbation_right_inverse after perturbation_k_dual on the same arguments: the
# multiplier form of R and the K-identity residuals; no multiplier and none of its
# frames is factored, and the dual choice's K-dual identity only gates, so its
# residual is decided on its Frobenius norm and takes no SVD when it passes (3 -> 2)
PERTURBED_RIGHT_INVERSE = 2
# one op of the multipliers-n16 bench workload: the bench's factorizations_per_op
# (42), plus the QR and the triangular solve of each of its 3 majorization
# cross-checks (the optimal bounds of frames_from_multiplier_identity's two sides and
# k_right_inverse's lambda), which the bench does not count. The range-inclusion and
# biorthogonal constructions test their four K-frame hypotheses by the inclusion alone
# (each without lambda's norm, the cross-check's QR, solve and norm), and the
# perturbation dual's certificate computes no lower bounds (the SVD, two norms, QR
# and solve of each of its two k_frame_checks): 75 -> 49. The perturbation condition
# reads Phi's bound pair against the optimal bounds frames_from_multiplier_identity
# memoized, not on an eigvalsh of S_Phi - a K K*: 49 -> 48. The two dual-choice gates
# (perturbation_right_inverse's and inverse_as_multiplier's) pass on their Frobenius
# norms, with no SVD: 48 -> 46. The 3 cross-checks pass on their Gram differences,
# without the QR route's norm: 46 -> 43. The 3 lambdas are certified by plain products,
# with no QR or solve: 43 -> 37, the bench's own count
MULTIPLIERS_OP = 37
# one reproduce_examples(): one env per distinct K (the range-inclusion instance reads the
# projection example's K), a Hermitian K's K*-questions read its K-side memo, and Psi = Phi
# takes no norm of a zero perturbation and no second SVD of B_ref (41 -> 33)
GOLDEN_SUITE = 33
# frames_from_multiplier_identity(M_{1,Phi,Phi}, env) on an 8 x 8 rank-4 projection K: M's
# SVD, lambda's core of the right inverse, T_Phi's SVD, lambda's core of Phi's bounds and
# |U_k* L|; Psi's K*-frame bounds are Phi's K-frame bounds, memoized, when K = K*, and take
# lambda's core anew against K nudged by one ulp
MULTIPLIER_IDENTITY = {"hermitian": 5, "nudged": 6}


def instance(seed: int, n: int = 8, count: int = 12, rank: int = 4):
    """(vectors, K, target) of a well-conditioned K-frame with rank(K) = rank."""
    rng = np.random.default_rng(seed)
    while True:
        syn = crandn(rng, n, count)
        k = syn @ (crandn(rng, count, rank) @ crandn(rng, rank, n))
        if well_conditioned(syn) and well_conditioned(k, rank):
            return syn.T.copy(), k, crandn(rng, n)


def perturbation_instance(seed: int, count: int = 12):
    """(Phi, Psi, env, m, bounds) with Psi at half the perturbation threshold of Phi."""
    vectors, k, _ = instance(seed, count=count)
    rng = np.random.default_rng(seed)
    f, env = Frame(vectors), OperatorEnv.from_matrix(k)
    found = k_frame_check(f, env)
    bounds = (found.lower, found.upper)
    m = Symbol.semi_normalized(rng.uniform(0.5, 2.0, size=f.size))
    tau = perturbation_condition(f, f, env, m, *bounds).tau
    bump = crandn(rng, *vectors.shape)
    psi = Frame(vectors + (0.5 * tau / spectral_norm(bump.conj() @ env.range_basis)) * bump)
    return f, psi, env, m, bounds


def pipeline(f, env, target, tol=IDENTITY_TOL):
    bounds = k_frame_check(f, env, tol)
    dual = canonical_k_dual(f, env, tol)
    cert = verify_k_dual(f, dual, env, tol)
    lower = k_dual_lower_bounds(cert, tol)
    coeffs = canonical_coefficients(f, env, target, tol)
    return bounds, dual, cert, lower, coeffs


def assert_identical(a, b):
    bounds_a, dual_a, cert_a, lower_a, coeffs_a = a
    bounds_b, dual_b, cert_b, lower_b, coeffs_b = b
    assert (bounds_a.lower, bounds_a.upper) == (bounds_b.lower, bounds_b.upper)
    np.testing.assert_array_equal(dual_a.vectors, dual_b.vectors)
    assert cert_a.identity == cert_b.identity
    assert cert_a.lower_bound_report == cert_b.lower_bound_report
    assert lower_a == lower_b
    np.testing.assert_array_equal(coeffs_a, coeffs_b)


@pytest.fixture()
def factorizations(monkeypatch):
    """Counter of svd / eigh / eigvalsh / qr / solve calls, including norm(., 2)'s svd.

    ``inputs`` holds the operand of every counted call and ``names`` the
    entry point it went through.
    """
    counter = {"n": 0, "inputs": [], "names": []}

    def count(owner, name, label=None):
        original = getattr(owner, name)

        def counted(a, *args, **kwargs):
            counter["n"] += 1
            counter["inputs"].append(np.array(a))
            counter["names"].append(label or name)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("svd", "eigh", "eigvalsh", "qr", "solve"):
        count(np.linalg, name)
    count(np.linalg._linalg, "svd", "svd_norm")  # the binding np.linalg.norm(., 2) calls
    return counter


def load_workloads(monkeypatch):
    """bench/workloads.py as a module; its dataclasses look it up in ``sys.modules``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def operands(counter, name):
    """Shapes of the operands of the counted ``name`` calls, in call order."""
    return [a.shape for a, n in zip(counter["inputs"], counter["names"]) if n == name]


def repeats(counter):
    """(entry point, operand) of each counted call whose operand is byte-equal to an earlier
    one's, hashed as ``bench/probes.FactorCounter`` hashes them."""
    seen, out = set(), []
    for a, name in zip(counter["inputs"], counter["names"]):
        key = (a.shape, a.dtype.str, hashlib.blake2b(np.ascontiguousarray(a).data).digest())
        if key in seen:
            out.append((name, a))
        seen.add(key)
    return out


def hermitian_projection(seed: int, n: int = 8, rank: int = 4) -> np.ndarray:
    """An n x n orthogonal projection of rank ``rank``, equal to its adjoint entry for entry."""
    q = np.linalg.qr(crandn(np.random.default_rng(seed), n, rank))[0]
    p = q @ q.conj().T
    return (p + p.conj().T) / 2


def nudged(k: np.ndarray) -> np.ndarray:
    """``k`` with the real part of its (0, 1) entry moved up by one ulp: no longer Hermitian."""
    out = k.copy()
    out[0, 1] = np.nextafter(k[0, 1].real, np.inf) + 1j * k[0, 1].imag
    return out


class TestCounts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pipeline_under_ceiling(self, factorizations, seed):
        vectors, k, target = instance(seed)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        pipeline(f, env, target)
        assert factorizations["n"] <= PIPELINE_CEILING

    def test_k_frame_check_on_a_fresh_pair(self, factorizations):
        # the SVD of T_F and the SVD of lambda's core, whose certificates are plain
        # products (no QR or solve, 4 -> 2); T_F spans C^8, so its rank decides the
        # inclusion with no residual norm
        vectors, k, _ = instance(10)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        k_frame_check(f, env)
        assert factorizations["n"] == 2

    def test_rank_deficient_frame_keeps_the_inclusion_residual(self, factorizations):
        # T_F is 8 x 6, so R(T_F) is not C^8 and the inclusion is still decided on
        # the spectral norm of (I - U_r U_r*) K V_k (8 x 4), both when it holds and
        # when it fails, with the residual that norm gives
        vectors, k, _ = instance(10, count=6)
        rng = np.random.default_rng(10)
        f, inside = Frame(vectors), OperatorEnv.from_matrix(k)
        outside = OperatorEnv.from_matrix(crandn(rng, 8, 4) @ crandn(rng, 4, 8))
        basis, a = _factors(f).left_vectors, outside.range_factor
        assert basis.shape == (8, 6)
        residual = spectral_norm(a - basis @ (basis.conj().T @ a))
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        k_frame_check(f, inside)
        assert operands(factorizations, "svd_norm")[0] == (8, 4)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        with pytest.raises(NotKFrame) as exc:
            k_frame_check(f, outside)
        assert exc.value.residual == residual
        assert operands(factorizations, "svd_norm") == [(8, 4)]

    def test_perturbed_restriction_is_built_once(self, factorizations):
        # perturbation_right_inverse reads the restriction perturbation_k_dual built
        # on the same (Phi, Psi, K, m, bounds): the condition's eigvalsh and rho norm,
        # the SVD of B_ref, the distance norm and the SVD of B are not redone
        f, psi, env, m, bounds = perturbation_instance(24)
        dual = canonical_k_dual(f, env)
        perturbation_k_dual(f, psi, env, m, bounds)
        factorizations["n"] = 0
        factorizations["names"].clear()
        perturbation_right_inverse(f, psi, env, m, bounds, dual)
        assert "eigvalsh" not in factorizations["names"]
        assert factorizations["n"] == PERTURBED_RIGHT_INVERSE
        restriction = _perturbed_restriction(f, psi, env, m, bounds, IDENTITY_TOL)
        assert _perturbed_restriction(f, psi, env, m, list(bounds), IDENTITY_TOL) is restriction

    def test_passing_dual_gate_takes_no_svd(self, factorizations):
        # the K-dual gate of a dual choice only gates: a pass is decided on the Frobenius
        # norm of the k x n residual; a failure raises NotADual with verify_k_dual's
        # spectral residual, the one SVD taken
        vectors, k, _ = instance(11)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        dual = canonical_k_dual(f, env)
        stranger = Frame(dual.vectors + crandn(np.random.default_rng(11), *dual.vectors.shape))
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        _require_k_dual(f, dual, env, IDENTITY_TOL, "not a dual")
        assert factorizations["names"] == []
        with pytest.raises(NotADual) as exc:
            _require_k_dual(f, stranger, env, IDENTITY_TOL, "not a dual")
        assert operands(factorizations, "svd_norm") == [(4, 8)]
        assert exc.value.residual == verify_k_dual(f, stranger, env).residual
        assert str(exc.value) == f"not a dual (residual {exc.value.residual:.3e})"

    def test_perturbed_restriction_has_rank_t_phi_rows(self, factorizations):
        # rank T_Phi = N = 6 < n = 8: rho, the margin's B_ref, the distance and B are
        # all read in T_Phi's row coordinates, 6 x 4, never as n x 4 operators
        f, psi, env, m, bounds = perturbation_instance(10, count=6)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        _perturbed_restriction(f, psi, env, m, bounds, IDENTITY_TOL)
        assert operands(factorizations, "svd") == [(6, 4)] * 2
        assert operands(factorizations, "svd_norm") == [(6, 4)] * 2

    def test_canonical_dual_on_a_fresh_pair_computes_no_bound(self, factorizations):
        # the dual needs F to be a K-frame, which is R(K) in R(T_F): the SVD of T_F
        # decides it by its rank (T_F spans C^8), so the only other factorization is
        # the SVD of B; no lambda norm, and no QR or solve of the cross-check
        vectors, k, _ = instance(10)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["names"].clear()
        canonical_k_dual(f, env)
        assert not {"qr", "solve", "svd_norm"} & set(factorizations["names"])
        assert factorizations["names"] == ["svd", "svd"]

    def test_k_frame_check_reuses_the_hypothesis(self, factorizations):
        # the hypothesis, then the bounds on the same pair: exactly k_frame_check's own
        # three factorizations (the SVD of T_F, the inclusion residual's norm and the SVD
        # of lambda's core; T_F is 8 x 6, so R(T_F) is not C^8), none on a repeated
        # operand, and the bounds carry the memoized verdict
        vectors, k, _ = instance(10, count=6)
        counts = []
        for hypothesis_first in (False, True):
            f, env = Frame(vectors), OperatorEnv.from_matrix(k)
            factorizations["n"] = 0
            factorizations["inputs"].clear()
            if hypothesis_first:
                inclusion = _k_frame_hypothesis(f, env)
            bounds = k_frame_check(f, env)
            counts.append(factorizations["n"])
            inputs = factorizations["inputs"]
            assert not any(np.array_equal(a, b) for i, a in enumerate(inputs) for b in inputs[:i])
        assert counts == [3, 3]
        assert bounds.inclusion is inclusion
        assert _k_frame_hypothesis(f, env) is inclusion

    def test_k_frame_check_applies_the_factors_once(self, monkeypatch):
        # on a fresh pair lambda's core and Douglas residual come from the hypothesis's one
        # Douglas pass (one solve); after a memoized verdict they are solved for once more,
        # since the upper certificate reads the residual of X = V_r core. The memo keeps
        # the verdict and the bounds, no core, and lambda is the same float
        calls = []
        solve = SvdFactors.solve

        def counted(self, rhs):
            calls.append(rhs.shape)
            return solve(self, rhs)

        monkeypatch.setattr(SvdFactors, "solve", counted)
        vectors, k, _ = instance(10, count=6)
        found = []
        for hypothesis_first in (False, True):
            f, env = Frame(vectors), OperatorEnv.from_matrix(k)
            if hypothesis_first:
                _k_frame_hypothesis(f, env)
            calls.clear()
            found.append(k_frame_check(f, env))
            assert calls == [(8, 4)]
            assert set(f._memo) == {"svd", ("_k_frame_hypothesis", env, IDENTITY_TOL),
                                    ("k_frame_check", env, IDENTITY_TOL)}
            assert type(f._memo[("_k_frame_hypothesis", env, IDENTITY_TOL)]) is CheckResult
        assert (found[0].lower, found[0].upper) == (found[1].lower, found[1].upper)

    def test_perturbation_condition_takes_one_douglas_pass(self, factorizations, monkeypatch):
        # Phi's hypothesis is tested by k_frame_check, whose one Douglas pass also gives the
        # optimal bounds the pair is decided on (2 -> 1 solve); the bounds are read off a
        # separate Frame of the same vectors, so f stays fresh. The SVDs of T_F and of
        # lambda's core are all it factors, and Psi = Phi takes no norm
        calls = []
        solve = SvdFactors.solve

        def counted(self, rhs):
            calls.append(rhs.shape)
            return solve(self, rhs)

        monkeypatch.setattr(SvdFactors, "solve", counted)
        vectors, k, _ = instance(10)
        env = OperatorEnv.from_matrix(k)
        bounds = k_frame_check(Frame(vectors), env)
        f = Frame(vectors)
        calls.clear()
        factorizations["n"] = 0
        perturbation_condition(f, f, env, Symbol.ones(f.size), bounds.lower, bounds.upper)
        assert calls == [(8, 4)]
        assert factorizations["n"] == 2

    def test_canonical_dual_factors_b_alone(self, factorizations):
        # after k_frame_check, the dual factors only B = Sigma^2 U_r* Q (rank T_F x rank K),
        # never S_F Q (n x rank K): here rank T_F = N = 6 < n = 8
        vectors, k, _ = instance(10, count=6)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        k_frame_check(f, env)
        factorizations["n"] = 0
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        canonical_k_dual(f, env)
        assert factorizations["n"] == 1
        assert operands(factorizations, "svd") == [(6, 4)]

    def test_canonical_coefficients_after_the_dual_factor_nothing(self, factorizations):
        # d = T_Ftilde* x is read off the memoized dual and checked by a vector residual
        vectors, k, target = instance(3)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        canonical_k_dual(f, env)
        factorizations["n"] = 0
        canonical_coefficients(f, env, target)
        assert factorizations["n"] == 0

    def test_k_frame_check_norms_have_rank_k_columns(self, factorizations):
        # L1 is K's range factor U_k Sigma_k (8 x 4), not K (8 x 8): lambda's core is
        # 8 x 4, and T_F spans C^8, so no norm is taken
        vectors, k, _ = instance(10)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        k_frame_check(f, env)
        assert operands(factorizations, "svd_norm") == []
        assert operands(factorizations, "svd") == [(8, 12), (8, 4)]

    def test_lambda_takes_one_svd_of_its_core_and_no_qr_or_solve(
            self, factorizations, monkeypatch):
        # at kappa(T_F) = 1e10, where a fixed gate on a second route took both r x k
        # routes' norms, lambda's certificates are plain products: the one factorization
        # after T_F's SVD is that of lambda's 20 x 10 core; so on a bench pool instance
        syn, x0, _ = graded_instance(0, 1e-10)
        f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        k_frame_check(f, env)
        assert factorizations["names"] == ["svd", "svd"]
        assert operands(factorizations, "svd") == [(20, 30), (20, 10)]
        inst = load_workloads(monkeypatch).Multipliers(1, None).instances[0]
        f, env = Frame(inst["phi"]), OperatorEnv.from_matrix(inst["k"])
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        k_frame_check(f, env)
        assert not {"qr", "solve", "svd_norm"} & set(factorizations["names"])
        assert operands(factorizations, "svd")[-1] == (16, 8)

    def test_optimal_bounds_make_no_eigendecomposition(self, factorizations):
        vectors, k, _ = instance(19)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        mult = assemble_multiplier(Symbol.ones(f.size), f, f)
        factorizations["names"].clear()
        k_frame_check(f, env)
        k_right_inverse(mult, env)
        majorization_constant(k, f.synthesis)
        assert not {"eigh", "eigvalsh", "qr", "solve"} & set(factorizations["names"])

    def test_admissible_perturbation_is_not_factored(self, factorizations):
        # the admissibility gate passes at the smallest threshold |phi| can give
        vectors, k, _ = instance(20)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        phi = admissible_perturbation(np.random.default_rng(20), f, env)
        factorizations["inputs"].clear()
        dual_family_generate(f, env, phi)
        assert not any(np.array_equal(a, phi) for a in factorizations["inputs"])

    def test_operator_env_factors_k_once(self, factorizations):
        # both self-check residuals pass on their Frobenius norms, and are read off
        # the factors: no K^dagger and no n x n projector is formed
        _, k, _ = instance(10)
        factorizations["n"] = 0
        env = OperatorEnv.from_matrix(k)
        assert factorizations["n"] == 1
        assert not {"k_pinv", "proj_range_k", "range_k"} & set(env._memo)
        # the range basis is a view of the factors' U, not a copy
        assert np.shares_memory(env.range_basis, env.factors.left_vectors)

    def test_projected_frame_factors_its_k_by_n_core(self, factorizations):
        # {P_R(K) phi_i} = U_k (U_k* T_Phi): its SVD has a k x N operand, not n x N,
        # and is that of the memoized coordinates frame {U_k* phi_i}, lifted by U_k
        vectors, k, _ = instance(10)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        projected = _projected(f, env)
        projected.norm()
        assert operands(factorizations, "svd") == [(4, 12)]
        assert _coordinates(f, env).norm() == projected.norm()
        assert _projected(f, env).norm() == projected.norm()
        assert operands(factorizations, "svd") == [(4, 12)]
        np.testing.assert_allclose(projected.vectors, f.map(range_projector(env)).vectors,
                                   atol=1e-13 * f.norm())

    def test_verify_k_dual_with_lower_bounds(self, factorizations):
        # the residual norm, then k_frame_check of the dual on its k x r core (its SVD and
        # that of lambda's core; the rank decides the inclusion) and of the projected
        # frame {U_k* f_i} (lambda's core and an SVD of its own): 9 -> 5 with no QR or
        # solve. The dual was built on another env from the same K: an equal U_k, not the
        # same array, selects the core
        vectors, k, _ = instance(11)
        dual = canonical_k_dual(Frame(vectors), OperatorEnv.from_matrix(k))
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        verify_k_dual(f, dual, env, with_lower_bounds=True)
        assert factorizations["n"] == 5
        # T_G = V_k C V_r* through its k x rank(T_F) core C, and the projected frame in
        # R(K)'s coordinates: k x N, not n x N; lambda's cores are 4 x 4
        assert sorted(operands(factorizations, "svd")) == [(4, 4), (4, 4), (4, 8), (4, 12)]

    def test_witness_reads_the_duals_factors(self, factorizations):
        # the dual's K*-frame check factored its core, whose SVD T_Ftilde's factors lift
        vectors, k, _ = instance(11)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        verify_k_dual(f, canonical_k_dual(f, env), env, with_lower_bounds=True)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        noncommutativity_witness(f, env)
        assert operands(factorizations, "svd") == []

    def test_dual_is_checked_on_its_core(self, factorizations):
        # T_G = V_k C V_r*: the K*-frame check reads C (k x r = 4 x 8) against Sigma_k, so
        # no operand has n = 8 rows and lambda's core is 4 x 4; the SVD of C it makes is
        # the one T_G's own factors lift
        vectors, k, _ = instance(11)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        dual = canonical_k_dual(f, env)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        bounds = k_frame_check(dual, env.adjoint())
        assert bounds.inclusion.residual == 0.0
        assert operands(factorizations, "svd_norm") == []
        assert operands(factorizations, "svd") == [(4, 8), (4, 4)]
        assert dual.norm() ** 2 == bounds.upper
        assert operands(factorizations, "svd") == [(4, 8), (4, 4)]

    def test_dense_copy_of_the_dual_keeps_the_inclusion_norm(self, factorizations):
        # the same vectors read from an array have no factored form: the (n, k)
        # inclusion residual of the dense path, and lambda's core rank(T_G) x k
        vectors, k, _ = instance(11)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        dense = Frame(canonical_k_dual(f, env).vectors)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        k_frame_check(dense, env.adjoint())
        assert operands(factorizations, "svd_norm") == [(8, 4)]
        assert operands(factorizations, "svd") == [(8, 12), (4, 4)]

    def test_biorthogonal_right_inverse_on_a_fresh_instance(self, factorizations):
        # the K-frame hypothesis of Phi (the SVD of T_Phi and the inclusion residual),
        # one SVD of T_Psi for the minimality test, the biorthogonal sequence and the
        # K*-frame hypothesis of Psi (then its inclusion residual), the restricted
        # inverse of S_Phi and the residual. Each hypothesis is its inclusion alone:
        # lambda's norm and the cross-check's QR, solve and norm went, 4 per frame.
        # The SVDs of the P_K Phi core, of G, of the dual's core and of both
        # multipliers went with the Bessel-bound check; the K*-identity is the adjoint
        # of the K-identity and factors nothing
        phi, psi, env = minimal_instance(np.random.default_rng(12))
        factorizations["n"] = 0
        biorthogonal_right_inverse(phi, psi, env)
        assert factorizations["n"] == 6

    def test_range_inclusion_left_inverse_on_a_fresh_instance(self, factorizations):
        # the K-frame hypothesis of Psi and the K*-frame hypothesis of Phi (an SVD and
        # an inclusion residual each), the SVD of T_Psi* K and the inclusion residual,
        # two restricted inverses and the residual, whose scale |K K*| is |K|^2, read
        # off K's SVD. Each hypothesis is its inclusion alone: lambda's norm and the
        # cross-check's QR, solve and norm went, 4 per frame. The SVDs of Psi-dag, of
        # the dual's core and of both multipliers went with the Bessel-bound check
        psi, phi, env = both_inclusion_instance(np.random.default_rng(21))
        factorizations["n"] = 0
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        range_inclusion_left_inverse(psi, phi, env)
        assert factorizations["n"] == 9
        # the identity's residual is (achieved - K K*) U_k, n x k, not n x n
        assert operands(factorizations, "svd_norm")[-1] == (env.dim, env.rank)

    def test_right_inverse_as_multiplier_is_the_left_side_on_the_adjoint(self, factorizations):
        rng = np.random.default_rng(14)
        psi, env_adj = random_k_frame(rng)  # psi is a K*-frame for K = env_adj.k_adjoint
        phi = dual_family_generate(psi, env_adj, admissible_perturbation(rng, psi, env_adj))
        choice = dual_family_generate(psi, env_adj, admissible_perturbation(rng, psi, env_adj))
        k, n = env_adj.k_adjoint, env_adj.dim
        # M_{1,Phi,P_K* Psi} = K, and K R = K since R only moves the kernel of K
        right = np.eye(n) + (np.eye(n) - range_projector(env_adj)) @ crandn(rng, n, n)
        counts = []
        for side, frames, env, inverse in (
            ("right", (phi, psi), OperatorEnv.from_matrix(k), right),
            ("left", (psi, phi), OperatorEnv.from_matrix(k).adjoint(), right.conj().T),
        ):
            fresh = [Frame(f.vectors) for f in (*frames, choice)]
            factorizations["n"] = 0
            out = inverse_as_multiplier(fresh[0], fresh[1], env, inverse, side, fresh[2])
            assert out.passed
            counts.append(factorizations["n"])
        # the inverse, transported-dual and output residuals on each side; the SVDs of
        # four frames and of both multipliers went with the Bessel-bound check, the output
        # identity's scale is the Frobenius norm of L K, and the dual choice's gate passes
        # on its Frobenius norm
        assert counts == [3, 3]

    def test_assemble_multiplier_factors_nothing(self, factorizations):
        # the Bessel bound holds for every M; norm_bound_check tests it on request
        vectors, _, _ = instance(16)
        rng = np.random.default_rng(16)
        f, g = Frame(vectors), Frame(crandn(rng, *vectors.shape))
        m = Symbol.semi_normalized(1.0 + rng.random(f.size))
        factorizations["n"] = 0
        assemble_multiplier(m, f, g)
        assert factorizations["n"] == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_multipliers_workload_op(self, factorizations, monkeypatch, seed):
        # every instance of the bench's pool, each op checked against its references
        workload = load_workloads(monkeypatch).Multipliers(seed, None)
        counts = []
        for key in workload.keys:
            factorizations["n"] = 0
            out = workload.run(kframekit, key)
            counts.append(factorizations["n"])
            assert workload.check(key, out) == []
        assert counts == [MULTIPLIERS_OP] * workload.pool

    def test_multiplier_is_factored_once(self, factorizations):
        # norm() and both inverses read one SVD of M
        vectors, k, _ = instance(16)
        rng = np.random.default_rng(16)
        f, g = Frame(vectors), Frame(crandn(rng, *vectors.shape))
        env = OperatorEnv.from_matrix(k)
        factorizations["inputs"].clear()
        mult = assemble_multiplier(Symbol.semi_normalized(1.0 + rng.random(f.size)), f, g)
        mult.norm()
        k_right_inverse(mult, env)
        k_left_inverse(mult, env)
        matrices = (mult.matrix, mult.matrix.conj().T)
        factored = [a for a in factorizations["inputs"]
                    if any(np.array_equal(a, m) for m in matrices)]
        assert len(factored) == 1

    def test_tolerance_does_not_refactor_the_multiplier(self, factorizations):
        # an SVD depends only on the rank rule, so --tol reuses the SVD of M
        # that norm() made
        vectors, k, _ = instance(18)
        rng = np.random.default_rng(18)
        f, g = Frame(vectors), Frame(crandn(rng, *vectors.shape))
        mult = assemble_multiplier(Symbol.semi_normalized(1.0 + rng.random(f.size)), f, g)
        mult.norm()
        tol = 1e-9
        factorizations["inputs"].clear()
        right = k_right_inverse(mult, OperatorEnv.from_matrix(k), tol)
        assert not any(np.array_equal(a, mult.matrix) for a in factorizations["inputs"])
        fresh = k_right_inverse(Multiplier(mult.symbol, f, g, mult.matrix),
                                OperatorEnv.from_matrix(k), tol)
        assert right.matrix.tobytes() == fresh.matrix.tobytes()
        assert right.majorization == fresh.majorization

    def test_tolerance_does_not_redo_the_restriction(self, factorizations):
        # neither T_F's SVD nor the restriction depends on the tolerance: no SVD, of T_F or B
        vectors, k, _ = instance(12)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        canonical_k_dual(f, env)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        canonical_k_dual(f, env, 1e-9)
        assert operands(factorizations, "svd") == []

    def test_norm_and_k_frame_check_share_one_svd(self, factorizations):
        # the norm, the bounds and the restriction read T_F's one memoized SVD; the other
        # is that of lambda's 8 x 4 core
        vectors, k, _ = instance(22)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        f.norm()
        k_frame_check(f, env)
        assert operands(factorizations, "svd") == [f.synthesis.shape, (8, 4)]

    def test_repeated_calls_factor_nothing(self, factorizations):
        vectors, k, _ = instance(4)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        bounds = k_frame_check(f, env)
        dual = canonical_k_dual(f, env)
        factorizations["n"] = 0
        assert k_frame_check(f, env) is bounds
        assert _k_frame_hypothesis(f, env) is bounds.inclusion
        assert canonical_k_dual(f, env) is dual
        assert _restriction(f, env) is _restriction(f, env)
        env.norm(), env.pinv_norm(), env.adjoint(), env.range_factor, env.range_coordinates
        assert factorizations["n"] == 0


class TestSymmetricOperands:
    """A Hermitian K is its own adjoint env, and Psi = Phi (the same ``Frame``) skips its
    zero perturbation, so the paper's symmetric instances factor each operand once."""

    def test_hermitian_k_is_its_own_adjoint(self):
        k = hermitian_projection(30)
        env = OperatorEnv.from_matrix(k)
        assert env.adjoint() is env
        other = OperatorEnv.from_matrix(nudged(k))
        assert other.adjoint() is not other
        np.testing.assert_array_equal(other.adjoint().k, nudged(k).conj().T)
        # Sigma_k is real diagonal, so its env is its own adjoint too; V_k and K* U_k stay
        # paired with U_k on either env
        for e in (env, other):
            assert e.range_coordinates.adjoint() is e.range_coordinates
            np.testing.assert_array_equal(e.corange_basis, e.factors.right_vectors[:, :4])
            np.testing.assert_allclose(e.corange_factor, e.k_adjoint @ e.range_basis, atol=1e-14)

    def test_hermitian_flag_builds_neither_k_star_nor_an_adjoint(self):
        # the dual on V_k is checked against the adjoint env, whose flag is asked when a
        # frame's basis is not its U_k: asking it keeps no K* and no adjoint of the adjoint
        vectors, k, _ = instance(19)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        assert not env.hermitian and "k_adjoint" not in env._memo
        cert = verify_k_dual(f, canonical_k_dual(f, env), env, with_lower_bounds=True)
        assert cert.passed and k_dual_lower_bounds(cert)
        assert env.adjoint() is not env
        assert not {"k_adjoint", "adjoint"} & set(env.adjoint()._memo)

    def test_golden_suite_factors_each_operand_once(self, factorizations):
        # 33 counted factorizations (41 -> 33), and the byte-equal repeats
        # are the four deliberate ones: majorization_constant's T_F and |K| on raw matrices,
        # the independently built perturbation dual's residual norm, and the left range-
        # inclusion test, equal to the right one only because Psi is Phi and K = K*
        checks = reproduce_examples()
        assert all(checks.values())
        assert factorizations["n"] == GOLDEN_SUITE
        again = repeats(factorizations)
        assert [(name, a.shape) for name, a in again] == [
            ("svd", (2, 3)), ("svd_norm", (2, 2)), ("svd_norm", (1, 2)), ("svd_norm", (2, 1))]
        example = projection_example()
        np.testing.assert_array_equal(again[0][1], example.frame.synthesis)
        np.testing.assert_array_equal(again[1][1], example.env.k)

    def test_multiplier_identity_reads_psi_side_off_the_phi_side(self, factorizations):
        k = hermitian_projection(40)
        vectors = crandn(np.random.default_rng(40), 12, 8)
        reports = {}
        for case, matrix in (("hermitian", k), ("nudged", nudged(k))):
            f, env = Frame(vectors), OperatorEnv.from_matrix(matrix)
            mult = assemble_multiplier(Symbol.ones(f.size), f, f)
            factorizations["n"] = 0
            reports[case] = frames_from_multiplier_identity(mult, env)
            assert factorizations["n"] == MULTIPLIER_IDENTITY[case], case
            assert reports[case].passed
        sides = [(r.phi_side.optimal, r.psi_side.optimal) for r in reports.values()]
        np.testing.assert_allclose(sides[0], sides[1], rtol=1e-13)

    def test_psi_is_phi_takes_no_norm_of_a_zero_perturbation(self, factorizations):
        # after the memoized bounds, the condition factors nothing and rho is exactly 0;
        # the perturbation dual then factors B_ref once (B is B_ref, the distance 0) and
        # takes its certificate's residual norm
        vectors, k, _ = instance(24)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        m = Symbol.semi_normalized(np.linspace(0.5, 2.0, f.size))
        found = k_frame_check(f, env)
        factorizations["n"] = 0
        cond = perturbation_condition(f, f, env, m, found.lower, found.upper)
        assert factorizations["n"] == 0
        assert cond.rho == 0.0 and cond.condition.ok
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        cert = perturbation_k_dual(f, f, env, m, (found.lower, found.upper))
        assert cert.passed
        assert factorizations["names"] == ["svd", "svd_norm"]
        assert operands(factorizations, "svd") == [(8, 4)]
        restriction = _perturbed_restriction(f, f, env, m, (found.lower, found.upper),
                                             IDENTITY_TOL)
        assert restriction[2] == {"margin": restriction[0].b.singular_values[-1],
                                  "distance": 0.0}

    def test_dual_of_a_hermitian_k_is_checked_on_its_core(self, factorizations):
        # the dual T_G = V_k C W* is read against K as C against Sigma_k when K = K* too,
        # since K = V_k Sigma_k U_k* then: the lower bounds take the verify residual's norm
        # and two SVDs per frame (as in test_verify_k_dual_with_lower_bounds), no n x k
        # inclusion norm, as on K nudged by one ulp
        k = hermitian_projection(32)
        vectors = crandn(np.random.default_rng(32), 12, 8)
        for matrix in (k, nudged(k)):
            f, env = Frame(vectors), OperatorEnv.from_matrix(matrix)
            dual = canonical_k_dual(f, env)
            factorizations["inputs"].clear()
            factorizations["names"].clear()
            assert verify_k_dual(f, dual, env, with_lower_bounds=True).passed
            assert operands(factorizations, "svd_norm") == [(4, 8)]
            assert sorted(operands(factorizations, "svd")) == [(4, 4), (4, 4), (4, 8), (4, 12)]

    @pytest.mark.parametrize("eigenvalues", [(3.0, -2.0, 1.5, -0.5), (3.0, 2.0, 1.5, 0.5)])
    def test_hermitian_k_keeps_u_k_paired_with_v_k(self, eigenvalues):
        # a K*-question on a Hermitian K reads the K-side memo, but K* U_k = V_k Sigma_k pairs
        # U_k with V_k, which differ beyond rounding when K is indefinite: every construction
        # matches the one on K nudged by one ulp, whose adjoint env is a separate value
        rng = np.random.default_rng(50)
        q = np.linalg.qr(crandn(rng, 8, 8))[0]
        k = (q[:, :4] * np.array(eigenvalues)) @ q[:, :4].conj().T
        k = (k + k.conj().T) / 2
        vectors, target = crandn(rng, 12, 8), crandn(rng, 8)
        basis = q[:, :4]
        inside = (basis @ (basis.conj().T @ vectors.T)).T  # R(T_F*) = R(T_F* K): both inclusions
        results = []
        for matrix in (k, nudged(k)):
            f, g, env = Frame(vectors), Frame(inside), OperatorEnv.from_matrix(matrix)
            dual = canonical_k_dual(f, env)
            bounds = k_frame_check(f, env)
            m = Symbol.semi_normalized(np.linspace(0.5, 2.0, f.size))
            perturbed = perturbation_k_dual(f, f, env, m, (bounds.lower, bounds.upper))
            right = perturbation_right_inverse(f, f, env, m, (bounds.lower, bounds.upper), dual)
            inclusion = [range_inclusion_right_inverse(g, g, env),
                         range_inclusion_left_inverse(g, g, env)]
            assert all(c.passed for c in (verify_k_dual(f, dual, env), perturbed, right,
                                          *inclusion))
            witness = noncommutativity_witness(f, env).images_of_frame
            results.append([dual.vectors, canonical_k_dual(f, env.adjoint()).vectors,
                            perturbed.dual.vectors, witness,
                            canonical_coefficients(f, env, target)])
        for herm, other in zip(*results):
            np.testing.assert_allclose(herm, other, rtol=0, atol=1e-12 * np.abs(other).max())


class TestCliCounts:
    @pytest.mark.parametrize("command", sorted(CLI_VALIDATING))
    def test_bound_pair_is_decided_without_an_eigensolver(self, factorizations, tmp_path,
                                                           command):
        vectors, k, _ = instance(10)
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(vectors)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(k))
        frames = ["--frame", str(tmp_path / "f.json")] * (2 if command == "perturb-check" else 1)
        factorizations["n"] = 0
        factorizations["names"].clear()
        assert main([command, *frames, "--operator", str(tmp_path / "k.json")]) == 0
        assert not {"eigh", "eigvalsh"} & set(factorizations["names"])
        assert factorizations["n"] == CLI_VALIDATING[command]

    @pytest.mark.parametrize("command, shape", [("right-inverse", (8, 4)),
                                                ("left-inverse", (4, 8))])
    def test_inverse_residuals_are_read_on_rank_k_coordinates(self, factorizations, tmp_path,
                                                               command, shape):
        # |M (R V_k) - K V_k| is 8 x 4 and |U_k* L M - Sigma_k V_k*| is 4 x 8: no norm
        # operand of either command is n x n = 8 x 8
        mult, env = multiplier_instance(30)
        paths = {name: str(tmp_path / f"{name}.json") for name in ("phi", "psi", "k", "m")}
        io.write_file(paths["phi"], io.frame_to_obj(mult.phi))
        io.write_file(paths["psi"], io.frame_to_obj(mult.psi))
        io.write_file(paths["k"], io.matrix_to_obj(env.k))
        io.write_file(paths["m"], io.symbol_to_obj(mult.symbol))
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        assert main([command, "--frame", paths["phi"], "--frame", paths["psi"],
                     "--operator", paths["k"], "--symbol", paths["m"]]) == 0
        norms = operands(factorizations, "svd_norm")
        assert norms[-1] == shape and (8, 8) not in norms

    def test_analyze_inequalities_factor_nothing(self, factorizations, tmp_path):
        vectors, k, _ = instance(10)
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(vectors)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(k))
        factorizations["n"] = 0
        assert main(["analyze", "--frame", str(tmp_path / "f.json"),
                     "--operator", str(tmp_path / "k.json")]) == 0
        assert factorizations["n"] == CLI_ANALYZE


def multiplier_instance(seed: int, n: int = 8, count: int = 12, rank: int = 4):
    """(mult, env): M = T_Phi diag(m) T_Psi* of full rank n, K of rank ``rank``."""
    rng = np.random.default_rng(seed)
    while True:
        phi, psi = Frame(crandn(rng, count, n)), Frame(crandn(rng, count, n))
        mult = assemble_multiplier(Symbol.semi_normalized(1.0 + rng.random(count)), phi, psi)
        if well_conditioned(mult.matrix, n):
            return mult, OperatorEnv.from_matrix(random_rank_matrix(rng, n, rank))


def n_by_k_inclusion_instance(seed: int, n: int = 8, count: int = 5, rank: int = 3):
    """(Psi, Phi, env) of ``both_inclusion_instance``'s form with N = count < n."""
    rng = np.random.default_rng(seed)
    while True:
        env = OperatorEnv.from_matrix(random_rank_matrix(rng, n, rank))
        phi_syn = range_projector(env.adjoint()) @ crandn(rng, n, count)
        psi_syn = env.k @ phi_syn
        if well_conditioned(phi_syn, rank) and well_conditioned(psi_syn, rank):
            return Frame(psi_syn.T), Frame(phi_syn.T), env


EPS = np.finfo(float).eps


def tail(env: OperatorEnv) -> float:
    """sigma_{k+1} of K, the part its rank-k coordinates drop (0 at full rank)."""
    s = env.factors.singular_values
    return float(s[env.rank]) if env.rank < s.size else 0.0


def assert_matches_n_by_n(compressed, full, scale, dropped, tol=IDENTITY_TOL):
    """``compressed`` within 100 eps ``scale`` + ``dropped`` of the n x n residual ``full``,
    with the same verdict at ``tol`` ``scale``."""
    assert abs(compressed - full) <= 100 * EPS * scale + dropped
    assert (compressed <= tol * scale) == (full <= tol * scale)


def cli_residual(command, mult, env, tol=IDENTITY_TOL):
    """The residual ``kframe right-inverse`` or ``left-inverse`` reports for M and K."""
    report = cli.Report(command, {}, {})
    cli._HANDLERS[command][0](None, tol, report, mult.phi, mult.psi, env, mult.symbol)
    return report.verdicts[f"{command}-identity"].residual


class TestRankKFactor:
    """The multiplier questions see K through R(K) and norms |X K| alone, so they are
    asked on K's n x k range factor K V_k = U_k Sigma_k (or on U_k* L), never on K."""

    def test_k_right_inverse_lambda_norms_have_rank_k_columns(self, factorizations):
        # lambda's core Sigma_r^-1 U_r* K V_k is 8 x 4, not 8 x 8, and its one SVD is the
        # only factorization; M has full rank, so its rank decides the inclusion, and
        # lambda's certificates are plain products, with no QR or solve
        mult, env = multiplier_instance(30)
        mult.norm()
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        right = k_right_inverse(mult, env)
        assert factorizations["names"] == ["svd"]
        assert operands(factorizations, "svd") == [(8, 4)]
        # R itself is the minimal Douglas solution pinv(M) K, bit for bit
        np.testing.assert_array_equal(right.matrix, mult._factors().solve(env.k)[0])

    @pytest.mark.parametrize("seed", range(31, 39))
    def test_k_right_inverse_lambda_matches_numpy(self, seed):
        mult, env = multiplier_instance(seed, n=6 + seed % 3, count=10, rank=1 + seed % 4)
        exact = np.linalg.norm(np.linalg.pinv(mult.matrix) @ env.k, 2)
        assert k_right_inverse(mult, env).majorization == pytest.approx(exact, rel=1e-13)

    def test_left_inverse_norm_is_read_on_k_by_n(self, factorizations):
        # with the inverses, the bounds and the Bessel bounds memoized, |L| is the one
        # norm left, on U_k* L (4 x 8), not on L (8 x 8); it equals |L| to rounding
        mult, env = multiplier_instance(30)
        left = k_left_inverse(mult, env)
        k_right_inverse(mult, env)
        for frame, side_env in ((mult.phi, env), (mult.psi, env.adjoint())):
            k_frame_check(frame, side_env), optimal_bessel_bound(frame)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        report = frames_from_multiplier_identity(mult, env)
        assert report.case == "inverse" and report.passed
        assert operands(factorizations, "svd_norm") == [(4, 8)]
        guaranteed = 1.0 / (mult.symbol.sup_modulus**2 * spectral_norm(left) ** 2
                            * optimal_bessel_bound(mult.phi))
        assert report.psi_side.guaranteed == pytest.approx(guaranteed, rel=1e-13)

    @pytest.mark.parametrize("construction, operand", [
        (range_inclusion_right_inverse,
         lambda psi, phi, env: phi.analysis @ env.adjoint().range_factor),
        (range_inclusion_left_inverse,
         lambda psi, phi, env: psi.analysis @ env.range_factor),
    ], ids=["right", "left"])
    def test_range_inclusion_basis_is_n_by_k(self, factorizations, construction, operand):
        # T_Phi* V_k Sigma_k (right) or T_Psi* U_k Sigma_k (left): N x k = 12 x 4, not
        # T_Phi* K* or T_Psi* K, N x n = 12 x 8; every other SVD is of a frame's n x N
        psi, phi, env = n_by_k_inclusion_instance(40, count=12, rank=4)
        factorizations["inputs"].clear()
        factorizations["names"].clear()
        construction(psi, phi, env)
        shapes = operands(factorizations, "svd")
        assert shapes.count((12, 4)) == 1 and (12, 8) not in shapes
        basis = operand(psi, phi, env)
        assert any(np.array_equal(a, basis) for a in factorizations["inputs"])

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_range_inclusion_verdicts_match_the_n_by_n_route_below_n(self, seed):
        # N = 5 < n = 8: the N x k basis has cutoff max(N, k) 2^-40, below max(N, n) 2^-40,
        # yet both routes give the same verdicts, holding and (with Psi moved off
        # T_Phi* K* inside R(K)) failing
        psi, phi, env = n_by_k_inclusion_instance(seed)
        rng = np.random.default_rng(seed)
        moved = Frame(psi.vectors + (env.range_basis @ crandn(rng, env.rank, psi.size)).T)
        for psi_case, holds in ((psi, True), (moved, False)):
            routes = (
                (range_inclusion_right_inverse, psi_case.analysis,
                 phi.analysis @ env.k_adjoint, psi_case.norm()),
                (range_inclusion_left_inverse, phi.analysis,
                 psi_case.analysis @ env.k, phi.norm()),
            )
            for construction, a, wide, norm_a in routes:
                old = _inclusion(a, svd_decompose(wide), norm_a, IDENTITY_TOL)
                assert old.ok is holds
                if holds:
                    out = construction(psi_case, phi, env)
                    assert out.passed and out.certificates["inclusion"].ok
                    assert out.certificates["inclusion"].residual == pytest.approx(
                        old.residual, rel=1e-6, abs=1e-14 * norm_a)
                    # the identity, read on K's rank-k coordinates, against the n x n one
                    degree = 2 if construction is range_inclusion_left_inverse else 1
                    assert_matches_n_by_n(out.identity.residual,
                                          spectral_norm(out.achieved - out.target),
                                          env.norm() ** degree,
                                          tail(env) * env.norm() ** (degree - 1))
                else:
                    with pytest.raises(RangeNotIncluded) as exc:
                        construction(psi_case, phi, env)
                    assert exc.value.residual == pytest.approx(old.residual, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_compressed_residuals_match_the_n_by_n_route_on_the_bench_pool(
        self, monkeypatch, seed
    ):
        # every residual read on K's rank-k coordinates, against the n x n one: the three
        # K-identities (U_k* on the left, as reported bit for bit), the K K*-identity (U_k
        # on the right, degree 2), the CLI's inverse residuals, and both inclusion operands
        # on their frame's rank factor V_r Sigma_r (dropping the frame's tail)
        workload = load_workloads(monkeypatch).Multipliers(seed, None)
        for key in workload.keys:
            inst = workload.instances[key]
            mult, _, _, _, _, pright, inclusion, bio, _ = workload.run(kframekit, key)
            env, env3 = OperatorEnv.from_matrix(inst["k"]), OperatorEnv.from_matrix(inst["k3"])
            for out, out_env in ((pright, env), (inclusion[0], env), (bio.forward, env3)):
                rank_k = out_env.range_basis.conj().T @ out.achieved
                assert out.identity.residual == spectral_norm(
                    rank_k - out_env.adjoint().range_factor.conj().T)
                assert_matches_n_by_n(out.identity.residual,
                                      spectral_norm(out.achieved - out.target),
                                      out_env.norm(), tail(out_env))
            left = inclusion[1]
            assert_matches_n_by_n(left.identity.residual,
                                  spectral_norm(left.achieved - left.target),
                                  env.norm() ** 2, tail(env) * env.norm())
            for command, full in (
                ("right-inverse", mult.matrix @ k_right_inverse(mult, env).matrix - env.k),
                ("left-inverse", k_left_inverse(mult, env) @ mult.matrix - env.k),
            ):
                assert_matches_n_by_n(cli_residual(command, mult, env), spectral_norm(full),
                                      env.norm(), tail(env))
            psi2, phi2 = Frame(inst["psi2"]), Frame(inst["phi2"])
            for out, a, wide in (
                (inclusion[0], psi2, phi2.analysis @ env.k_adjoint),
                (inclusion[1], phi2, psi2.analysis @ env.k),
            ):
                full = _inclusion(a.analysis, svd_decompose(wide), a.norm(), IDENTITY_TOL)
                fac = _factors(a)
                frame_tail = fac.singular_values[fac.rank:]
                assert_matches_n_by_n(out.certificates["inclusion"].residual, full.residual,
                                      a.norm(), frame_tail[0] if frame_tail.size else 0.0)

    @pytest.mark.parametrize("c", [1e-1, 1e-2, 1e-3])
    def test_inverse_residuals_match_the_n_by_n_route_on_graded_multipliers(
        self, factorizations, c
    ):
        # M = T_Phi T_Psi* with T_Phi graded to kappa = 1/c, K = M X (right) or X M (left),
        # X of rank 10: the CLI reads |M R - K| as |M (R V_k) - K V_k| (20 x 10) and
        # |L M - K| as |U_k* L M - Sigma_k V_k*| (10 x 20); the CLI assembles its own M, so
        # k_right_inverse's lambda norms (20 x 10) come first
        for seed in range(5):
            syn, _, _ = graded_instance(seed, c)
            rng = np.random.default_rng(100 + seed)
            x = crandn(rng, 20, 10) @ crandn(rng, 10, 20)
            mult = assemble_multiplier(Symbol.ones(30), Frame(syn.T),
                                       Frame(crandn(rng, 20, 30).T))
            for command, shape, k in (("right-inverse", (20, 10), mult.matrix @ x),
                                      ("left-inverse", (10, 20), x @ mult.matrix)):
                env = OperatorEnv.from_matrix(k)
                if command == "right-inverse":
                    full = mult.matrix @ k_right_inverse(mult, env).matrix - k
                else:
                    full = k_left_inverse(mult, env) @ mult.matrix - k
                factorizations["names"].clear()
                factorizations["inputs"].clear()
                residual = cli_residual(command, mult, env)
                norms = operands(factorizations, "svd_norm")
                assert norms[-1] == shape and (20, 20) not in norms
                assert_matches_n_by_n(residual, spectral_norm(full), env.norm(), tail(env))


class TestFactoredNorm:
    def test_bessel_bound_of_a_dual_lifts_nothing(self):
        # the canonical dual V_k C V_r*: sigma_1 is read off the core C, whose singular
        # values the lift copies, so the bound is the lifted one bit for bit
        vectors, k, _ = instance(11)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        dual = canonical_k_dual(f, env)
        bound = optimal_bessel_bound(dual)
        assert "svd" not in dual._memo
        assert bound == _factors(dual).singular_values[0] ** 2


class TestMemoCorrectness:
    def test_reused_values_match_fresh_values(self):
        vectors, k, target = instance(5)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        first = pipeline(f, env, target)
        reused = pipeline(f, env, target)
        fresh = pipeline(Frame(vectors), OperatorEnv.from_matrix(k), target)
        assert_identical(reused, first)
        assert_identical(fresh, first)

    def test_tolerance_is_part_of_the_key(self):
        vectors, k, target = instance(6)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        bounds = k_frame_check(f, env)
        loose = 1e-6
        loose_bounds = k_frame_check(f, env, loose)
        assert loose_bounds.inclusion.threshold == pytest.approx(1e4 * bounds.inclusion.threshold)
        # T_F spans C^8, so its rank decides the inclusion at any tolerance; at 1e-30
        # the Douglas residual gate (tol |K|, not yet scaled to |T_F| |X|) raises
        strict = 1e-30
        with pytest.raises(InternalConsistencyError):
            k_frame_check(f, env, strict)
        with pytest.raises(InternalConsistencyError):
            canonical_k_dual(f, env, strict)
        assert k_frame_check(f, env) is bounds
        assert k_frame_check(f, env, 1e-10) is bounds
        assert_identical(
            pipeline(f, env, target, loose),
            pipeline(Frame(vectors), OperatorEnv.from_matrix(k), target, loose),
        )

    @pytest.mark.parametrize("make", [
        lambda: Frame(np.eye(3)),
        lambda: Symbol.ones(3),
        lambda: assemble_multiplier(Symbol.ones(3), Frame(np.eye(3)), Frame(np.eye(3))),
        lambda: svd_decompose(np.eye(3)),
    ], ids=["Frame", "Symbol", "Multiplier", "SvdFactors"])
    def test_values_compare_and_hash_by_identity(self, make):
        # values that hold arrays compare and hash by identity, like OperatorEnv
        x, copy_of_x = make(), make()
        assert x == x
        assert (x == copy_of_x) is False
        assert hash(x) == hash(x) and {x: 1}[x] == 1


class TestNoCycles:
    def test_values_die_with_their_outputs(self):
        vectors, k, target = instance(8)
        gc.collect()
        gc.disable()
        try:
            f, env = Frame(vectors), OperatorEnv.from_matrix(k)
            adjoint = env.adjoint()
            refs = [weakref.ref(v) for v in (f, env, adjoint)]
            outputs = pipeline(f, env, target)
            assert env.adjoint() is adjoint
            del f, env, adjoint, outputs
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()


    def test_hypothesis_verdict_holds_no_frame(self):
        # the K-frame hypothesis memoizes its verdict alone, on a factored dual and on
        # the core its check reads: no frame, core or r x k array, so both die with it
        vectors, k, _ = instance(8)
        gc.collect()
        gc.disable()
        try:
            env = OperatorEnv.from_matrix(k)
            dual = canonical_k_dual(Frame(vectors), env)
            adjoint = env.adjoint()
            verdict = _k_frame_hypothesis(dual, adjoint)
            core = dual._form[1]
            keyed = ((dual, adjoint), (core, adjoint.range_coordinates))
            entries = [v._memo[("_k_frame_hypothesis", e, IDENTITY_TOL)] for v, e in keyed]
            assert all(e is verdict for e in entries) and type(verdict) is CheckResult
            refs = [weakref.ref(v) for v in (dual, core)]
            del dual, core, keyed, entries
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_env_adjoint_holds_no_reference_back(self):
        _, k, _ = instance(17)
        gc.collect()
        gc.disable()
        try:
            env = OperatorEnv.from_matrix(k)
            ref = weakref.ref(env)
            adjoint = env.adjoint()
            adjoint.range_factor, adjoint.range_basis, adjoint.adjoint()
            del env
            assert ref() is None
            np.testing.assert_array_equal(adjoint.k, k.conj().T)
        finally:
            gc.enable()

    def test_hermitian_env_holds_no_reference_to_itself(self):
        # a Hermitian env is its own adjoint by a memoized flag, so the memo never holds
        # the env and it dies with its last outside reference
        gc.collect()
        gc.disable()
        try:
            env = OperatorEnv.from_matrix(hermitian_projection(31))
            ref = weakref.ref(env)
            assert env.adjoint() is env
            assert "adjoint" not in env._memo
            assert all(value is not env for value in env._memo.values())
            del env
            assert ref() is None
        finally:
            gc.enable()

    def test_env_and_adjoint_share_the_range_coordinates(self):
        # Sigma_k is its own adjoint, so the adjoint env keeps the env's one
        _, k, _ = instance(17)
        env = OperatorEnv.from_matrix(k)
        assert env.adjoint().range_coordinates is env.range_coordinates

    def test_perturbed_restriction_holds_no_reference_back(self):
        # memoized on the symbol, keyed by Phi, Psi (here Phi itself) and the env
        vectors, k, _ = instance(23)
        gc.collect()
        gc.disable()
        try:
            f, env = Frame(vectors), OperatorEnv.from_matrix(k)
            m = Symbol.semi_normalized(np.linspace(0.5, 2.0, f.size))
            found = k_frame_check(f, env)
            refs = [weakref.ref(v) for v in (f, env, m)]
            cert = perturbation_k_dual(f, f, env, m, (found.lower, found.upper))
            assert cert.passed and len(m._memo) == 1
            del f, env, m, found, cert
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_multiplier_adjoint_holds_no_reference_back(self):
        vectors, k, _ = instance(13)
        gc.collect()
        gc.disable()
        try:
            f = Frame(vectors)
            mult = assemble_multiplier(Symbol.ones(f.size), f, f)
            k_right_inverse(mult, OperatorEnv.from_matrix(k))
            ref = weakref.ref(mult)
            adjoint = mult.adjoint()
            del mult
            assert ref() is None
            assert adjoint.phi is f
        finally:
            gc.enable()


class TestMultiplierAdjoint:
    def test_keeps_the_norm_and_no_inverse(self, factorizations):
        vectors, k, _ = instance(15)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        mult = assemble_multiplier(Symbol.ones(f.size), f, f)  # S_F, invertible
        k_right_inverse(mult, env)
        k_left_inverse(mult, env)
        factorizations["n"] = 0
        adjoint = mult.adjoint()
        assert adjoint.norm() == mult.norm()
        assert factorizations["n"] == 0
        # the carried-over SVD is the only entry; the inverses belong to M
        assert list(adjoint._memo) == ["svd"]


class TestConcurrentUse:
    def test_threads_get_one_stored_result(self):
        vectors, k, target = instance(9)
        fresh = pipeline(Frame(vectors), OperatorEnv.from_matrix(k), target)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # fresh values each round: the memo starts empty
                f, env = Frame(vectors), OperatorEnv.from_matrix(k)
                results = []
                threads = [
                    threading.Thread(target=lambda: results.append(pipeline(f, env, target)))
                    for _ in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == len(threads)
                for result in results:
                    assert_identical(result, fresh)
                    assert result[0] is results[0][0] and result[1] is results[0][1]
        finally:
            sys.setswitchinterval(interval)

    def test_threads_share_one_svd_and_one_adjoint(self):
        # the multiplier's SVD and the env's derived values are filled lazily
        vectors, k, _ = instance(18)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                f, env = Frame(vectors), OperatorEnv.from_matrix(k)
                mult = Multiplier(Symbol.ones(f.size), f, f, f.frame_operator)  # nothing memoized
                results = []

                def work():
                    right, left = k_right_inverse(mult, env), k_left_inverse(mult, env)
                    results.append((mult._factors(), right, left, env.adjoint(), env.range_factor))

                threads = [threading.Thread(target=work) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == len(threads)
                for result in results:
                    assert all(a is b for a, b in zip(result, results[0]))
        finally:
            sys.setswitchinterval(interval)
