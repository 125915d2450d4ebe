"""Factor once: factorization counts, memo correctness, and no reference cycles.

Values memoize what they derive from their factorizations. These tests pin
how many LAPACK factorizations the K-dual pipeline makes, that a memoized
result is bit-identical to a fresh one and never crosses tolerance
policies, and that the memo references stay one-way (no cycles), so values
die as soon as the caller drops them.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import (
    admissible_perturbation,
    both_inclusion_instance,
    crandn,
    minimal_instance,
    random_k_frame,
    well_conditioned,
)
from kframekit import (
    DEFAULT_POLICY,
    Frame,
    Multiplier,
    OperatorEnv,
    Symbol,
    assemble_multiplier,
    biorthogonal_right_inverse,
    canonical_coefficients,
    canonical_k_dual,
    dual_family_generate,
    inverse_as_multiplier,
    k_dual_lower_bounds,
    k_frame_check,
    k_left_inverse,
    k_right_inverse,
    range_inclusion_left_inverse,
    verify_k_dual,
)
from kframekit.duality import frame_restriction
from kframekit.errors import NotKFrame
from kframekit.linalg import majorization_constant

# k_frame_check makes 6 per (frame, operator) pair and the pipeline checks
# three pairs; add the restricted inverse of S_F, the dual-identity residual
# and the SVD of T_F for the canonical coefficients
PIPELINE_CEILING = 21


def instance(seed: int, n: int = 8, count: int = 12, rank: int = 4):
    """(vectors, K, target) of a well-conditioned K-frame with rank(K) = rank."""
    rng = np.random.default_rng(seed)
    while True:
        syn = crandn(rng, n, count)
        k = syn @ (crandn(rng, count, rank) @ crandn(rng, rank, n))
        if well_conditioned(syn) and well_conditioned(k, rank):
            return syn.T.copy(), k, crandn(rng, n)


def pipeline(f, env, target, policy=DEFAULT_POLICY):
    bounds = k_frame_check(f, env, policy)
    dual = canonical_k_dual(f, env, policy)
    cert = verify_k_dual(f, dual, env, policy)
    lower = k_dual_lower_bounds(cert, policy)
    coeffs = canonical_coefficients(f, env, target, policy)
    return bounds, dual, cert, lower, coeffs


def assert_identical(a, b):
    bounds_a, dual_a, cert_a, lower_a, coeffs_a = a
    bounds_b, dual_b, cert_b, lower_b, coeffs_b = b
    assert (bounds_a.lower, bounds_a.upper) == (bounds_b.lower, bounds_b.upper)
    np.testing.assert_array_equal(dual_a.vectors, dual_b.vectors)
    assert (cert_a.residual, cert_a.threshold) == (cert_b.residual, cert_b.threshold)
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

    def count(owner, name):
        original = getattr(owner, name)

        def counted(a, *args, **kwargs):
            counter["n"] += 1
            counter["inputs"].append(np.array(a))
            counter["names"].append(name)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("svd", "eigh", "eigvalsh", "qr", "solve"):
        count(np.linalg, name)
    count(np.linalg._linalg, "svd")  # the binding np.linalg.norm(., 2) calls
    return counter


class TestCounts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pipeline_under_ceiling(self, factorizations, seed):
        vectors, k, target = instance(seed)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        pipeline(f, env, target)
        assert factorizations["n"] <= PIPELINE_CEILING

    def test_k_frame_check_on_a_fresh_pair(self, factorizations):
        # the SVD of T_F, three spectral norms (inclusion residual, lambda and
        # its cross-check) and the cross-check's QR and triangular solve
        vectors, k, _ = instance(10)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        k_frame_check(f, env)
        assert factorizations["n"] == 6

    def test_optimal_bounds_make_no_eigendecomposition(self, factorizations):
        vectors, k, _ = instance(19)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        mult = assemble_multiplier(Symbol.ones(f.size), f, f)
        factorizations["names"].clear()
        k_frame_check(f, env)
        k_right_inverse(mult, env)
        majorization_constant(k, f.synthesis)
        assert "qr" in factorizations["names"]
        assert not {"eigh", "eigvalsh"} & set(factorizations["names"])

    def test_admissible_perturbation_is_not_factored(self, factorizations):
        # the admissibility gate passes at the smallest threshold |phi| can give
        vectors, k, _ = instance(20)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        pert = admissible_perturbation(np.random.default_rng(20), f, env)
        factorizations["inputs"].clear()
        dual_family_generate(f, env, pert)
        assert not any(np.array_equal(a, pert.phi) for a in factorizations["inputs"])

    def test_operator_env_factors_k_once(self, factorizations):
        # both self-check residuals pass on their Frobenius norms
        _, k, _ = instance(10)
        factorizations["n"] = 0
        OperatorEnv.from_matrix(k)
        assert factorizations["n"] == 1

    def test_verify_k_dual_with_lower_bounds(self, factorizations):
        # one k_frame_check each for the frame and the dual, plus the residual
        vectors, k, _ = instance(11)
        dual = canonical_k_dual(Frame(vectors), OperatorEnv.from_matrix(k))
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        factorizations["n"] = 0
        verify_k_dual(f, dual, env, with_lower_bounds=True)
        assert factorizations["n"] <= 13

    def test_biorthogonal_right_inverse_on_a_fresh_instance(self, factorizations):
        # k_frame_check of Phi and of Psi (6 each), one SVD of T_Psi for both
        # the minimality test and the biorthogonal sequence, the restricted
        # inverse of S_Phi, three new frames' singular values, the two
        # multiplier norms and the residual; the K*-identity is the adjoint
        # of the K-identity and factors nothing
        phi, psi, env = minimal_instance(np.random.default_rng(12))
        factorizations["n"] = 0
        biorthogonal_right_inverse(phi, psi, env)
        assert factorizations["n"] == 20

    def test_range_inclusion_left_inverse_on_a_fresh_instance(self, factorizations):
        # k_frame_check of Psi and of Phi (6 each), the SVD of T_Psi* K and the
        # inclusion residual, two restricted inverses, the two new frames'
        # singular values, the two multiplier norms and the residual, whose
        # scale |K K*| is |K|^2, read off K's SVD
        psi, phi, env = both_inclusion_instance(np.random.default_rng(21))
        factorizations["n"] = 0
        range_inclusion_left_inverse(psi, phi, env)
        assert factorizations["n"] == 21

    def test_right_inverse_as_multiplier_is_the_left_side_on_the_adjoint(self, factorizations):
        rng = np.random.default_rng(14)
        psi, env_adj = random_k_frame(rng)  # psi is a K*-frame for K = env_adj.k_adjoint
        phi = dual_family_generate(psi, env_adj, admissible_perturbation(rng, psi, env_adj))
        choice = dual_family_generate(psi, env_adj, admissible_perturbation(rng, psi, env_adj))
        k, n = env_adj.k_adjoint, env_adj.dim
        # M_{1,Phi,P_K* Psi} = K, and K R = K since R only moves the kernel of K
        right = np.eye(n) + (np.eye(n) - env_adj.proj_range_k) @ crandn(rng, n, n)
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
        assert counts == [11, 11]

    def test_multiplier_is_factored_once(self, factorizations):
        # the Bessel-bound check's norm and both inverses read one SVD of M
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
        # that the Bessel-bound check made under the default policy
        vectors, k, _ = instance(18)
        rng = np.random.default_rng(18)
        f, g = Frame(vectors), Frame(crandn(rng, *vectors.shape))
        mult = assemble_multiplier(Symbol.semi_normalized(1.0 + rng.random(f.size)), f, g)
        tol = DEFAULT_POLICY.with_tol(1e-9)
        factorizations["inputs"].clear()
        right = k_right_inverse(mult, OperatorEnv.from_matrix(k), tol)
        assert not any(np.array_equal(a, mult.matrix) for a in factorizations["inputs"])
        fresh = k_right_inverse(Multiplier(mult.symbol, f, g, mult.matrix),
                                OperatorEnv.from_matrix(k), tol)
        assert right.matrix.tobytes() == fresh.matrix.tobytes()
        assert right.majorization == fresh.majorization

    def test_repeated_calls_factor_nothing(self, factorizations):
        vectors, k, _ = instance(4)
        f, env = Frame(vectors), OperatorEnv.from_matrix(k)
        bounds = k_frame_check(f, env)
        dual = canonical_k_dual(f, env)
        factorizations["n"] = 0
        assert k_frame_check(f, env) is bounds
        assert canonical_k_dual(f, env) is dual
        frame_restriction(f, env, DEFAULT_POLICY)
        env.norm(), env.pinv_norm(), env.adjoint()
        assert factorizations["n"] == 0


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
        loose = DEFAULT_POLICY.with_tol(1e-6)
        loose_bounds = k_frame_check(f, env, loose)
        assert loose_bounds.inclusion.threshold == pytest.approx(1e4 * bounds.inclusion.threshold)
        strict = DEFAULT_POLICY.with_tol(1e-30)
        with pytest.raises(NotKFrame):
            k_frame_check(f, env, strict)
        with pytest.raises(NotKFrame):
            canonical_k_dual(f, env, strict)
        assert k_frame_check(f, env) is bounds
        assert_identical(
            pipeline(f, env, target, loose),
            pipeline(Frame(vectors), OperatorEnv.from_matrix(k), target, loose),
        )


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


    def test_env_adjoint_holds_no_reference_back(self):
        _, k, _ = instance(17)
        gc.collect()
        gc.disable()
        try:
            env = OperatorEnv.from_matrix(k)
            ref = weakref.ref(env)
            adjoint = env.adjoint()
            adjoint.k_pinv, adjoint.proj_range_k, adjoint.adjoint()
            del env
            assert ref() is None
            np.testing.assert_array_equal(adjoint.k, k.conj().T)
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
                    results.append((mult._factors(), right, left, env.adjoint(), env.range_k))

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
