"""Frames, optimal bounds relative to K, tightness, minimality."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import (
    crandn,
    projector_onto_range,
    random_k_frame,
    skew_call,
    weak_direction_instance,
)

from kframekit import (
    Symbol,
    biorthogonal_right_inverse,
    canonical_dual_bound_certificate,
    canonical_k_dual,
    frames,
    perturbation_condition,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)
from kframekit.errors import (
    IndexExceedsDimension,
    InvalidBounds,
    NotKFrame,
    NotMinimal,
    ShapeMismatch,
    ZeroOperator,
)
from kframekit.frames import (
    Frame,
    bessel_as_k_frame,
    biorthogonal_sequence,
    k_frame_check,
    minimality_check,
    optimal_bessel_bound,
    tightness_check,
    validate_bounds,
)
from kframekit.linalg import OperatorEnv, spectral_norm


class TestFrameType:
    def test_rejects_ragged(self):
        with pytest.raises(ShapeMismatch):
            Frame(np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            Frame(np.zeros((0, 2)))

    def test_synthesis_columns_exact(self):
        rng = np.random.default_rng(1)
        vectors = crandn(rng, 5, 3)
        f = Frame(vectors)
        for i in range(5):
            assert np.array_equal(f.synthesis[:, i], vectors[i])

    def test_immutable(self):
        f = Frame(np.eye(2))
        with pytest.raises(ValueError):
            f.vectors[0, 0] = 5.0


class TestBuildFrameOps:
    def test_standard_basis(self):
        f = Frame(np.eye(2))
        np.testing.assert_allclose(f.synthesis, np.eye(2))
        np.testing.assert_allclose(f.frame_operator, np.eye(2))

    def test_projection_example(self, c2_example):
        np.testing.assert_allclose(
            c2_example.frame.frame_operator, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-14
        )

    def test_minimal_example(self, c4_example):
        np.testing.assert_allclose(
            c4_example.frame.frame_operator, np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-14
        )

    def test_analysis_is_adjoint(self):
        rng = np.random.default_rng(2)
        f = Frame(crandn(rng, 4, 3))
        np.testing.assert_array_equal(f.analysis, f.synthesis.conj().T)


class TestBesselBound:
    def test_standard_basis(self):
        assert optimal_bessel_bound(Frame(np.eye(3))) == pytest.approx(1.0)

    def test_projection_example(self, c2_example):
        assert optimal_bessel_bound(c2_example.frame) == pytest.approx(2.0)

    def test_scaled_pair(self):
        f = Frame(np.sqrt(2.0) * np.eye(2))
        assert optimal_bessel_bound(f) == pytest.approx(2.0)

    def test_least_valid(self):
        rng = np.random.default_rng(3)
        f = Frame(crandn(rng, 6, 4))
        b = optimal_bessel_bound(f)
        top = np.linalg.eigh(f.frame_operator)[1][:, -1]
        total = float(np.sum(np.abs(f.analysis @ top) ** 2))
        assert total == pytest.approx(b, rel=1e-12)  # equality attained


class TestKFrameCheck:
    def test_identity(self):
        bounds = k_frame_check(Frame(np.eye(2)), OperatorEnv.from_matrix(np.eye(2)))
        assert bounds.lower == pytest.approx(1.0)
        assert bounds.upper == pytest.approx(1.0)

    def test_projection_example(self, c2_example):
        bounds = k_frame_check(c2_example.frame, c2_example.env)
        assert bounds.lower == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert bounds.upper == pytest.approx(2.0, rel=1e-12)
        assert validate_bounds(c2_example.frame, c2_example.env, 1.0, 2.0).passed

    def test_minimal_example(self, c4_example):
        bounds = k_frame_check(c4_example.frame, c4_example.env)
        assert bounds.lower == pytest.approx(0.5, rel=1e-12)
        assert bounds.upper == pytest.approx(1.0, rel=1e-12)
        assert validate_bounds(c4_example.frame, c4_example.env, 0.125, 1.0).passed

    def test_upper_attained_fails_on_a_skewed_top_singular_value(self, monkeypatch):
        # |T_F* u_1|^2 = sigma_1^2 = B by the SVD, so only a fault can fail upper-attained:
        # read sigma_1 1e-6 high. T_F = diag(2, 1) and K = diag(0, 1) keep lambda's witness
        # on u_2, so lambda and the lower verdict do not see sigma_1
        skew = np.array([1.0 + 1e-6, 1.0])
        skew_call(monkeypatch, frames, "_factors", "k_frame_check", lambda factors:
                  dataclasses.replace(factors, singular_values=skew * factors.singular_values))
        bounds = k_frame_check(Frame(np.diag([2.0, 1.0])),
                               OperatorEnv.from_matrix(np.diag([0.0, 1.0])))
        assert bounds.lower == pytest.approx(1.0, rel=1e-12)
        assert bounds.inclusion.ok and bounds.lower_attained.ok
        assert not bounds.upper_attained.ok
        assert bounds.upper_attained.residual == pytest.approx(4.0 * (skew[0] ** 2 - 1.0),
                                                               rel=1e-6)

    def test_zero_operator_refused(self):
        with pytest.raises(ZeroOperator):
            k_frame_check(Frame(np.eye(2)), OperatorEnv.from_matrix(np.zeros((2, 2))))

    def test_not_k_frame(self):
        f = Frame([[1.0, 0.0]])
        with pytest.raises(NotKFrame):
            k_frame_check(f, OperatorEnv.from_matrix(np.eye(2)))

    def test_classical_bounds_match_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            f = Frame(crandn(rng, int(rng.integers(n, 12)), n))
            bounds = k_frame_check(f, OperatorEnv.from_matrix(np.eye(n)))
            eigs = np.linalg.eigvalsh(f.frame_operator)
            assert bounds.lower == pytest.approx(eigs[0], rel=1e-9)
            assert bounds.upper == pytest.approx(eigs[-1], rel=1e-9)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            c = float(rng.uniform(0.5, 3.0))
            base = k_frame_check(frame, env)
            scaled = k_frame_check(Frame(c * frame.vectors), env)
            assert scaled.lower == pytest.approx(c**2 * base.lower, rel=1e-9)
            assert scaled.upper == pytest.approx(c**2 * base.upper, rel=1e-9)

    def test_frame_sequence_as_projection_k_frame(self):
        # K = projection onto the span: optimal lower bound equals the
        # smallest positive eigenvalue of the frame operator
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, n))
            q, _ = np.linalg.qr(crandn(rng, n, r))
            vectors = (q @ crandn(rng, r, int(rng.integers(r + 1, 12)))).T
            f = Frame(vectors)
            env = OperatorEnv.from_matrix(q @ q.conj().T)
            bounds = k_frame_check(f, env)
            eigs = np.linalg.eigvalsh(f.frame_operator)
            positive = eigs[eigs > 1e-8 * eigs[-1]]
            assert bounds.lower == pytest.approx(float(positive[0]), rel=1e-8)


class TestValidateBounds:
    @pytest.mark.parametrize("c", [1e-3, 1e-5, 1e-6])
    def test_weak_direction_decides_a_against_the_optimal_bound(self, c):
        # a K K* <= S_F exactly when a <= A = c^2; an eigenvalue of S_F - a K K* has
        # error eps B, which hides every a with a |K|^2 below it
        f, env = weak_direction_instance(c)
        bounds = k_frame_check(f, env)
        assert bounds.lower == pytest.approx(c * c, rel=1e-8)
        for factor, valid in ((1.0, True), (0.5, True), (2.0, False), (100.0, False)):
            v = validate_bounds(f, env, factor * bounds.lower, bounds.upper)
            assert (v.lower.ok, v.passed) == (valid, valid), factor
            assert -v.lower.residual == pytest.approx((1.0 - factor) * bounds.lower, rel=1e-12)

    def test_weak_direction_perturbation_refuses_a_bound_above_a(self):
        # tau is linear in the lower bound used, so a = 100 A would certify a
        # perturbation 100 times larger than the theorem allows
        f, env = weak_direction_instance(1e-6)
        bounds = k_frame_check(f, env)
        ones = Symbol.ones(f.size)
        assert perturbation_condition(f, f, env, ones, bounds.lower, bounds.upper)
        with pytest.raises(InvalidBounds, match="A - a"):
            perturbation_condition(f, f, env, ones, 100.0 * bounds.lower, bounds.upper)

    @pytest.mark.parametrize("call, a, b, wrong", [
        (canonical_dual_bound_certificate, 0.0, 2.0, "lower"),
        (canonical_dual_bound_certificate, -0.0, 2.0, "lower"),
        (canonical_dual_bound_certificate, 4.0 / 3.0, np.inf, "upper"),
        (canonical_dual_bound_certificate, -1.0, 2.0, "lower"),
        (perturbation_condition, 0.0, 2.0, "lower"),
        (perturbation_condition, -1.0, 2.0, "lower"),
        (perturbation_condition, 4.0 / 3.0, np.inf, "upper"),
    ])
    def test_theorems_refuse_a_bound_pair_that_is_not_positive_and_finite(
            self, c2_example, call, a, b, wrong):
        # K-frame bounds are positive and finite: a <= 0 made the envelope divide by
        # zero or read |a|, and made tau 0 or negative, as b = inf made it 0 (A = 4/3, B = 2)
        f, env = c2_example.frame, c2_example.env
        args = (f, env, a, b) if call is canonical_dual_bound_certificate else (
            f, f, env, Symbol.ones(f.size), a, b)
        with pytest.raises(InvalidBounds, match=f"the {wrong} bound"):
            call(*args)

    def test_b_below_the_optimal_b_fails_upper(self, c2_example):
        # S_F <= b I fails for every b < B = 2; at a = A exactly the refusal of the
        # theorems prints A - a as 0.000e+00, not -0.000e+00
        f, env = c2_example.frame, c2_example.env
        lower = k_frame_check(f, env).lower
        v = validate_bounds(f, env, lower, 1.5)
        assert v.lower.ok and not v.upper.ok and not v.passed
        assert v.upper.residual == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(InvalidBounds, match=re.escape("A - a = 0.000e+00, b - B = -5.000e-01")):
            canonical_dual_bound_certificate(f, env, lower, 1.5)

    @pytest.mark.parametrize("call, a, b, lower, b_minus_b, residual", [
        (canonical_dual_bound_certificate, 2.0, 2.0, "-6.667e-01", 0.0, 2.0 / 3.0),
        (canonical_dual_bound_certificate, 1.0, 1.5, "3.333e-01", -0.5, 0.5),
        # both sides fail: the lower side's residual
        (canonical_dual_bound_certificate, 2.0, 1.5, "-6.667e-01", -0.5, 2.0 / 3.0),
        (perturbation_condition, 5.0, 2.0, "-3.667e+00", 0.0, 11.0 / 3.0),
    ])
    def test_refused_pair_carries_the_failed_sides_residual(
            self, c2_example, call, a, b, lower, b_minus_b, residual):
        # A = 4/3 and B = 2 on C^2: the residual is a - A, or B - b where only b fails; at
        # b = B the message prints B's rounding
        f, env = c2_example.frame, c2_example.env
        of, args = ("", (f, env, a, b)) if call is canonical_dual_bound_certificate else (
            " for Phi", (f, f, env, Symbol.ones(f.size), a, b))
        with pytest.raises(InvalidBounds) as info:
            call(*args)
        head = f"({a}, {b}) is not a valid K-frame bound pair{of}: A - a = {lower}, b - B = "
        message = str(info.value)
        assert message.startswith(head)
        assert float(message[len(head):]) == pytest.approx(b_minus_b, abs=1e-12)
        assert info.value.residual == pytest.approx(residual, rel=1e-12)

    def test_not_k_frame_fails_lower_without_raising(self):
        # R(K) is not in R(T_F): no positive lower bound holds, A = 0
        v = validate_bounds(Frame([[1.0, 0.0]]), OperatorEnv.from_matrix(np.eye(2)), 1e-300, 1.0)
        assert not v.lower.ok and v.upper.ok and not v.passed
        assert -v.lower.residual == -1e-300

    def test_zero_operator_passes_lower_without_raising(self):
        # a K K* = 0 <= S_F for every a
        zero = OperatorEnv.from_matrix(np.zeros((2, 2)))
        v = validate_bounds(Frame(np.eye(2)), zero, 1e300, 1.0)
        assert v.lower.ok and v.passed
        assert -v.lower.residual == np.inf

    def test_reads_the_memoized_bounds(self, monkeypatch, c2_example):
        # after k_frame_check, the pair is two comparisons: nothing is factored
        f, env = c2_example.frame, c2_example.env
        k_frame_check(f, env)

        def refused(*args, **kwargs):
            raise AssertionError("factored")

        for name in ("svd", "eigh", "eigvalsh", "qr", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(np.linalg._linalg, "svd", refused)  # what norm(., 2) calls
        v = validate_bounds(f, env, 4.0 / 3.0, 2.0)
        assert v.passed and v.lower.threshold == pytest.approx(1e-10 * 4.0 / 3.0, rel=1e-12)


class TestKFrameHypothesis:
    """The constructions that need F to be a K-frame test R(K) in R(T_F) alone
    (``_k_frame_hypothesis``), and still raise the hypothesis' named errors."""

    K = np.diag([1.0, 1.0, 0.0])
    GOOD = [[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]  # spans R(K)
    BAD = [[1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]  # misses e2 in R(K)
    CONSTRUCTIONS = {
        "canonical_k_dual": lambda f, env: canonical_k_dual(f, env),
        "biorthogonal_right_inverse":  # Phi's hypothesis comes first; Psi is minimal
            lambda f, env: biorthogonal_right_inverse(f, Frame(np.eye(f.ambient_dim)), env),
        "range_inclusion_right_inverse": lambda f, env: range_inclusion_right_inverse(f, f, env),
        "range_inclusion_left_inverse": lambda f, env: range_inclusion_left_inverse(f, f, env),
    }

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_not_k_frame(self, name):
        with pytest.raises(NotKFrame, match=r"^R\(K\) not contained in R\(T_F\): residual "):
            self.CONSTRUCTIONS[name](Frame(self.BAD), OperatorEnv.from_matrix(self.K))

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_zero_operator(self, name):
        with pytest.raises(ZeroOperator):
            self.CONSTRUCTIONS[name](Frame(self.GOOD), OperatorEnv.from_matrix(np.zeros((3, 3))))

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_shape_mismatch(self, name):
        with pytest.raises(ShapeMismatch, match=r"frame lives in C\^2, operator acts on C\^3"):
            self.CONSTRUCTIONS[name](Frame(np.eye(2)), OperatorEnv.from_matrix(self.K))

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_a_k_frame_passes(self, name):
        self.CONSTRUCTIONS[name](Frame(self.GOOD), OperatorEnv.from_matrix(self.K))


def k_star_instance(rng, n: int, k: int):
    """(env, q): K of rank k on C^n, singular values 2, 1, ..., and q = V_k, R(K*)'s basis."""
    u, _ = np.linalg.qr(crandn(rng, n, k))
    v, _ = np.linalg.qr(crandn(rng, n, k))
    env = OperatorEnv.from_matrix((u * np.linspace(2.0, 1.0, k)) @ v.conj().T)
    return env, env.adjoint().range_basis


class TestCoreCheck:
    """A frame T = V_k C W* that lives in R(K*) is checked as C against Sigma_k."""

    def test_duals_match_their_dense_copies(self):
        from kframekit.duality import canonical_k_dual, reciprocal_dual
        from kframekit.multipliers import Symbol, perturbation_k_dual

        rng = np.random.default_rng(31)
        for _ in range(20):
            f, env = random_k_frame(rng)
            found = k_frame_check(f, env)
            ones = Symbol.ones(f.size)
            for dual in (canonical_k_dual(f, env), reciprocal_dual(f, env).dual,
                         perturbation_k_dual(f, f, env, ones, (found.lower, found.upper)).dual):
                core = k_frame_check(dual, env.adjoint())
                dense = k_frame_check(Frame(dual.vectors), env.adjoint())
                assert core.inclusion.residual == 0.0
                assert core.lower == pytest.approx(dense.lower, rel=1e-12)
                assert core.upper == pytest.approx(dense.upper, rel=1e-12)

    def test_core_of_rank_below_k_is_not_a_k_frame(self):
        # C = diag(1, 0) (k = 2) spans one direction of R(K*): NotKFrame on both paths
        from kframekit.frames import _factored

        env, q = k_star_instance(np.random.default_rng(32), 6, 2)
        t = _factored(q, Frame(np.diag([1.0, 0.0])), None)
        with pytest.raises(NotKFrame):
            k_frame_check(t, env.adjoint())
        with pytest.raises(NotKFrame):
            k_frame_check(Frame(t.vectors), env.adjoint())

    def test_core_cutoff_is_the_cores_own(self):
        # C = diag(1, g) with max(k, r) 2^-40 < g < max(n, N) 2^-40: the core's rank rule
        # keeps g, so T is a K*-frame with A = 1/|C^+ Sigma_k|^2 = g^2 (Sigma_k = diag(2, 1));
        # a dense copy of T cuts g
        from kframekit.frames import _factored

        rng = np.random.default_rng(33)
        env, q = k_star_instance(rng, 64, 2)
        w, _ = np.linalg.qr(crandn(rng, 96, 2))
        g = 1e-11
        assert 2 * 2.0**-40 < g < 96 * 2.0**-40
        t = _factored(q, Frame(np.diag([1.0, g])), w)
        bounds = k_frame_check(t, env.adjoint())
        assert bounds.lower == pytest.approx(g**2, rel=1e-12)
        assert bounds.upper == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(NotKFrame):
            k_frame_check(Frame(t.vectors), env.adjoint())

    def test_another_basis_takes_the_dense_path(self):
        # Q = V_k R spans R(K*) too, but is not V_k entry for entry: T itself is checked
        from kframekit.frames import _factored

        rng = np.random.default_rng(34)
        env, q = k_star_instance(rng, 6, 2)
        rotation, _ = np.linalg.qr(crandn(rng, 2, 2))
        core = Frame(np.diag([1.0, 0.5]))
        t = _factored(q @ rotation, core, None)
        bounds = k_frame_check(t, env.adjoint())
        assert not [key for key in core._memo if "k_frame_check" in key]
        dense = k_frame_check(Frame(t.vectors), env.adjoint())
        assert bounds.lower == pytest.approx(dense.lower, rel=1e-12)
        k_frame_check(_factored(q, core, None), env.adjoint())  # V_k itself: the core
        assert [key for key in core._memo if "k_frame_check" in key]


class TestTightness:
    def test_parseval_basis(self):
        report = tightness_check(Frame(np.eye(2)), OperatorEnv.from_matrix(np.eye(2)))
        assert report.identity.ok and report.passed
        assert report.constant == pytest.approx(1.0)

    def test_adjoint_parseval(self, c4_example):
        dual = Frame([np.eye(4)[0], np.eye(4)[0], np.eye(4)[1]])
        report = tightness_check(dual, c4_example.env.adjoint())
        assert report.identity.ok and report.passed

    def test_tight_frame_with_constant_two_is_not_parseval(self):
        # S_F = 2 I = 2 K K*: tight, A = 2, so the Parseval verdict fails by |2 - 1|
        report = tightness_check(Frame(np.sqrt(2.0) * np.eye(2)), OperatorEnv.from_matrix(np.eye(2)))
        assert report.identity.ok and report.constant == pytest.approx(2.0)
        assert not report.parseval.ok and not report.passed
        assert report.parseval.residual == pytest.approx(1.0)

    def test_shape_mismatch(self, c2_example):
        with pytest.raises(ShapeMismatch, match="^frame/operator dimension mismatch$"):
            tightness_check(Frame(np.eye(3)), c2_example.env)

    def test_projection_example_not_tight(self, c2_example):
        report = tightness_check(c2_example.frame, c2_example.env)
        assert not report.identity.ok and report.constant is None
        assert report.identity.residual > 0.1


class TestBesselEmbedding:
    def test_standard_basis(self):
        env = bessel_as_k_frame(Frame(np.eye(2)))
        np.testing.assert_allclose(env.k, np.eye(2))

    def test_two_vectors(self):
        f = Frame([[1.0, 0.0], [1.0, 1.0]])
        env = bessel_as_k_frame(f)
        np.testing.assert_allclose(env.k, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_minimal_example(self, c4_example):
        env = bessel_as_k_frame(c4_example.frame)
        np.testing.assert_allclose(env.k, np.diag([1.0, 1.0, 1.0, 0.0]))
        assert tightness_check(c4_example.frame, env).passed

    def test_too_many_vectors(self):
        with pytest.raises(IndexExceedsDimension):
            bessel_as_k_frame(Frame([[1.0, 0], [0, 1.0], [1.0, 1.0]]))

    def test_always_parseval(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            f = Frame(crandn(rng, int(rng.integers(1, n + 1)), n))
            env = bessel_as_k_frame(f)
            gram = env.k @ env.k_adjoint
            s = f.frame_operator
            assert spectral_norm(gram - s) <= 1e-12 * max(1.0, spectral_norm(s))
            bounds = k_frame_check(f, env)
            assert bounds.lower == pytest.approx(1.0, rel=1e-9)


class TestMinimality:
    def test_independent_triple(self, c4_example):
        assert minimality_check(c4_example.frame)

    def test_repeated_vector(self):
        e = np.eye(4)
        assert not minimality_check(Frame([e[0], e[0], e[1]]))

    def test_single_vector(self):
        assert minimality_check(Frame([[0.0, 2.0]]))


class TestBiorthogonal:
    def test_standard_basis(self):
        f = Frame(np.eye(3))
        np.testing.assert_allclose(biorthogonal_sequence(f).vectors, f.vectors, atol=1e-14)

    def test_hand_pair(self):
        f = Frame([[1.0, 0.0], [1.0, 1.0]])
        g = biorthogonal_sequence(f)
        np.testing.assert_allclose(g.vectors, [[1.0, -1.0], [0.0, 1.0]], atol=1e-13)

    def test_orthonormal_subset(self, c4_example):
        g = biorthogonal_sequence(c4_example.frame)
        np.testing.assert_allclose(g.vectors, c4_example.frame.vectors, atol=1e-13)

    def test_not_minimal_raises(self):
        e = np.eye(4)
        with pytest.raises(NotMinimal):
            biorthogonal_sequence(Frame([e[0], e[0], e[1]]))

    def test_gram_identity_and_span(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            count = int(rng.integers(1, n + 1))
            f = Frame(crandn(rng, count, n))
            if not minimality_check(f):
                continue
            g = biorthogonal_sequence(f)
            pairing = g.analysis @ f.synthesis  # <f_i, g_j> at [j, i]
            assert spectral_norm(pairing - np.eye(count)) <= 1e-10
            # in-span: projecting g onto span{f_i} changes nothing
            proj = projector_onto_range(f.synthesis)
            assert spectral_norm(proj @ g.synthesis - g.synthesis) <= 1e-10
            # leaving the span breaks in-span uniqueness but not biorthogonality
            if count < n:
                stray = (np.eye(n) - proj) @ crandn(rng, n)
                if np.linalg.norm(stray) > 1e-3:
                    shifted = g.synthesis.copy()
                    shifted[:, 0] += stray
                    pairing2 = shifted.conj().T @ f.synthesis
                    assert spectral_norm(pairing2 - np.eye(count)) <= 1e-9
                    assert spectral_norm(proj @ shifted - shifted) > 1e-6
