"""Multipliers, K-left/right inverses, perturbation and inclusion recipes."""

import re

import numpy as np
import pytest
from conftest import (
    admissible_perturbation,
    both_inclusion_instance,
    crandn,
    hand_inclusion_instance,
    minimal_instance,
    projector_onto_range,
    random_k_frame,
    range_projector,
    skew_call,
)

from kframekit import multipliers
from kframekit.duality import canonical_k_dual, dual_family_generate, verify_k_dual
from kframekit.errors import (
    ConditionViolated,
    HypothesisNotMet,
    InternalConsistencyError,
    NoLeftInverse,
    NoRightInverse,
    NotADual,
    NotAnInverse,
    NotMinimal,
    NotSemiNormalized,
    RangeNotIncluded,
    RestrictionSingular,
    ShapeMismatch,
)
from kframekit.frames import Frame, k_frame_check, optimal_bessel_bound
from kframekit.linalg import OperatorEnv, spectral_norm
from kframekit.multipliers import (
    Symbol,
    assemble_multiplier,
    biorthogonal_right_inverse,
    frames_from_multiplier_identity,
    inverse_as_multiplier,
    k_left_inverse,
    k_right_inverse,
    perturbation_condition,
    perturbation_k_dual,
    perturbation_right_inverse,
    range_inclusion_inverses,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)

SQRT2 = np.sqrt(2.0)


def projected_frame(frame: Frame, projector: np.ndarray) -> Frame:
    return frame.map(projector)


class TestSymbol:
    def test_semi_normalized_derives_bounds(self):
        s = Symbol.semi_normalized([1.0, -2.0, 1j])
        assert s.lower == pytest.approx(1.0)
        assert s.upper == pytest.approx(2.0)
        assert s.is_semi_normalized

    def test_inconsistent_declaration_rejected(self):
        with pytest.raises(NotSemiNormalized):
            Symbol(np.array([1.0, 3.0]), 1.0, 2.0)
        with pytest.raises(NotSemiNormalized):
            Symbol(np.array([0.0, 1.0]), 0.5, 1.0)
        with pytest.raises(NotSemiNormalized):
            Symbol(np.array([1.0]), -1.0, 1.0)
        # a declared bound must be finite: nan and inf bracket no moduli
        with pytest.raises(NotSemiNormalized, match=re.escape("(1.0, nan) do not bracket")):
            Symbol(np.ones(3), 1.0, float("nan"))
        with pytest.raises(NotSemiNormalized, match=re.escape("(1.0, inf) do not bracket")):
            Symbol(np.ones(3), 1.0, float("inf"))

    def test_refusals(self):
        with pytest.raises(ShapeMismatch, match="^symbol must not be empty$"):
            Symbol(np.array([]))
        with pytest.raises(NotSemiNormalized, match="^symbol contains NaN or Inf$"):
            Symbol(np.array([1.0, np.nan]))
        with pytest.raises(NotSemiNormalized,
                           match="^declare both semi-normalization bounds or neither$"):
            Symbol(np.ones(2), 1.0)
        with pytest.raises(NotSemiNormalized,
                           match="^a semi-normalized symbol needs strictly positive moduli$"):
            Symbol.semi_normalized([1.0, 0.0])

    def test_zero_allowed_without_bounds(self):
        s = Symbol(np.zeros(3))
        assert not s.is_semi_normalized
        assert s.sup_modulus == 0.0

    def test_conjugated_keeps_bounds(self):
        s = Symbol.semi_normalized([1j, 2.0]).conjugated()
        np.testing.assert_allclose(s.values, [-1j, 2.0])
        assert s.lower == pytest.approx(1.0) and s.upper == pytest.approx(2.0)


class TestAssemble:
    def test_identity(self):
        f = Frame(np.eye(2))
        mult = assemble_multiplier(Symbol.ones(2), f, f)
        np.testing.assert_allclose(mult.matrix, np.eye(2), atol=1e-14)

    def test_unit_symbol_gives_frame_operator(self, c2_example):
        f = c2_example.frame
        mult = assemble_multiplier(Symbol.ones(3), f, f)
        np.testing.assert_allclose(mult.matrix, f.frame_operator, atol=1e-14)

    def test_dual_identity_as_multiplier(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        projected = projected_frame(c2_example.frame, range_projector(c2_example.env))
        mult = assemble_multiplier(Symbol.ones(3), projected, dual)
        np.testing.assert_allclose(mult.matrix, c2_example.env.k, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            assemble_multiplier(Symbol.ones(2), Frame(np.eye(2)), Frame(np.eye(3)))

    def test_norm_bound_random(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            count = int(rng.integers(1, 11))
            phi = Frame(crandn(rng, count, n))
            psi = Frame(crandn(rng, count, n))
            m = Symbol(crandn(rng, count))
            mult = assemble_multiplier(m, phi, psi)
            bound = np.sqrt(optimal_bessel_bound(phi) * optimal_bessel_bound(psi))
            assert mult.norm() <= bound * m.sup_modulus + 1e-10

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-6, 7, 2))
    def test_norm_bound_holds_at_every_scale(self, scale):
        # M_{1,F,F} = S_F meets its bound B_F up to rounding, which grows with
        # the scale of the entries; the slack must grow with it
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = Frame(scale * crandn(rng, 12, 8))
            mult = assemble_multiplier(Symbol.ones(f.size), f, f)
            assert mult.norm() == pytest.approx(mult.norm_bound(), rel=1e-12)


    def test_skewed_svd_fails_the_norm_bound_check(self, skewed_multiplier_svd):
        # assembling factors nothing, so the check on request is where a bad SVD shows;
        # the bound holds for every M, so its failure is an internal inconsistency
        rng = np.random.default_rng(0)
        for scale in (1e-6, 1.0, 1e6):
            f = Frame(scale * crandn(rng, 12, 8))
            mult = assemble_multiplier(Symbol.ones(f.size), f, f)
            message = r"^multiplier norm .* exceeds sqrt\(B_Phi B_Psi\) sup\|m\| = "
            with pytest.raises(InternalConsistencyError, match=message) as caught:
                mult.norm_bound_check()
            assert caught.value.residual == pytest.approx(1e-7 * mult.norm_bound(), rel=1e-4)


class TestRightInverse:
    def test_identity(self):
        mult = assemble_multiplier(Symbol.ones(2), Frame(np.eye(2)), Frame(np.eye(2)))
        out = k_right_inverse(mult, OperatorEnv.from_matrix(np.eye(2)))
        np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-14)
        assert out.majorization == pytest.approx(1.0)

    def test_projection_example(self, c2_example):
        f = c2_example.frame
        mult = assemble_multiplier(Symbol.ones(3), f, f)  # M = S_F, invertible
        out = k_right_inverse(mult, c2_example.env)
        expected = np.linalg.inv(f.frame_operator) @ c2_example.env.k
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(mult.matrix @ out.matrix, c2_example.env.k, atol=1e-12)

    def test_disjoint_ranges(self):
        phi = Frame([[0.0, 1.0]])
        mult = assemble_multiplier(Symbol.ones(1), phi, phi)  # M = diag(0, 1)
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(NoRightInverse):
            k_right_inverse(mult, env)

    def test_minimal_norm_solution(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            mult = assemble_multiplier(
                Symbol(crandn(rng, frame.size)), frame, Frame(crandn(rng, frame.size, env.dim))
            )
            try:
                out = k_right_inverse(mult, env)
            except NoRightInverse:
                continue
            proj = projector_onto_range(mult.matrix.conj().T)
            assert spectral_norm(proj @ out.matrix - out.matrix) <= 1e-9
            # any kernel shift solves M X = K but has larger Frobenius norm
            u, s, vh = np.linalg.svd(mult.matrix, full_matrices=True)
            rank = int(np.sum(s > s[0] * max(mult.matrix.shape) * 2.0**-40))
            null = vh[rank:].conj().T
            if null.shape[1]:
                shift = null @ crandn(rng, null.shape[1], env.dim)
                candidate = out.matrix + shift
                assert spectral_norm(mult.matrix @ candidate - env.k) <= 1e-9 * max(
                    1.0, env.norm()
                )
                assert np.linalg.norm(candidate) > np.linalg.norm(out.matrix)

    def test_degenerate_symbol(self):
        phi = Frame(np.eye(2))
        mult = assemble_multiplier(Symbol(np.zeros(2)), phi, phi)
        with pytest.raises(NoRightInverse):
            k_right_inverse(mult, OperatorEnv.from_matrix(np.eye(2)))


class TestRightInverseEquivalence:
    @staticmethod
    def predicates(mult, env):
        from kframekit.linalg import svd_decompose
        from tests_support_douglas import inclusion_check, min_eig

        included = bool(inclusion_check(env.k, mult.matrix))
        lam_hat = spectral_norm(svd_decompose(mult.matrix).pinv() @ env.k)
        gk = env.k @ env.k_adjoint
        gm = mult.matrix @ mult.matrix.conj().T
        slack = min_eig((lam_hat * (1 + 1e-8)) ** 2 * gm - gk)
        majorized = slack >= -1e-9 * max(1.0, spectral_norm(gk))
        try:
            k_right_inverse(mult, env)
            has_inverse = True
        except NoRightInverse:
            has_inverse = False
        return included, majorized, has_inverse

    def test_three_predicates_agree(self):
        from conftest import well_conditioned

        rng = np.random.default_rng(211)
        hits = {True: 0, False: 0}
        while min(hits.values()) < 10:
            n = int(rng.integers(2, 7))
            count = int(rng.integers(1, n))  # keep M rank deficient
            phi = Frame(crandn(rng, count, n))
            psi = Frame(crandn(rng, count, n))
            mult = assemble_multiplier(Symbol(crandn(rng, count)), phi, psi)
            if rng.random() < 0.5:
                k = mult.matrix @ crandn(rng, n, n)  # forces the inclusion
            else:
                k = crandn(rng, n, n)
            if not well_conditioned(k):
                continue
            env = OperatorEnv.from_matrix(k)
            preds = self.predicates(mult, env)
            assert preds[0] == preds[1] == preds[2]
            hits[preds[0]] += 1


class TestLeftInverse:
    def test_identity(self):
        mult = assemble_multiplier(Symbol.ones(2), Frame(np.eye(2)), Frame(np.eye(2)))
        np.testing.assert_allclose(
            k_left_inverse(mult, OperatorEnv.from_matrix(np.eye(2))), np.eye(2), atol=1e-14
        )

    def test_projection_example(self, c2_example):
        f = c2_example.frame
        mult = assemble_multiplier(Symbol.ones(3), f, f)
        left = k_left_inverse(mult, c2_example.env)
        expected = c2_example.env.k @ np.linalg.inv(f.frame_operator)
        np.testing.assert_allclose(left, expected, atol=1e-12)
        np.testing.assert_allclose(left @ mult.matrix, c2_example.env.k, atol=1e-12)

    def test_disjoint_ranges(self):
        phi = Frame([[0.0, 1.0]])
        mult = assemble_multiplier(Symbol.ones(1), phi, phi)
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(NoLeftInverse):
            k_left_inverse(mult, env)

    def test_adjoint_duality(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            psi = Frame(crandn(rng, frame.size, env.dim))
            m = Symbol(crandn(rng, frame.size))
            mult = assemble_multiplier(m, frame, psi)
            flipped = assemble_multiplier(m.conjugated(), psi, frame)
            np.testing.assert_allclose(flipped.matrix, mult.matrix.conj().T, atol=1e-12)
            adjoint = mult.adjoint()
            np.testing.assert_array_equal(adjoint.matrix, mult.matrix.conj().T)
            np.testing.assert_array_equal(adjoint.symbol.values, flipped.symbol.values)
            assert adjoint.phi is psi and adjoint.psi is frame
            try:
                left = k_left_inverse(mult, env)
                ok_left = True
            except NoLeftInverse:
                ok_left = False
            try:
                right = k_right_inverse(flipped, env.adjoint())
                ok_right = True
            except NoRightInverse:
                ok_right = False
            assert ok_left == ok_right
            if ok_left:
                np.testing.assert_allclose(left, right.matrix.conj().T, atol=1e-10)


class TestFramesFromIdentity:
    def test_identity_case(self):
        f = Frame(np.eye(2))
        mult = assemble_multiplier(Symbol.ones(2), f, f)
        report = frames_from_multiplier_identity(mult, OperatorEnv.from_matrix(np.eye(2)))
        assert report.case == "identity" and report.passed
        assert report.phi_side.guaranteed == pytest.approx(1.0)
        assert report.phi_side.optimal == pytest.approx(1.0)

    def test_projection_example_sides(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        projected = projected_frame(c2_example.frame, range_projector(c2_example.env))
        mult = assemble_multiplier(Symbol.ones(3), projected, dual)
        report = frames_from_multiplier_identity(mult, c2_example.env)
        assert report.case == "identity" and report.passed
        assert report.phi_side.guaranteed == pytest.approx(1.0 / 0.72, rel=1e-12)
        assert report.phi_side.optimal == pytest.approx(1.5, rel=1e-12)
        assert report.psi_side.guaranteed == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert report.psi_side.optimal == pytest.approx(0.72, rel=1e-12)

    def test_inverse_case(self, c2_example):
        f = c2_example.frame
        mult = assemble_multiplier(Symbol.ones(3), f, f)  # M = S_F != K, invertible
        report = frames_from_multiplier_identity(mult, c2_example.env)
        assert report.case == "inverse" and report.passed
        assert report.phi_side is not None and report.psi_side is not None
        assert report.phi_side.optimal >= report.phi_side.guaranteed * (1 - 1e-9)

    def test_hypothesis_not_met(self):
        f = Frame(np.eye(2))
        mult = assemble_multiplier(Symbol(np.zeros(2)), f, f)
        with pytest.raises(HypothesisNotMet):
            frames_from_multiplier_identity(mult, OperatorEnv.from_matrix(np.eye(2)))


class TestInverseAsMultiplier:
    def test_trivial_left(self):
        f = Frame(np.eye(2))
        env = OperatorEnv.from_matrix(np.eye(2))
        out = inverse_as_multiplier(f, f, env, np.eye(2), "left", f)
        assert out.passed
        np.testing.assert_allclose(out.achieved, np.eye(2), atol=1e-13)

    def test_projection_example_left(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        proj = range_projector(c2_example.env)
        out = inverse_as_multiplier(
            c2_example.frame, dual, c2_example.env, proj, "left", dual
        )
        assert out.passed
        np.testing.assert_allclose(out.target, c2_example.env.k, atol=1e-13)

    def test_identity_fails_on_a_skewed_factor(self, c2_example, monkeypatch):
        # M_{1, L P_K Phi, Phi-dag} = L K for every K-dual Phi-dag by the theorem, so only a
        # fault can fail the identity: the factor on dual_choice (a copy of Ftilde, so that
        # it is not Psi) is assembled 1e-6 high; the inverse and the transported dual hold
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        choice = Frame(dual.vectors)
        skew_call(monkeypatch, multipliers, "assemble_multiplier", "inverse_as_multiplier",
                  lambda m: multipliers.Multiplier(m.symbol, m.phi, m.psi, (1 + 1e-6) * m.matrix)
                  if m.psi is choice else m)
        out = inverse_as_multiplier(c2_example.frame, dual, c2_example.env,
                                    range_projector(c2_example.env), "left", choice)
        assert all(out.certificates.values()) and not out.identity.ok and not out.passed
        assert out.identity.residual == pytest.approx(1e-6, rel=1e-6)  # |L K| = 1

    def test_random_left_instances(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            psi = dual_family_generate(frame, env, admissible_perturbation(rng, frame, env))
            scale = float(rng.uniform(0.5, 2.0))
            psi = Frame(scale * psi.vectors)  # M_{1,P_K Phi,Psi} = scale * K
            stray = crandn(rng, env.dim, env.dim)
            left = (np.eye(env.dim) + stray @ (np.eye(env.dim) - range_projector(env))) / scale
            dual_choice = dual_family_generate(
                frame, env, admissible_perturbation(rng, frame, env)
            )
            out = inverse_as_multiplier(frame, psi, env, left, "left", dual_choice)
            assert out.passed
            assert out.identity.residual <= 1e-9 * max(1.0, spectral_norm(out.target))

    def test_random_right_instances_compose_with_k_on_the_left(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            psi, env_adj = random_k_frame(rng)
            env = env_adj.adjoint()  # psi is a K*-frame for env
            phi = dual_family_generate(psi, env_adj, admissible_perturbation(rng, psi, env_adj))
            scale = float(rng.uniform(0.5, 2.0))
            phi = Frame(scale * phi.vectors)  # M_{1,Phi,P_K* Psi} = scale * K
            stray = crandn(rng, env.dim, env.dim)
            right = (
                np.eye(env.dim) + (np.eye(env.dim) - range_projector(env.adjoint())) @ stray
            ) / scale
            dual_choice = dual_family_generate(
                psi, env_adj, admissible_perturbation(rng, psi, env_adj)
            )
            out = inverse_as_multiplier(phi, psi, env, right, "right", dual_choice)
            assert out.passed
            np.testing.assert_allclose(out.target, env.k @ right, atol=1e-12)
            # the multiplier realizes K R; the reversed product R K differs
            # whenever R moves the complement of R(K*) into K's support
            reversed_product = right @ env.k
            if spectral_norm(reversed_product - out.target) > 1e-6:
                assert spectral_norm(out.achieved - reversed_product) > 1e-6

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_transported_frame_matches_the_projector_formula(self, side):
        # {L P_K phi_i} is L applied to the factored P_K Phi frame; the n x n formula
        # phi.map(L U_k U_k*) gives the same frame, residual and verdict
        rng = np.random.default_rng(127)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            psi = dual_family_generate(frame, env, admissible_perturbation(rng, frame, env))
            choice = dual_family_generate(frame, env, admissible_perturbation(rng, frame, env))
            stray = crandn(rng, env.dim, env.dim)
            left = np.eye(env.dim) + stray @ (np.eye(env.dim) - range_projector(env))
            if side == "left":
                out = inverse_as_multiplier(frame, psi, env, left, "left", choice)
                transported = out.factors[0].phi
            else:  # R = L* is a K*-right inverse of M_{1,Psi,P_K Phi} = K*
                out = inverse_as_multiplier(psi, frame, env.adjoint(), left.conj().T, "right",
                                            choice)
                transported = out.factors[0].psi
            expected = frame.map(left @ range_projector(env))
            assert (np.linalg.norm(transported.vectors - expected.vectors)
                    <= 1e-12 * np.linalg.norm(expected.vectors))
            target = left @ env.k
            reference = assemble_multiplier(Symbol.ones(frame.size), expected, choice)
            residual = spectral_norm(reference.matrix - target)
            inter = verify_k_dual(expected, psi, env, with_lower_bounds=False)
            assert out.identity.residual == pytest.approx(
                residual, abs=1e-12 * spectral_norm(target))
            assert out.certificates["dual_of_transported"].residual == pytest.approx(
                inter.residual, abs=1e-12 * env.norm())
            assert out.passed == (residual <= out.identity.threshold and inter.passed)
            assert out.passed

    def test_not_an_inverse(self, c2_example):
        # the base multiplier P_K T_F T_Ftilde* is K, so the residual is |3.7 K - K| = 2.7
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        message = r"^inverse misses the projected multiplier identity by 2\.700e\+00$"
        with pytest.raises(NotAnInverse, match=message) as caught:
            inverse_as_multiplier(
                c2_example.frame, dual, c2_example.env, 3.7 * np.eye(2), "left", dual
            )
        assert caught.value.residual == pytest.approx(2.7, rel=1e-12)

    def test_not_a_dual(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        proj = range_projector(c2_example.env)
        message = r"^dual_choice is not a dual of its frame \(residual 1\.000e\+00\)$"
        with pytest.raises(NotADual, match=message) as caught:
            inverse_as_multiplier(
                c2_example.frame, dual, c2_example.env, proj, "left", Frame(2.0 * dual.vectors)
            )
        assert caught.value.residual == pytest.approx(1.0, rel=1e-12)  # |2K - K|

    # K is a self-adjoint projection here, so M_{1,Ftilde,P_K* F} = K* = K
    # and the right side mirrors the left cases with the frames swapped

    def test_not_an_inverse_right(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        with pytest.raises(NotAnInverse, match=r"identity by 2\.700e\+00$") as caught:
            inverse_as_multiplier(
                dual, c2_example.frame, c2_example.env, 3.7 * np.eye(2), "right", dual
            )
        assert caught.value.residual == pytest.approx(2.7, rel=1e-12)

    def test_not_a_dual_right(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        proj = range_projector(c2_example.env)
        out = inverse_as_multiplier(dual, c2_example.frame, c2_example.env, proj, "right", dual)
        assert out.passed
        with pytest.raises(NotADual):
            inverse_as_multiplier(
                dual, c2_example.frame, c2_example.env, proj, "right", Frame(2.0 * dual.vectors)
            )

    def test_unknown_side(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        proj = range_projector(c2_example.env)
        with pytest.raises(ValueError):
            inverse_as_multiplier(c2_example.frame, dual, c2_example.env, proj, "both", dual)


class TestBiorthogonalInverse:
    def test_trivial(self):
        f = Frame(np.eye(2))
        out = biorthogonal_right_inverse(f, f, OperatorEnv.from_matrix(np.eye(2)))
        assert out.passed
        np.testing.assert_allclose(out.forward.achieved, np.eye(2), atol=1e-13)

    def test_minimal_example(self, c4_example):
        f = c4_example.frame
        out = biorthogonal_right_inverse(f, f, c4_example.env)
        assert out.passed
        # the synthesis-side factor acts as f -> (f1, f1, f2, 0), i.e. K itself
        np.testing.assert_allclose(
            out.forward.factors[1].matrix, c4_example.env.k, atol=1e-13
        )
        np.testing.assert_allclose(out.forward.achieved, c4_example.env.k, atol=1e-13)
        np.testing.assert_allclose(out.mirrored.achieved, c4_example.env.k_adjoint, atol=1e-13)

    def test_random_mirrored_products(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            phi, psi, env = minimal_instance(rng)
            out = biorthogonal_right_inverse(phi, psi, env)
            assert out.passed
            product = np.eye(env.dim)
            for factor in out.mirrored.factors:  # recomputed from frames and symbols
                product = product @ (
                    (factor.phi.synthesis * factor.symbol.values) @ factor.psi.analysis
                )
            assert spectral_norm(product - env.k_adjoint) <= 1e-9 * max(1.0, env.norm())

    def test_not_minimal(self, c4_example):
        e = np.eye(4)
        with pytest.raises(NotMinimal):
            biorthogonal_right_inverse(
                c4_example.frame, Frame([e[0], e[0], e[1]]), c4_example.env
            )


class TestPerturbationCondition:
    def test_zero_perturbation(self, c2_example):
        cond = perturbation_condition(
            c2_example.frame, c2_example.frame, c2_example.env, Symbol.ones(3), 1.0, 2.0
        )
        assert cond.residual == 0.0 and cond.ok

    def test_threshold_value(self, c2_example):
        cond = perturbation_condition(
            c2_example.frame, c2_example.frame, c2_example.env, Symbol.ones(3), 1.0, 2.0
        )
        assert cond.threshold == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_large_perturbation(self, c2_example):
        vectors = c2_example.frame.vectors.copy()
        vectors[0] = vectors[0] + np.array([1.0, 0.0])
        psi = Frame(vectors)
        cond = perturbation_condition(
            c2_example.frame, psi, c2_example.env, Symbol.ones(3), 1.0, 2.0
        )
        assert cond.residual == pytest.approx(1.0, rel=1e-12)
        assert not cond.ok

    def test_requires_semi_normalized(self, c2_example):
        with pytest.raises(NotSemiNormalized):
            perturbation_condition(
                c2_example.frame, c2_example.frame, c2_example.env,
                Symbol(np.ones(3)), 1.0, 2.0,
            )


def perturbed_pair(rng, frame, env, tau, fraction):
    """Psi = Phi + E with restricted perturbation norm fraction * tau."""
    while True:
        bump = crandn(rng, frame.size, frame.ambient_dim)
        base = spectral_norm((Frame(frame.vectors + bump).analysis - frame.analysis)
                             @ env.range_basis)
        if base > 1e-8:
            scale = fraction * tau / base
            return Frame(frame.vectors + scale * bump)


class TestPerturbationConstructions:
    def test_collapse_to_canonical(self, c2_example):
        cert = perturbation_k_dual(
            c2_example.frame, c2_example.frame, c2_example.env, Symbol.ones(3), (1.0, 2.0)
        )
        assert cert.passed
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        np.testing.assert_allclose(cert.dual.vectors, dual.vectors, atol=1e-12)

    def test_trivial_instance(self):
        f = Frame(np.eye(2))
        env = OperatorEnv.from_matrix(np.eye(2))
        cert = perturbation_k_dual(f, f, env, Symbol.ones(2), (1.0, 1.0))
        assert cert.passed
        np.testing.assert_allclose(cert.dual.vectors, f.vectors, atol=1e-13)

    def test_half_threshold_perturbations(self, c2_example):
        rng = np.random.default_rng(127)
        ones = Symbol.ones(3)
        cond = perturbation_condition(
            c2_example.frame, c2_example.frame, c2_example.env, ones, 1.0, 2.0
        )
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        for _ in range(10):
            psi = perturbed_pair(rng, c2_example.frame, c2_example.env, cond.threshold, 0.5)
            cert = perturbation_k_dual(
                c2_example.frame, psi, c2_example.env, ones, (1.0, 2.0)
            )
            assert cert.passed and cert.residual <= 1e-9
            fact = perturbation_right_inverse(
                c2_example.frame, psi, c2_example.env, ones, (1.0, 2.0), dual
            )
            assert fact.passed and fact.identity.residual <= 1e-9

    def test_right_inverse_carries_the_condition(self, c2_example):
        # rho <= tau is a certificate, the verdict perturbation_condition returns;
        # diagnostics keep only the numbers no verdict holds
        f, env, ones = c2_example.frame, c2_example.env, Symbol.ones(3)
        cond = perturbation_condition(f, f, env, ones, 1.0, 2.0)
        psi = perturbed_pair(np.random.default_rng(149), f, env, cond.threshold, 0.5)
        fact = perturbation_right_inverse(f, psi, env, ones, (1.0, 2.0), canonical_k_dual(f, env))
        assert fact.certificates["condition"] == perturbation_condition(
            f, psi, env, ones, 1.0, 2.0)
        assert 0.0 < fact.certificates["condition"].residual < cond.threshold
        assert set(fact.diagnostics) == {"margin", "distance"}

    def test_right_inverse_refuses_a_dual_choice_that_is_not_a_k_dual(self, c2_example):
        f, env = c2_example.frame, c2_example.env
        twice = Frame(2.0 * canonical_k_dual(f, env).vectors)  # |2K - K| = 1
        message = r"^dual_choice is not a K-dual of Phi \(residual 1\.000e\+00\)$"
        with pytest.raises(NotADual, match=message) as caught:
            perturbation_right_inverse(f, f, env, Symbol.ones(3), (1.0, 2.0), twice)
        assert caught.value.residual == pytest.approx(1.0, rel=1e-12)

    def test_right_inverse_trivial_instance(self):
        f = Frame(np.eye(2))
        env = OperatorEnv.from_matrix(np.eye(2))
        fact = perturbation_right_inverse(f, f, env, Symbol.ones(2), (1.0, 1.0), f)
        assert fact.passed
        # R = (M^-1)* K = I here, and its multiplier form matches
        np.testing.assert_allclose(fact.factors[1].matrix, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(fact.achieved, np.eye(2), atol=1e-13)

    def test_right_inverse_collapse_instance(self, c2_example):
        # Psi = Phi, m = 1: M = S_F, R extends ((S_F|_R(K))^-1)* K
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        fact = perturbation_right_inverse(
            c2_example.frame, c2_example.frame, c2_example.env,
            Symbol.ones(3), (1.0, 2.0), dual,
        )
        assert fact.passed and fact.identity.residual <= 1e-10
        np.testing.assert_allclose(fact.achieved, c2_example.env.k, atol=1e-12)

    def test_perturbed_dual_recovers_through_family(self, c2_example):
        # a dual built by the perturbation construction is a family member
        rng = np.random.default_rng(139)
        ones = Symbol.ones(3)
        cond = perturbation_condition(
            c2_example.frame, c2_example.frame, c2_example.env, ones, 1.0, 2.0
        )
        psi = perturbed_pair(rng, c2_example.frame, c2_example.env, cond.threshold, 0.4)
        cert = perturbation_k_dual(
            c2_example.frame, psi, c2_example.env, ones, (1.0, 2.0)
        )
        assert cert.passed
        from kframekit.duality import dual_family_generate, dual_family_recover_phi

        phi = dual_family_recover_phi(psi, cert.dual, c2_example.env)
        again = dual_family_generate(psi, c2_example.env, phi)
        assert float(np.max(np.abs(again.vectors - cert.dual.vectors))) <= 1e-9

    def test_margin_never_trips_under_condition(self):
        # positive semi-normalized symbols: satisfied condition implies the
        # restriction margin strictly dominates the perturbation distance
        rng = np.random.default_rng(131)
        done = 0
        while done < 10:
            frame, env = random_k_frame(rng)
            from kframekit.frames import k_frame_check

            bounds = k_frame_check(frame, env)
            m = Symbol.semi_normalized(rng.uniform(0.5, 2.0, size=frame.size))
            cond = perturbation_condition(
                frame, frame, env, m, bounds.lower, bounds.upper
            )
            psi = perturbed_pair(rng, frame, env, cond.threshold, float(rng.uniform(0.1, 0.9)))
            dual = canonical_k_dual(frame, env)
            fact = perturbation_right_inverse(
                frame, psi, env, m, (bounds.lower, bounds.upper), dual
            )
            assert fact.diagnostics["distance"] < fact.diagnostics["margin"]
            assert fact.passed
            done += 1

    def test_margin_and_distance_match_the_operators(self):
        # sigma_min(T_Phi diag(m) T_Phi* Q) and |T_Phi diag(m) (T_Phi - T_Psi)* Q|,
        # formed here as n x k operators
        rng = np.random.default_rng(137)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            bounds = k_frame_check(frame, env)
            m = Symbol.semi_normalized(rng.uniform(0.5, 2.0, size=frame.size))
            tau = perturbation_condition(
                frame, frame, env, m, bounds.lower, bounds.upper).threshold
            psi = perturbed_pair(rng, frame, env, tau, float(rng.uniform(0.1, 0.9)))
            fact = perturbation_right_inverse(frame, psi, env, m, (bounds.lower, bounds.upper),
                                              canonical_k_dual(frame, env))
            weighted, q = frame.synthesis * m.values, env.range_basis
            margin = np.linalg.svd(weighted @ frame.analysis @ q, compute_uv=False)[-1]
            distance = np.linalg.norm(weighted @ (frame.analysis - psi.analysis) @ q, 2)
            assert fact.diagnostics["margin"] == pytest.approx(margin, rel=1e-12)
            assert fact.diagnostics["distance"] == pytest.approx(distance, rel=1e-12)

    def test_collapsing_reference_is_singular(self):
        # Phi = {e1, e1}, m = (1, -1): M_{m,Phi,Phi} = e1 e1* - e1 e1* = 0 on R(K) = span{e1}
        phi = Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        m = Symbol.semi_normalized([1.0, -1.0])
        with pytest.raises(RestrictionSingular, match="reference operator already collapses"):
            perturbation_k_dual(phi, phi, env, m, (2.0, 2.0))

    def test_condition_violated(self, c2_example):
        vectors = c2_example.frame.vectors.copy()
        vectors[0] = vectors[0] + np.array([2.0, 0.0])
        with pytest.raises(ConditionViolated):
            perturbation_k_dual(
                c2_example.frame, Frame(vectors), c2_example.env, Symbol.ones(3), (1.0, 2.0)
            )

    def test_condition_violated_carries_rho(self, c2_example):
        # Psi = Phi + 0.9 entrywise: rho = 0.9 sqrt(3) on R(K) = span e1, against
        # tau = 1 / sqrt(2) for (A, B) = (1, 2) and |Kdag| = 1
        f = c2_example.frame
        with pytest.raises(ConditionViolated, match="^perturbation norm 1.55885 exceeds "
                           "threshold 0.707107$") as info:
            perturbation_k_dual(f, Frame(f.vectors + 0.9), c2_example.env, Symbol.ones(3),
                                (1.0, 2.0))
        assert info.value.residual == pytest.approx(0.9 * np.sqrt(3.0), rel=1e-12)


class TestRangeInclusionRecipes:
    @pytest.mark.parametrize("recipe", [range_inclusion_right_inverse,
                                        range_inclusion_left_inverse])
    def test_index_counts_differ(self, recipe):
        _, phi, env = hand_inclusion_instance()
        with pytest.raises(ShapeMismatch, match="^Psi and Phi must share a coefficient space$"):
            recipe(Frame([[1.0, 0.0]]), phi, env)  # one vector against two

    def test_hand_instance(self):
        psi, phi, env = hand_inclusion_instance()
        right = range_inclusion_right_inverse(psi, phi, env)
        assert right.passed and right.identity.residual <= 1e-12
        half = np.array([[0.5, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(right.factors[1].phi.vectors, half, atol=1e-13)
        np.testing.assert_allclose(right.factors[1].psi.vectors, half, atol=1e-13)
        np.testing.assert_allclose(
            right.factors[0].matrix, [[2.0, 0.0], [0.0, 0.0]], atol=1e-13
        )
        left = range_inclusion_left_inverse(psi, phi, env)
        assert left.passed and left.identity.residual <= 1e-12

    def test_left_identity_fails_on_a_skewed_dual(self, monkeypatch):
        # the recipe composes to K K* on R(K*) by the theorem, so only a fault can fail its
        # identity: Phi's canonical K*-dual is read 1e-6 high, and so is the composition
        psi, phi, env = hand_inclusion_instance()
        skew_call(monkeypatch, multipliers, "canonical_k_dual", "range_inclusion_left_inverse",
                  lambda dual: Frame((1 + 1e-6) * dual.vectors))
        left = range_inclusion_left_inverse(psi, phi, env)
        assert left.certificates["inclusion"].ok and not left.identity.ok and not left.passed
        assert left.identity.residual == pytest.approx(1e-6, rel=1e-6)  # |K|^2 = 1

    def test_mismatched_instance(self):
        psi = Frame(np.eye(2))
        phi = Frame([[1.0, 0.0], [1.0, 0.0]])
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        # e2 is in R(T_Psi*) = C^2, not in R(T_Phi* K*) = span (1, 1); likewise on the left,
        # where the threshold is tol |T_Phi| = sqrt(2) 1e-10
        right = re.escape("R(T_Psi*) not contained in R(T_Phi* K*): residual 1.000e+00 > "
                          "threshold 1.000e-10")
        with pytest.raises(RangeNotIncluded, match=f"^{right}$") as caught:
            range_inclusion_right_inverse(psi, phi, env)
        assert caught.value.residual == pytest.approx(1.0, rel=1e-12)
        left = re.escape("R(T_Phi*) not contained in R(T_Psi* K): residual 1.000e+00 > "
                         "threshold 1.414e-10")
        with pytest.raises(RangeNotIncluded, match=f"^{left}$") as caught:
            range_inclusion_left_inverse(psi, phi, env)
        assert caught.value.residual == pytest.approx(1.0, rel=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            psi, phi, env = both_inclusion_instance(rng)
            right, left = range_inclusion_inverses(psi, phi, env)
            assert right.passed and right.identity.residual <= 1e-9
            assert left.passed and left.identity.residual <= 1e-9
