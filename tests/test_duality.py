"""Canonical duals, the dual family, and the associated identities."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import admissible_perturbation, crandn, random_k_frame, skew_call

from kframekit import duality
from kframekit.duality import (
    admissibility_violation,
    canonical_coefficients,
    canonical_dual_bound_certificate,
    canonical_k_dual,
    dual_family_generate,
    dual_family_member,
    dual_family_recover_phi,
    k_dual_lower_bounds,
    minimal_norm_identity,
    noncommutativity_witness,
    reciprocal_dual,
    verify_k_dual,
)
from kframekit.errors import (
    InadmissiblePerturbation,
    InternalConsistencyError,
    InvalidBounds,
    NotADual,
    NotARepresentation,
    RankDeficientRestriction,
    ShapeMismatch,
)
from kframekit.frames import Frame, optimal_bessel_bound
from kframekit.linalg import OperatorEnv, spectral_norm

SQRT2 = np.sqrt(2.0)


class TestCanonicalDual:
    def test_identity_self_dual(self):
        f = Frame(np.eye(2))
        dual = canonical_k_dual(f, OperatorEnv.from_matrix(np.eye(2)))
        np.testing.assert_allclose(dual.vectors, f.vectors, atol=1e-14)

    def test_minimal_example(self, c4_example):
        dual = canonical_k_dual(c4_example.frame, c4_example.env)
        e = np.eye(4)
        np.testing.assert_allclose(dual.vectors, [e[0], e[0], e[1]], atol=1e-13)

    def test_projection_example_order(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        rep, single = -4.0 / (5 * SQRT2), 2.0 / (5 * SQRT2)
        np.testing.assert_allclose(
            dual.vectors, [[rep, 0.0], [rep, 0.0], [single, 0.0]], atol=1e-13
        )

    def test_classical_reduction(self):
        # K = I collapses the construction to the classical canonical dual
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            f = Frame(crandn(rng, int(rng.integers(n, 12)), n))
            dual = canonical_k_dual(f, OperatorEnv.from_matrix(np.eye(n)))
            classical = np.linalg.inv(f.frame_operator) @ f.synthesis
            assert spectral_norm(dual.synthesis - classical) <= 1e-10 * max(
                1.0, spectral_norm(classical)
            )


class TestVerify:
    def test_self_dual_passes(self):
        f = Frame(np.eye(2))
        cert = verify_k_dual(f, f, OperatorEnv.from_matrix(np.eye(2)))
        assert cert.passed and cert.residual <= 1e-14

    def test_minimal_example_pair(self, c4_example):
        e = np.eye(4)
        cert = verify_k_dual(
            c4_example.frame, Frame([e[0], e[0], e[1]]), c4_example.env
        )
        assert cert.passed

    def test_scaled_dual_fails_linearly(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        knorm = c2_example.env.norm()
        for s in (2.0, 0.5, -1.0):
            cert = verify_k_dual(c2_example.frame, Frame(s * dual.vectors), c2_example.env)
            assert not cert.passed
            assert cert.residual == pytest.approx(abs(s - 1.0) * knorm, abs=1e-10)

    def test_linearity_on_random_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            dual = canonical_k_dual(frame, env)
            s = float(rng.uniform(1.1, 3.0))
            cert = verify_k_dual(frame, Frame(s * dual.vectors), env, with_lower_bounds=False)
            assert cert.residual == pytest.approx((s - 1.0) * env.norm(), rel=1e-9)


class TestLowerBounds:
    def test_identity_pair(self):
        f = Frame(np.eye(2))
        cert = verify_k_dual(f, f, OperatorEnv.from_matrix(np.eye(2)))
        assert k_dual_lower_bounds(cert) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_projection_example(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        cert = verify_k_dual(c2_example.frame, dual, c2_example.env)
        lb_dual, lb_projected = k_dual_lower_bounds(cert)
        assert lb_dual == pytest.approx(0.72, rel=1e-12)
        assert lb_projected == pytest.approx(1.5, rel=1e-12)
        assert lb_dual >= 1.0 / 2.0  # 1/B_F
        assert lb_projected >= 1.0 / 0.72 - 1e-9  # 1/B_G

    def test_failed_certificate_rejected(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        cert = verify_k_dual(c2_example.frame, Frame(2.0 * dual.vectors), c2_example.env)
        with pytest.raises(NotADual, match=re.escape(
                "certificate failed (residual 1.000e+00); lower bounds undefined")) as info:
            k_dual_lower_bounds(cert)
        assert info.value.residual == cert.residual == pytest.approx(1.0, rel=1e-12)

    def test_guarantee_fails_on_a_skewed_lower_bound(self, c2_example, monkeypatch):
        # G's lower bound 0.72 is at least 1/B_F = 1/2 by the theorem, so only a fault can
        # fail the guarantee: halve the bound it reads, to 0.36
        f, env = c2_example.frame, c2_example.env
        cert = verify_k_dual(f, canonical_k_dual(f, env), env, with_lower_bounds=False)
        bounds = k_dual_lower_bounds(cert)
        skew_call(monkeypatch, duality, "_lower_bounds", "k_dual_lower_bounds",
                  lambda lower: (lower[0] / 2, lower[1]))
        with pytest.raises(InternalConsistencyError) as info:
            k_dual_lower_bounds(cert)
        guarantees = 1.0 / optimal_bessel_bound(f), 1.0 / optimal_bessel_bound(cert.dual)
        assert str(info.value) == (
            "dual lower bounds fall below the 1/B guarantees: "
            f"({bounds[0] / 2!r}, {bounds[1]!r}) vs ({guarantees[0]!r}, {guarantees[1]!r})")
        assert info.value.residual == pytest.approx(0.5 - 0.36, rel=1e-12)

    def test_domination_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            cert = verify_k_dual(frame, canonical_k_dual(frame, env), env)
            lb_dual, lb_projected = k_dual_lower_bounds(cert)
            assert lb_dual >= 1.0 / optimal_bessel_bound(frame) * (1 - 1e-9)
            assert lb_projected >= 1.0 / optimal_bessel_bound(cert.dual) * (1 - 1e-9)


class TestBoundCertificate:
    def test_identity_envelope(self):
        f = Frame(np.eye(2))
        report = canonical_dual_bound_certificate(f, OperatorEnv.from_matrix(np.eye(2)), 1.0, 1.0)
        assert report.passed
        assert report.envelope == (pytest.approx(1.0), pytest.approx(1.0))
        assert report.observed == (pytest.approx(1.0), pytest.approx(1.0))

    def test_projection_example(self, c2_example):
        report = canonical_dual_bound_certificate(c2_example.frame, c2_example.env, 1.0, 2.0)
        assert report.passed
        assert report.envelope == (pytest.approx(0.5), pytest.approx(2.0))
        assert report.observed[0] == pytest.approx(0.72, rel=1e-12)
        assert report.observed[1] == pytest.approx(0.72, rel=1e-12)

    def test_minimal_example(self, c4_example):
        report = canonical_dual_bound_certificate(
            c4_example.frame, c4_example.env, 0.125, 1.0
        )
        assert report.passed
        assert report.envelope[0] == pytest.approx(1.0)
        assert report.envelope[1] == pytest.approx(128.0, rel=1e-12)  # 64 |K|^2 |Kdag|^4
        assert report.observed[0] == pytest.approx(1.0, rel=1e-12)
        assert report.observed[1] == pytest.approx(2.0, rel=1e-12)

    def test_invalid_bounds_rejected(self, c2_example):
        with pytest.raises(InvalidBounds):
            canonical_dual_bound_certificate(c2_example.frame, c2_example.env, 3.0, 2.0)

    def test_lower_side_fails_on_a_skewed_dual_bound(self, c4_example, monkeypatch):
        # the dual's lower bound is at least 1/B = 1 by the theorem, so only a fault can
        # fail the lower side: halve the bound the certificate reads
        skew_call(monkeypatch, duality, "k_frame_check", "canonical_dual_bound_certificate",
                  lambda bounds: dataclasses.replace(bounds, lower=bounds.lower / 2))
        report = canonical_dual_bound_certificate(c4_example.frame, c4_example.env, 0.125, 1.0)
        assert not report.lower.ok and report.upper.ok and not report.passed
        assert report.lower.residual == pytest.approx(0.5, rel=1e-12)

    def test_upper_side_fails_on_a_skewed_dual_bessel_bound(self, c4_example, monkeypatch):
        # the dual's Bessel bound is at most the envelope's 128 by the theorem, so only a
        # fault can fail the upper side: read the dual's B = 2 as 200
        skew_call(monkeypatch, duality, "optimal_bessel_bound",
                  "canonical_dual_bound_certificate", lambda bound: 100 * bound)
        report = canonical_dual_bound_certificate(c4_example.frame, c4_example.env, 0.125, 1.0)
        assert report.lower.ok and not report.upper.ok and not report.passed
        assert report.upper.residual == pytest.approx(72.0 / 128.0, rel=1e-12)

    def test_envelope_on_random_instances(self):
        from kframekit.frames import k_frame_check

        rng = np.random.default_rng(73)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            bounds = k_frame_check(frame, env)
            report = canonical_dual_bound_certificate(
                frame, env, bounds.lower, bounds.upper
            )
            assert report.passed
            # a deliberately loosened valid pair widens the envelope and still passes
            report2 = canonical_dual_bound_certificate(
                frame, env, bounds.lower * 0.5, bounds.upper * 2.0
            )
            assert report2.passed


class TestDualFamily:
    def test_zero_perturbation(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        generated = dual_family_generate(
            c2_example.frame, c2_example.env, np.zeros((3, 2))
        )
        np.testing.assert_allclose(generated.vectors, dual.vectors, atol=1e-14)

    def test_kernel_direction_member(self, c2_example):
        # phi = w v* with w in the kernel of the projected synthesis map
        w = np.array([1.0, -1.0, 0.0]) / SQRT2
        phi = np.outer(w, np.array([1.0, 0.0]))
        g = dual_family_generate(c2_example.frame, c2_example.env, phi)
        cert = verify_k_dual(c2_example.frame, g, c2_example.env)
        assert cert.passed

    def test_inadmissible_rejected(self, c2_example):
        phi = np.outer([1.0, 1.0, 1.0], [1.0, 0.0])
        with pytest.raises(InadmissiblePerturbation):
            dual_family_generate(c2_example.frame, c2_example.env, phi)

    @pytest.mark.parametrize("share, admitted", [(0.85, True), (1.05, False)])
    def test_gate_uses_the_spectral_norm_of_phi(self, c2_example, share, admitted):
        # phi = s w v* + delta: the violation comes from delta alone and lies
        # just below or just above 1e-10 |T_F| (|phi|_F + |T_Ftilde|_F), the
        # threshold admissibility_violation reports and the generator applies
        f, env = c2_example.frame, c2_example.env
        s = 1e4
        w = np.array([1.0, -1.0, 0.0]) / SQRT2
        delta = np.outer([1.0, 1.0, 1.0], [1.0, 0.0])
        dual_norm = np.linalg.norm(canonical_k_dual(f, env).synthesis)
        target = share * 1e-10 * f.norm() * (s + dual_norm)
        delta *= target / admissibility_violation(f, env, delta).residual
        phi = s * np.outer(w, [1.0, 0.0]) + delta
        check = admissibility_violation(f, env, phi)
        assert check.residual / check.threshold == pytest.approx(share, rel=1e-6)
        assert check.ok == admitted
        if admitted:
            dual_family_generate(f, env, phi)
            return
        with pytest.raises(InadmissiblePerturbation, match=f"has norm {check.residual:.3e}") as exc:
            dual_family_generate(f, env, phi)
        assert exc.value.residual == check.residual

    def test_recover_canonical_gives_zero(self, c4_example):
        dual = canonical_k_dual(c4_example.frame, c4_example.env)
        phi = dual_family_recover_phi(c4_example.frame, dual, c4_example.env)
        assert spectral_norm(phi) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            frame, env = random_k_frame(rng)
            phi = admissible_perturbation(rng, frame, env)
            g = dual_family_generate(frame, env, phi)
            assert verify_k_dual(frame, g, env, with_lower_bounds=False).passed
            recovered = dual_family_recover_phi(frame, g, env)
            assert spectral_norm(recovered - phi) <= 1e-10 * max(1.0, spectral_norm(phi))
            again = dual_family_generate(frame, env, recovered)
            assert float(np.max(np.abs(again.vectors - g.vectors))) <= 1e-9

    def test_recovered_phi_is_a_read_only_array_that_regenerates_g(self, c4_example):
        # R(K) = span{e1 + e2, e3} and T_F phi has rows phi_1, phi_2, phi_3, 0, so phi is
        # admissible iff phi_1 = -phi_2 and phi_3 = 0; the dual {e1, e1, e2} is exact
        f, env = c4_example.frame, c4_example.env
        phi = np.array([[0.5, 0, 0, 1j], [-0.5, 0, 0, -1j], [0, 0, 0, 0]])
        g = dual_family_generate(f, env, phi)
        recovered = dual_family_recover_phi(f, g, env)
        assert recovered.dtype == np.complex128 and recovered.shape == (3, 4)
        assert not recovered.flags.writeable
        assert np.array_equal(recovered, phi)
        assert np.array_equal(dual_family_generate(f, env, recovered).vectors, g.vectors)

    def test_round_trip_fails_on_a_skewed_regeneration(self, c4_example, monkeypatch):
        # a recovered phi regenerates g by construction, so only a fault can fail the round
        # trip: shift every entry of the regenerated dual by 1e-6
        f, env = c4_example.frame, c4_example.env
        g = dual_family_generate(f, env, np.array([[0.5, 0, 0, 1j], [-0.5, 0, 0, -1j],
                                                   [0, 0, 0, 0]]))
        skew_call(monkeypatch, duality, "dual_family_generate", "dual_family_member",
                  lambda dual: Frame(dual.vectors + 1e-6))
        _, admissible, round_trip = dual_family_member(f, g, env)
        assert admissible.ok and not round_trip.ok
        assert round_trip.residual == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("shape", [(2,), (4, 2)], ids=["1-d", "N+1 rows"])
    @pytest.mark.parametrize("call", [admissibility_violation, dual_family_generate])
    def test_wrongly_shaped_phi_raises(self, c2_example, call, shape):
        with pytest.raises(ShapeMismatch, match=re.escape(f"phi must be 3 x 2, got {shape}")):
            call(c2_example.frame, c2_example.env, np.zeros(shape))

    def test_non_dual_rejected(self, c2_example):
        with pytest.raises(NotADual):
            dual_family_recover_phi(
                c2_example.frame, Frame(3.0 * c2_example.frame.vectors), c2_example.env
            )


class TestReciprocalDual:
    def test_identity(self):
        f = Frame(np.eye(2))
        cert = reciprocal_dual(f, OperatorEnv.from_matrix(np.eye(2)))
        assert cert.passed
        np.testing.assert_allclose(cert.frame.vectors, f.vectors, atol=1e-13)
        np.testing.assert_allclose(cert.dual.vectors, f.vectors, atol=1e-13)

    def test_minimal_example_values(self, c4_example):
        cert = reciprocal_dual(c4_example.frame, c4_example.env)
        assert cert.passed
        e = np.eye(4)
        half = (e[0] + e[1]) / 2.0
        np.testing.assert_allclose(cert.frame.vectors, [half, half, e[2]], atol=1e-13)
        np.testing.assert_allclose(cert.dual.vectors, [e[0], e[0], e[1]], atol=1e-13)

    def test_projection_example(self, c2_example):
        cert = reciprocal_dual(c2_example.frame, c2_example.env)
        assert cert.passed and cert.residual <= 1e-10

    def test_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            assert reciprocal_dual(frame, env).passed


class TestWitness:
    def test_identity_recovers(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = Frame(crandn(rng, int(rng.integers(n, 11)), n))
            report = noncommutativity_witness(f, OperatorEnv.from_matrix(np.eye(n)))
            assert report.recovery.ok
            assert float(np.max(report.recovery_discrepancies)) <= report.recovery.threshold

    def test_standard_basis_identity_images(self):
        f = Frame(np.eye(2))
        report = noncommutativity_witness(f, OperatorEnv.from_matrix(np.eye(2)))
        np.testing.assert_allclose(report.images_of_frame, f.vectors, atol=1e-13)

    def test_projection_example_values(self, c2_example):
        report = noncommutativity_witness(c2_example.frame, c2_example.env)
        first = 50.0 / (36.0 * SQRT2)
        np.testing.assert_allclose(report.images_of_frame[2], [first, 0.0], atol=1e-12)
        assert report.frame_discrepancies[2] > 0.1
        assert not report.recovery.ok

    def test_minimal_example_non_recovery(self, c4_example):
        report = noncommutativity_witness(c4_example.frame, c4_example.env)
        assert not report.recovery.ok
        assert float(np.max(report.recovery_discrepancies)) > 0.1

    def test_collapsed_dual_is_rank_deficient(self, c4_example, monkeypatch):
        # the canonical dual spans R(K*), so only a fault can collapse S_Ftilde there: read
        # the dual's factors with one singular vector fewer
        skew_call(monkeypatch, duality, "_factors", "noncommutativity_witness",
                  lambda g: dataclasses.replace(g, left_vectors=g.left_vectors[:, :-1],
                                                right_vectors=g.right_vectors[:, :-1]))
        with pytest.raises(RankDeficientRestriction,
                           match=r"^S_Ftilde collapses R\(K\*\): rank 1 < 2$"):
            noncommutativity_witness(c4_example.frame, c4_example.env)

    def test_dual_factors_match_an_svd_of_g(self):
        # the witness reads the dual's memoized factors; W = K V_k (G G*)^-1 V_k* from
        # a fresh SVD of G = V_k* T_Ftilde (k x N, rank k) must give the same vectors
        rng = np.random.default_rng(67)
        for _ in range(20):
            f, env = random_k_frame(rng)
            report = noncommutativity_witness(f, env)
            basis = env.adjoint().range_basis
            u, s, vh = np.linalg.svd(basis.conj().T @ canonical_k_dual(f, env).synthesis,
                                     full_matrices=False)
            y = u / s
            images = (env.range_factor @ (y @ (y.conj().T @ (basis.conj().T @ f.synthesis)))).T
            double_dual = (env.range_factor @ (y @ vh)).T
            for got, want in ((report.images_of_frame, images),
                              (report.double_dual, double_dual)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestMinimalNorm:
    def test_exact_coefficients(self, c2_example):
        target = np.array([0.3, -1.2])
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ target
        report = minimal_norm_identity(c2_example.frame, c2_example.env, target, d)
        assert report.passed
        assert report.pythagoras.residual <= 1e-12 * max(report.lhs, 1.0)  # |rhs - lhs|

    def test_projection_example_offset(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ np.array([1.0, 0.0])
        coeffs = d + 0.7 * np.array([1.0, -1.0, 0.0])
        report = minimal_norm_identity(
            c2_example.frame, c2_example.env, np.array([1.0, 0.0]), coeffs
        )
        assert report.passed
        assert report.lhs == pytest.approx(0.72 + 2 * 0.7**2, rel=1e-12)

    def test_pythagoras_fails_on_a_skewed_dual(self, c2_example, monkeypatch):
        # d is the least-norm representation by the theorem, so only a fault can fail the
        # split: a dual whose coefficients gain 0.1 (1, -1, 0), in ker T_F, still represents
        # c = d and still meets the dual identity, but |d'|^2 + |c - d'|^2 = |c|^2 + 0.04
        f, env, e1 = c2_example.frame, c2_example.env, np.array([1.0, 0.0])
        d = canonical_k_dual(f, env).analysis @ e1
        skew_call(monkeypatch, duality, "canonical_k_dual", "minimal_norm_identity",
                  lambda dual: Frame(dual.vectors + 0.1 * np.outer([1.0, -1.0, 0.0], e1)))
        report = minimal_norm_identity(f, env, e1, d)
        assert not report.pythagoras.ok and report.dual.ok and not report.passed
        assert report.pythagoras.residual == pytest.approx(0.04, rel=1e-9)

    def test_strict_optimality(self, c2_example):
        # any nonzero kernel offset strictly increases the coefficient norm
        rng = np.random.default_rng(67)
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ np.array([1.0, 0.0])
        base = float(np.sum(np.abs(d) ** 2))
        for _ in range(20):
            t = complex(*rng.normal(size=2))
            if abs(t) < 1e-6:
                continue
            coeffs = d + t * np.array([1.0, -1.0, 0.0]) / SQRT2
            total = float(np.sum(np.abs(coeffs) ** 2))
            assert total == pytest.approx(base + abs(t) ** 2, rel=1e-10)
            assert total > base

    def test_not_a_representation(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ np.array([1.0, 0.0])
        # T_F (1, 1, 0) = f_1 + f_2 = sqrt(2) (-1, 1), of norm 2
        with pytest.raises(NotARepresentation,
                           match=r"^T_F c differs from T_F d by 2\.000e\+00$") as caught:
            minimal_norm_identity(
                c2_example.frame, c2_example.env, np.array([1.0, 0.0]),
                d + np.array([1.0, 1.0, 0.0]),
            )
        assert caught.value.residual == pytest.approx(2.0, rel=1e-12)

    def test_sizes_must_match_the_frame(self, c2_example):
        with pytest.raises(ShapeMismatch,
                           match="^target/coefficient sizes do not match the frame$"):
            minimal_norm_identity(c2_example.frame, c2_example.env, np.array([1.0, 0.0]),
                                  np.ones(2))

    def test_random_kernel_offsets(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            frame, env = random_k_frame(rng)
            target = crandn(rng, frame.ambient_dim)
            dual = canonical_k_dual(frame, env)
            d = dual.analysis @ target
            u, s, vh = np.linalg.svd(frame.synthesis, full_matrices=True)
            rank = int(np.sum(s > s[0] * max(frame.synthesis.shape) * 2.0**-40))
            null = vh[rank:].conj().T
            offset = null @ crandn(rng, null.shape[1]) if null.shape[1] else 0.0
            report = minimal_norm_identity(frame, env, target, d + offset)
            assert report.pythagoras.residual / report.lhs <= 1e-9
            assert report.dual.ok


class TestCanonicalCoefficients:
    def test_target_size_must_match_the_frame(self, c2_example):
        with pytest.raises(ShapeMismatch, match="^target size does not match the frame's "
                           "ambient dimension$"):
            canonical_coefficients(c2_example.frame, c2_example.env, np.ones(3))

    def test_identity(self):
        f = Frame(np.eye(2))
        out = canonical_coefficients(f, OperatorEnv.from_matrix(np.eye(2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-13)

    def test_projection_example(self, c2_example):
        out = canonical_coefficients(c2_example.frame, c2_example.env, np.array([1.0, 0.0]))
        rep, single = -4.0 / (5 * SQRT2), 2.0 / (5 * SQRT2)
        np.testing.assert_allclose(out, [rep, rep, single], atol=1e-12)

    def test_minimal_example(self, c4_example):
        out = canonical_coefficients(
            c4_example.frame, c4_example.env, np.eye(4)[0].astype(complex)
        )
        np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)
