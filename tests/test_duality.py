"""Canonical duals, the dual family, and the associated identities."""

import numpy as np
import pytest
from conftest import admissible_perturbation, crandn, random_k_frame

from kframekit.duality import (
    DualPerturbation,
    admissibility_violation,
    canonical_coefficients,
    canonical_dual_bound_certificate,
    canonical_k_dual,
    dual_family_generate,
    dual_family_recover_phi,
    k_dual_lower_bounds,
    minimal_norm_identity,
    noncommutativity_witness,
    reciprocal_dual,
    verify_k_dual,
)
from kframekit.errors import (
    InadmissiblePerturbation,
    InvalidBounds,
    NotADual,
    NotARepresentation,
)
from kframekit.frames import Frame
from kframekit.linalg import OperatorEnv, spectral_norm

SQRT2 = np.sqrt(2.0)


class TestCanonicalDual:
    def test_identity_self_dual(self):
        f = Frame.standard_basis(2)
        dual = canonical_k_dual(f, OperatorEnv.identity(2))
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
            dual = canonical_k_dual(f, OperatorEnv.identity(n))
            classical = np.linalg.inv(f.frame_operator) @ f.synthesis
            assert spectral_norm(dual.synthesis - classical) <= 1e-10 * max(
                1.0, spectral_norm(classical)
            )


class TestVerify:
    def test_self_dual_passes(self):
        f = Frame.standard_basis(2)
        cert = verify_k_dual(f, f, OperatorEnv.identity(2))
        assert cert.passed and cert.residual <= 1e-14

    def test_minimal_example_pair(self, c4_example):
        e = np.eye(4)
        cert = verify_k_dual(
            c4_example.frame, Frame.from_vectors([e[0], e[0], e[1]]), c4_example.env
        )
        assert cert.passed

    def test_scaled_dual_fails_linearly(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        knorm = c2_example.env.norm()
        for s in (2.0, 0.5, -1.0):
            cert = verify_k_dual(c2_example.frame, dual.scaled(s), c2_example.env)
            assert not cert.passed
            assert cert.residual == pytest.approx(abs(s - 1.0) * knorm, abs=1e-10)

    def test_linearity_on_random_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            dual = canonical_k_dual(frame, env)
            s = float(rng.uniform(1.1, 3.0))
            cert = verify_k_dual(frame, dual.scaled(s), env, with_lower_bounds=False)
            assert cert.residual == pytest.approx((s - 1.0) * env.norm(), rel=1e-9)


class TestLowerBounds:
    def test_identity_pair(self):
        f = Frame.standard_basis(2)
        cert = verify_k_dual(f, f, OperatorEnv.identity(2))
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
        cert = verify_k_dual(c2_example.frame, dual.scaled(2.0), c2_example.env)
        with pytest.raises(NotADual):
            k_dual_lower_bounds(cert)

    def test_domination_on_random_instances(self):
        from kframekit.frames import optimal_bessel_bound

        rng = np.random.default_rng(47)
        for _ in range(10):
            frame, env = random_k_frame(rng)
            cert = verify_k_dual(frame, canonical_k_dual(frame, env), env)
            lb_dual, lb_projected = k_dual_lower_bounds(cert)
            assert lb_dual >= 1.0 / optimal_bessel_bound(frame) * (1 - 1e-9)
            assert lb_projected >= 1.0 / optimal_bessel_bound(cert.dual) * (1 - 1e-9)


class TestBoundCertificate:
    def test_identity_envelope(self):
        f = Frame.standard_basis(2)
        report = canonical_dual_bound_certificate(f, OperatorEnv.identity(2), 1.0, 1.0)
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
            c2_example.frame, c2_example.env, DualPerturbation.zero(3, 2)
        )
        np.testing.assert_allclose(generated.vectors, dual.vectors, atol=1e-14)

    def test_kernel_direction_member(self, c2_example):
        # phi = w v* with w in the kernel of the projected synthesis map
        w = np.array([1.0, -1.0, 0.0]) / SQRT2
        phi = np.outer(w, np.array([1.0, 0.0]))
        g = dual_family_generate(c2_example.frame, c2_example.env, DualPerturbation(phi))
        cert = verify_k_dual(c2_example.frame, g, c2_example.env)
        assert cert.passed

    def test_inadmissible_rejected(self, c2_example):
        phi = np.outer([1.0, 1.0, 1.0], [1.0, 0.0])
        with pytest.raises(InadmissiblePerturbation):
            dual_family_generate(c2_example.frame, c2_example.env, DualPerturbation(phi))

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
        delta *= target / admissibility_violation(f, env, DualPerturbation(delta)).residual
        pert = DualPerturbation(s * np.outer(w, [1.0, 0.0]) + delta)
        check = admissibility_violation(f, env, pert)
        assert check.residual / check.threshold == pytest.approx(share, rel=1e-6)
        assert check.ok == admitted
        if admitted:
            dual_family_generate(f, env, pert)
            return
        with pytest.raises(InadmissiblePerturbation, match=f"has norm {check.residual:.3e}") as exc:
            dual_family_generate(f, env, pert)
        assert exc.value.residual == check.residual

    def test_recover_canonical_gives_zero(self, c4_example):
        dual = canonical_k_dual(c4_example.frame, c4_example.env)
        pert = dual_family_recover_phi(c4_example.frame, dual, c4_example.env)
        assert spectral_norm(pert.phi) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            frame, env = random_k_frame(rng)
            pert = admissible_perturbation(rng, frame, env)
            g = dual_family_generate(frame, env, pert)
            assert verify_k_dual(frame, g, env, with_lower_bounds=False).passed
            recovered = dual_family_recover_phi(frame, g, env)
            assert spectral_norm(recovered.phi - pert.phi) <= 1e-10 * max(
                1.0, spectral_norm(pert.phi)
            )
            again = dual_family_generate(frame, env, recovered)
            assert float(np.max(np.abs(again.vectors - g.vectors))) <= 1e-9

    def test_non_dual_rejected(self, c2_example):
        with pytest.raises(NotADual):
            dual_family_recover_phi(
                c2_example.frame, c2_example.frame.scaled(3.0), c2_example.env
            )


class TestReciprocalDual:
    def test_identity(self):
        f = Frame.standard_basis(2)
        cert = reciprocal_dual(f, OperatorEnv.identity(2))
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
            report = noncommutativity_witness(f, OperatorEnv.identity(n))
            assert report.recovered
            assert float(np.max(report.recovery_discrepancies)) <= report.threshold

    def test_standard_basis_identity_images(self):
        f = Frame.standard_basis(2)
        report = noncommutativity_witness(f, OperatorEnv.identity(2))
        np.testing.assert_allclose(report.images_of_frame, f.vectors, atol=1e-13)

    def test_projection_example_values(self, c2_example):
        report = noncommutativity_witness(c2_example.frame, c2_example.env)
        first = 50.0 / (36.0 * SQRT2)
        np.testing.assert_allclose(report.images_of_frame[2], [first, 0.0], atol=1e-12)
        assert report.frame_discrepancies[2] > 0.1
        assert not report.recovered

    def test_minimal_example_non_recovery(self, c4_example):
        report = noncommutativity_witness(c4_example.frame, c4_example.env)
        assert not report.recovered
        assert float(np.max(report.recovery_discrepancies)) > 0.1


class TestMinimalNorm:
    def test_exact_coefficients(self, c2_example):
        target = np.array([0.3, -1.2])
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ target
        report = minimal_norm_identity(c2_example.frame, c2_example.env, target, d)
        assert report.passed
        assert report.rhs == pytest.approx(report.lhs, rel=1e-12)

    def test_projection_example_offset(self, c2_example):
        dual = canonical_k_dual(c2_example.frame, c2_example.env)
        d = dual.analysis @ np.array([1.0, 0.0])
        coeffs = d + 0.7 * np.array([1.0, -1.0, 0.0])
        report = minimal_norm_identity(
            c2_example.frame, c2_example.env, np.array([1.0, 0.0]), coeffs
        )
        assert report.passed
        assert report.lhs == pytest.approx(0.72 + 2 * 0.7**2, rel=1e-12)

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
        with pytest.raises(NotARepresentation):
            minimal_norm_identity(
                c2_example.frame, c2_example.env, np.array([1.0, 0.0]),
                d + np.array([1.0, 1.0, 0.0]),
            )

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
            assert report.relative_error <= 1e-9
            assert report.matrix_ok


class TestCanonicalCoefficients:
    def test_identity(self):
        f = Frame.standard_basis(2)
        out = canonical_coefficients(f, OperatorEnv.identity(2), np.array([1.0, 0.0]))
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
