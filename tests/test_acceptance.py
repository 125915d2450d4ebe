"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Property suites are seeded and deterministic.
"""

import time

import numpy as np
from conftest import (
    admissible_perturbation,
    both_inclusion_instance,
    crandn,
    hand_inclusion_instance,
    random_k_frame,
    range_projector,
)
from tests_support_douglas import (
    douglas_predicates,
    douglas_solution,
    inclusion_instance,
    min_eig,
    non_inclusion_instance,
)

from kframekit.duality import (
    canonical_coefficients,
    canonical_k_dual,
    dual_family_generate,
    dual_family_recover_phi,
    minimal_norm_identity,
    noncommutativity_witness,
    verify_k_dual,
)
from kframekit.errors import InadmissiblePerturbation
from kframekit.frames import Frame, k_frame_check, optimal_bessel_bound, validate_bounds
from kframekit.linalg import majorization_constant, spectral_norm
from kframekit.multipliers import (
    Symbol,
    assemble_multiplier,
    perturbation_condition,
    perturbation_k_dual,
    perturbation_right_inverse,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)
from kframekit.worked import minimal_example, projection_example

SQRT2 = np.sqrt(2.0)


def conclude(number: int, description: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_projection_example_bounds():
    failures = []
    ex = projection_example()
    if not validate_bounds(ex.frame, ex.env, 1.0, 2.0).passed:
        failures.append("reference pair (1, 2) did not validate")
    bounds = k_frame_check(ex.frame, ex.env)
    if abs(bounds.lower - 4.0 / 3.0) > 1e-9 * (4.0 / 3.0):
        failures.append(f"optimal lower {bounds.lower!r} != 4/3")
    if abs(bounds.upper - 2.0) > 1e-9 * 2.0:
        failures.append(f"optimal upper {bounds.upper!r} != 2")
    rng = np.random.default_rng(101)
    s_op = ex.frame.frame_operator
    for _ in range(100):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        fvec = np.array([a, b], dtype=complex)
        lhs = float(np.real(np.vdot(fvec, s_op @ fvec)))
        rhs = 1.5 * (a * a + b * b) - a * b
        if abs(lhs - rhs) > 1e-10:
            failures.append(f"quadratic identity off by {abs(lhs - rhs):.3e}")
            break
    conclude(1, "projection example: (1,2) valid, optimal (4/3, 2), quadratic form",
             failures)


def test_criterion_02_projection_example_canonical_dual():
    failures = []
    ex = projection_example()
    dual = canonical_k_dual(ex.frame, ex.env)
    expected = np.array(sorted([-4 / (5 * SQRT2), -4 / (5 * SQRT2), 2 / (5 * SQRT2)]))
    got_first = np.sort(np.real(dual.vectors[:, 0]))
    if float(np.max(np.abs(got_first - expected))) > 1e-12:
        failures.append(f"dual multiset mismatch: {got_first}")
    if float(np.max(np.abs(dual.vectors[:, 1]))) > 1e-12:
        failures.append("dual vectors leave span{e1}")
    if float(np.max(np.abs(np.imag(dual.vectors)))) > 1e-12:
        failures.append("dual vectors acquired imaginary parts")
    gram_k = ex.env.k @ ex.env.k_adjoint
    resid = spectral_norm(dual.frame_operator - 0.72 * gram_k)
    if resid > 1e-12:
        failures.append(f"S_dual != 0.72 K K* (residual {resid:.3e})")
    conclude(2, "projection example: canonical dual entries and 36/50 identity",
             failures)


def test_criterion_03_projection_example_non_recovery():
    failures = []
    ex = projection_example()
    witness = noncommutativity_witness(ex.frame, ex.env)
    image = witness.images_of_frame[2]
    expected_first = 50.0 / (36.0 * SQRT2)
    if abs(image[0] - expected_first) > 1e-12:
        failures.append(f"first component {image[0]!r} != 50/(36 sqrt2)")
    if abs(image[1]) > 1e-12:
        failures.append("second component nonzero")
    if witness.frame_discrepancies[2] <= 0.1:
        failures.append(f"discrepancy {witness.frame_discrepancies[2]:.3e} <= 0.1")
    if witness.recovery.ok:
        failures.append("witness reported recovery")
    conclude(3, "projection example: exchanged construction fails to recover f3",
             failures)


def test_criterion_04_minimal_example_golden():
    failures = []
    ex = minimal_example()
    dual = canonical_k_dual(ex.frame, ex.env)
    e = np.eye(4)
    dev = float(np.max(np.abs(dual.vectors - np.array([e[0], e[0], e[1]]))))
    if dev > 1e-12:
        failures.append(f"canonical dual differs from {{e1,e1,e2}} by {dev:.3e}")
    pairing = complex(np.vdot(dual.vectors[1], ex.frame.vectors[0]))
    if abs(pairing - 1.0) > 1e-12:
        failures.append(f"<f1, dual_2> = {pairing} != 1")
    if not validate_bounds(ex.frame, ex.env, 0.125, 1.0).passed:
        failures.append("reference pair (1/8, 1) did not validate")
    bounds = k_frame_check(ex.frame, ex.env)
    if abs(bounds.lower - 0.5) > 1e-9 * 0.5 or abs(bounds.upper - 1.0) > 1e-9:
        failures.append(f"optimal bounds {bounds} != (1/2, 1)")
    conclude(4, "minimal example: dual {e1,e1,e2}, non-biorthogonality, bounds",
             failures)


def test_criterion_05_factorization_suite():
    failures = []
    start = time.monotonic()
    rng = np.random.default_rng(105)
    for i in range(200):
        l1, l2 = inclusion_instance(rng)
        preds = douglas_predicates(l1, l2)
        if preds != (True, True, True):
            failures.append(f"instance {i}: inclusion class predicates {preds}")
            break
        x = douglas_solution(l1, l2)
        resid = spectral_norm(l2 @ x - l1)
        if resid > 1e-9 * spectral_norm(l1):
            failures.append(f"instance {i}: residual {resid:.3e}")
            break
        lam = majorization_constant(l1, l2)
        if spectral_norm(x) > 0:
            g1 = l1 @ l1.conj().T
            g2 = l2 @ l2.conj().T
            shaved = min_eig((0.99 * lam) ** 2 * g2 - g1)
            if shaved >= -1e-12 * spectral_norm(l1) ** 2:
                failures.append(f"instance {i}: 0.99 lambda kept PSD ({shaved:.3e})")
                break
    rng = np.random.default_rng(106)
    for i in range(200):
        l1, l2 = non_inclusion_instance(rng)
        preds = douglas_predicates(l1, l2)
        if preds != (False, False, False):
            failures.append(f"instance {i}: non-inclusion class predicates {preds}")
            break
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"suite took {elapsed:.1f}s > 60s")
    conclude(5, "factorization equivalence: 200+200 seeded instances, "
                "0.99-lambda optimality", failures)


def test_criterion_06_dual_family_round_trip():
    failures = []
    start = time.monotonic()
    rng = np.random.default_rng(107)
    for i in range(200):
        frame, env = random_k_frame(rng)
        phi = admissible_perturbation(rng, frame, env)
        g = dual_family_generate(frame, env, phi)
        cert = verify_k_dual(frame, g, env, with_lower_bounds=False)
        if not cert.passed:
            failures.append(f"instance {i}: generated dual failed ({cert.residual:.3e})")
            break
        recovered = dual_family_recover_phi(frame, g, env)
        again = dual_family_generate(frame, env, recovered)
        dev = float(np.max(np.abs(again.vectors - g.vectors)))
        if dev > 1e-9:
            failures.append(f"instance {i}: round trip off by {dev:.3e}")
            break
        bad = crandn(rng, frame.size, frame.ambient_dim)
        violation = spectral_norm(range_projector(env) @ frame.synthesis @ bad)
        if violation > 1e-6:
            try:
                dual_family_generate(frame, env, bad)
                failures.append(f"instance {i}: inadmissible phi accepted")
                break
            except InadmissiblePerturbation:
                pass
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"suite took {elapsed:.1f}s > 60s")
    conclude(6, "dual family: 200 seeded generate/verify/recover round trips", failures)


def test_criterion_07_minimal_norm_identity():
    failures = []
    start = time.monotonic()
    rng = np.random.default_rng(109)
    for i in range(200):
        frame, env = random_k_frame(rng)
        target = crandn(rng, frame.ambient_dim)
        dual = canonical_k_dual(frame, env)
        d = dual.analysis @ target
        u, s, vh = np.linalg.svd(frame.synthesis, full_matrices=True)
        rank = int(np.sum(s > s[0] * max(frame.synthesis.shape) * 2.0**-40))
        null = vh[rank:].conj().T
        offset = null @ crandn(rng, null.shape[1]) if null.shape[1] else np.zeros(frame.size)
        report = minimal_norm_identity(frame, env, target, d + offset)
        off = report.pythagoras.residual / report.lhs
        if off > 1e-9:
            failures.append(f"instance {i}: identity off by {off:.3e}")
            break
        coeffs = canonical_coefficients(frame, env, target)
        dev = float(np.max(np.abs(coeffs - d)))
        if dev > 1e-9 * max(1.0, float(np.max(np.abs(d)))):
            failures.append(f"instance {i}: pseudo-inverse coefficients off by {dev:.3e}")
            break
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"suite took {elapsed:.1f}s > 60s")
    conclude(7, "minimal-norm identity and closed-form coefficients: 200 instances",
             failures)


def test_criterion_08_multiplier_norm_bound():
    failures = []
    rng = np.random.default_rng(111)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        count = int(rng.integers(1, 13))
        phi = Frame(crandn(rng, count, n))
        psi = Frame(crandn(rng, count, n))
        m = Symbol(crandn(rng, count))
        mult = assemble_multiplier(m, phi, psi)
        bound = np.sqrt(optimal_bessel_bound(phi) * optimal_bessel_bound(psi))
        if mult.norm() > bound * m.sup_modulus + 1e-10:
            violations += 1
    if violations:
        failures.append(f"{violations} norm-bound violations")
    conclude(8, "multiplier norm bound: 500 seeded instances, zero violations",
             failures)


def test_criterion_09_perturbation_theorem():
    failures = []
    ex = projection_example()
    ones = Symbol.ones(3)
    cond = perturbation_condition(ex.frame, ex.frame, ex.env, ones, 1.0, 2.0)
    if abs(cond.threshold - 1.0 / SQRT2) > 1e-12:
        failures.append(f"threshold {cond.threshold!r} != 1/sqrt2")

    dual = canonical_k_dual(ex.frame, ex.env)
    collapse = perturbation_k_dual(ex.frame, ex.frame, ex.env, ones, (1.0, 2.0))
    dev = float(np.max(np.abs(
        np.sort_complex(collapse.dual.vectors[:, 0]) - np.sort_complex(dual.vectors[:, 0])
    )))
    if not collapse.passed or dev > 1e-10:
        failures.append(f"Psi = Phi did not collapse to the canonical dual ({dev:.3e})")

    rng = np.random.default_rng(113)
    for i in range(50):
        while True:
            bump = crandn(rng, 3, 2)
            base = spectral_norm(
                (Frame(ex.frame.vectors + bump).analysis - ex.frame.analysis)
                @ ex.env.range_basis
            )
            if base > 1e-8:
                break
        scale = float(rng.uniform(0.05, 0.5)) * cond.threshold / base
        psi = Frame(ex.frame.vectors + scale * bump)
        cert = perturbation_k_dual(ex.frame, psi, ex.env, ones, (1.0, 2.0))
        if not cert.passed or cert.residual > 1e-9:
            failures.append(f"instance {i}: dual certificate residual {cert.residual:.3e}")
            break
        fact = perturbation_right_inverse(ex.frame, psi, ex.env, ones, (1.0, 2.0), dual)
        if not fact.passed or fact.identity.residual > 1e-9:
            failures.append(f"instance {i}: right-inverse residual {fact.identity.residual:.3e}")
            break
    conclude(9, "perturbation theorem: tau = 1/sqrt2, 50 instances at rho <= tau/2",
             failures)


def test_criterion_10_range_inclusion_constructions():
    failures = []
    psi, phi, env = hand_inclusion_instance()
    right = range_inclusion_right_inverse(psi, phi, env)
    left = range_inclusion_left_inverse(psi, phi, env)
    if right.identity.residual > 1e-12:
        failures.append(f"hand instance right case residual {right.identity.residual:.3e}")
    if left.identity.residual > 1e-12:
        failures.append(f"hand instance left case residual {left.identity.residual:.3e}")

    rng = np.random.default_rng(115)
    for i in range(50):
        psi_r, phi_r, env_r = both_inclusion_instance(rng)
        right = range_inclusion_right_inverse(psi_r, phi_r, env_r)
        if not right.passed or right.identity.residual > 1e-9:
            failures.append(f"instance {i}: right case residual {right.identity.residual:.3e}")
            break
        left = range_inclusion_left_inverse(psi_r, phi_r, env_r)
        if not left.passed or left.identity.residual > 1e-9:
            failures.append(f"instance {i}: left case residual {left.identity.residual:.3e}")
            break
    conclude(10, "range-inclusion inverses: hand instance exact, 50 seeded instances",
             failures)
