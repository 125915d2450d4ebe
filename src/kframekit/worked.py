"""Built-in worked instances and the golden reproduction suite.

Two hand-checkable instances are embedded:

* ``projection_example`` (C^2): three unit vectors against the orthogonal
  projection onto span{e1}. Valid bounds (1, 2), optimal bounds (4/3, 2),
  canonical dual entries -4/(5 sqrt2), -4/(5 sqrt2), 2/(5 sqrt2), dual frame
  operator 0.72 K K*, and a non-recovery witness with first component
  50/(36 sqrt2) at the third vector.

* ``minimal_example`` (C^4): the minimal K-frame {e1, e2, e3} against
  K(c1,c2,c3,c4) = c1 e1 + c1 e2 + c2 e3, whose canonical dual {e1, e1, e2}
  is not biorthogonal to it. Valid bounds (1/8, 1), optimal bounds (1/2, 1).

``reproduce_examples`` replays every golden identity and returns a check
list; the CLI's ``examples`` command renders it. All irrational constants
are FLOAT64 evaluations of closed forms, with symbolic tags kept for
display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import (
    canonical_coefficients,
    canonical_k_dual,
    k_dual_lower_bounds,
    minimal_norm_identity,
    noncommutativity_witness,
    reciprocal_dual,
    verify_k_dual,
)
from .errors import GoldenMismatch
from .frames import (
    Frame,
    bessel_as_k_frame,
    biorthogonal_sequence,
    k_frame_check,
    minimality_check,
    tightness_check,
    validate_bounds,
)
from .linalg import DEFAULT_POLICY, OperatorEnv, majorization_constant, spectral_norm
from .multipliers import (
    Symbol,
    perturbation_condition,
    perturbation_k_dual,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)

__all__ = [
    "WorkedExample",
    "GoldenCheck",
    "GoldenRun",
    "projection_example",
    "minimal_example",
    "hand_inclusion_instance",
    "reproduce_examples",
    "GOLDEN_SEED",
]

SQRT2 = math.sqrt(2.0)

#: seed for the sampled quadratic-form verification (fixed and documented)
GOLDEN_SEED = 7

#: canonical-dual entry values with display-only symbolic tags
GOLDEN_CONSTANTS = {
    "dual_entry_repeated": (-4.0 / (5.0 * SQRT2), "-4/(5*sqrt2)"),
    "dual_entry_single": (2.0 / (5.0 * SQRT2), "2/(5*sqrt2)"),
    "dual_tight_ratio": (36.0 / 50.0, "36/50"),
    "witness_first_component": (50.0 / (36.0 * SQRT2), "50/(36*sqrt2)"),
    "majorization_lambda": (math.sqrt(3.0) / 2.0, "sqrt3/2"),
    "perturbation_threshold": (1.0 / SQRT2, "1/sqrt2"),
}


@dataclass(frozen=True)
class WorkedExample:
    name: str
    frame: Frame
    env: OperatorEnv
    reference_bounds: tuple[float, float]  # hand-derived valid (not optimal) pair
    optimal_bounds: tuple[float, float]


def projection_example(
    vectors=None, operator=None
) -> WorkedExample:
    """Three vectors in C^2 against the projection onto span{e1}."""
    if vectors is None:
        s = 1.0 / SQRT2
        vectors = [[-s, s], [-s, s], [s, s]]
    if operator is None:
        operator = [[1.0, 0.0], [0.0, 0.0]]
    return WorkedExample(
        "c2-projection",
        Frame.from_vectors(vectors),
        OperatorEnv.from_matrix(operator),
        (1.0, 2.0),
        (4.0 / 3.0, 2.0),
    )


def minimal_example(vectors=None, operator=None) -> WorkedExample:
    """The minimal K-frame {e1, e2, e3} in C^4."""
    if vectors is None:
        vectors = np.eye(4)[:3]
    if operator is None:
        operator = np.zeros((4, 4))
        operator[0, 0] = 1.0
        operator[1, 0] = 1.0
        operator[2, 1] = 1.0
    return WorkedExample(
        "c4-minimal",
        Frame.from_vectors(vectors),
        OperatorEnv.from_matrix(operator),
        (1.0 / 8.0, 1.0),
        (0.5, 1.0),
    )


def hand_inclusion_instance() -> tuple[Frame, Frame, OperatorEnv]:
    """C^2 instance (K = diag(1,0), Psi = Phi = {e1, e1}) for the
    range-inclusion inverse constructions; both compositions equal K / K K*
    exactly."""
    psi = Frame.from_vectors([[1.0, 0.0], [1.0, 0.0]])
    env = OperatorEnv.from_matrix([[1.0, 0.0], [0.0, 0.0]])
    return psi, psi, env


@dataclass(frozen=True)
class GoldenCheck:
    """One golden assertion: residual against threshold, plus display values."""

    name: str
    residual: float
    threshold: float
    passed: bool
    observed: float | None = None
    expected: float | None = None
    symbolic: str = ""


@dataclass(frozen=True)
class GoldenRun:
    checks: tuple[GoldenCheck, ...]
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [
            f"{c.name}: residual {c.residual:.3e} > threshold {c.threshold:.3e}"
            for c in self.checks
            if not c.passed
        ]


def _cap(pinned: float, tol: float | None) -> float:
    return pinned if tol is None else min(pinned, tol)


def _entrywise(frame: Frame, expected_rows) -> float:
    return float(np.max(np.abs(frame.vectors - np.asarray(expected_rows, dtype=complex))))


def reproduce_examples(
    tol: float | None = None,
    fixtures: dict | None = None,
    strict: bool = False,
    policy=DEFAULT_POLICY,
) -> GoldenRun:
    """Replay every golden identity of the built-in worked instances.

    ``tol`` can only tighten the pinned thresholds. ``fixtures`` may override
    the instance data (keys ``c2_vectors``, ``c2_operator``, ``c4_vectors``,
    ``c4_operator``), which is how corruption is detected. With ``strict``
    every failure is raised as GoldenMismatch.
    """
    from .errors import KFrameError

    fixtures = fixtures or {}
    checks: list[GoldenCheck] = []

    def add(name, residual, pinned, observed=None, expected=None, symbolic="",
            exceed=False):
        threshold = _cap(pinned, tol)
        ok = (residual > threshold) if exceed else (residual <= threshold)
        checks.append(
            GoldenCheck(name, float(residual), float(threshold), bool(ok),
                        observed, expected, symbolic)
        )

    def section(name):
        # domain errors inside a section become one failed check, so corrupted
        # fixtures are reported instead of aborting the suite
        def wrap(fn):
            try:
                fn()
            except KFrameError as exc:
                checks.append(GoldenCheck(
                    f"{name} [{exc.code}]", float("inf"), 0.0, False, symbolic=str(exc)
                ))
        return wrap

    ex2 = projection_example(fixtures.get("c2_vectors"), fixtures.get("c2_operator"))
    ex4 = minimal_example(fixtures.get("c4_vectors"), fixtures.get("c4_operator"))
    f2, env2 = ex2.frame, ex2.env
    f4, env4 = ex4.frame, ex4.env
    eye4 = np.eye(4)

    @section("c2.bounds")
    def _():
        val = validate_bounds(f2, env2, *ex2.reference_bounds, policy)
        add(
            "c2.reference-bounds-valid",
            max(0.0, -min(val.lower_slack, 0.0)) + max(0.0, -min(val.upper_slack, 0.0)),
            val.threshold,
        )
        bounds = k_frame_check(f2, env2, policy)
        add("c2.optimal-lower", abs(bounds.lower - ex2.optimal_bounds[0]),
            1e-9 * ex2.optimal_bounds[0], bounds.lower, ex2.optimal_bounds[0], "4/3")
        add("c2.optimal-upper", abs(bounds.upper - ex2.optimal_bounds[1]),
            1e-9 * ex2.optimal_bounds[1], bounds.upper, ex2.optimal_bounds[1], "2")

        lam, lam_sym = GOLDEN_CONSTANTS["majorization_lambda"]
        observed = majorization_constant(env2.k, f2.synthesis, policy)
        add("c2.majorization-lambda", abs(observed - lam), 1e-12, observed, lam, lam_sym)

        rng = np.random.default_rng(GOLDEN_SEED)
        s_op = f2.frame_operator
        worst = 0.0
        for _ in range(100):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            fvec = np.array([a, b], dtype=complex)
            lhs = float(np.real(np.vdot(fvec, s_op @ fvec)))
            rhs = 1.5 * (a * a + b * b) - a * b
            worst = max(worst, abs(lhs - rhs))
        add("c2.quadratic-form", worst, 1e-10, symbolic="3/2(a^2+b^2) - ab")

    rep, rep_sym = GOLDEN_CONSTANTS["dual_entry_repeated"]
    single, single_sym = GOLDEN_CONSTANTS["dual_entry_single"]

    @section("c2.dual")
    def _():
        dual2 = canonical_k_dual(f2, env2, policy)
        formula_order = [[rep, 0.0], [rep, 0.0], [single, 0.0]]
        add("c2.canonical-dual-order", _entrywise(dual2, formula_order), 1e-12,
            symbolic=f"{rep_sym}, {rep_sym}, {single_sym}")
        display_multiset = sorted([rep, single, rep])
        computed_multiset = sorted(np.real(dual2.vectors[:, 0]).tolist())
        add(
            "c2.canonical-dual-multiset",
            float(np.max(np.abs(np.array(computed_multiset) - np.array(display_multiset)))),
            1e-12,
            symbolic=f"{{{rep_sym}, {single_sym}, {rep_sym}}}",
        )

        ratio, ratio_sym = GOLDEN_CONSTANTS["dual_tight_ratio"]
        gram_k = env2.k @ env2.k_adjoint
        add(
            "c2.dual-frame-operator",
            spectral_norm(dual2.frame_operator - ratio * gram_k),
            1e-12,
            expected=ratio,
            symbolic=f"S = {ratio_sym} K K*",
        )

        cert2 = verify_k_dual(f2, dual2, env2, policy)
        add("c2.dual-certificate", cert2.residual, cert2.threshold)
        lb_dual, lb_proj = k_dual_lower_bounds(cert2, policy)
        add("c2.dual-lower-bound-g", abs(lb_dual - ratio), 1e-9, lb_dual, ratio, ratio_sym)
        add("c2.dual-lower-bound-projected", abs(lb_proj - 1.5), 1e-9, lb_proj, 1.5, "3/2")

        witness = noncommutativity_witness(f2, env2, policy)
        wfirst, wfirst_sym = GOLDEN_CONSTANTS["witness_first_component"]
        image3 = witness.images_of_frame[2]
        add(
            "c2.witness-value",
            float(np.max(np.abs(image3 - np.array([wfirst, 0.0])))),
            1e-12,
            observed=float(np.real(image3[0])),
            expected=wfirst,
            symbolic=wfirst_sym,
        )
        add("c2.witness-discrepancy", float(witness.frame_discrepancies[2]), 0.1,
            exceed=True)

    @section("c2.perturbation")
    def _():
        dual2 = canonical_k_dual(f2, env2, policy)
        tau, tau_sym = GOLDEN_CONSTANTS["perturbation_threshold"]
        ones3 = Symbol.ones(3)
        cond = perturbation_condition(f2, f2, env2, ones3, 1.0, 2.0, policy)
        add("c2.perturbation-threshold", abs(cond.tau - tau), 1e-12, cond.tau, tau, tau_sym)

        collapse = perturbation_k_dual(f2, f2, env2, ones3, (1.0, 2.0), policy)
        collapse_dev = float(
            np.max(np.abs(np.sort_complex(collapse.dual.vectors[:, 0])
                          - np.sort_complex(dual2.vectors[:, 0])))
        )
        add("c2.perturbation-collapse", max(collapse.residual, collapse_dev), 1e-10)

    @section("c2.coefficients")
    def _():
        dual2 = canonical_k_dual(f2, env2, policy)
        e1 = np.array([1.0, 0.0], dtype=complex)
        coeffs = canonical_coefficients(f2, env2, e1, policy)
        add(
            "c2.canonical-coefficients",
            float(np.max(np.abs(coeffs - np.array([rep, rep, single])))),
            1e-10,
            symbolic=f"({rep_sym}, {rep_sym}, {single_sym})",
        )
        d = dual2.analysis @ e1
        offset = d + 0.7 * np.array([1.0, -1.0, 0.0])
        report = minimal_norm_identity(f2, env2, e1, offset, policy)
        add("c2.minimal-norm-pythagoras",
            max(abs(report.lhs - 1.7), report.relative_error, report.matrix_residual),
            1e-10, report.lhs, 1.7, "0.72 + 2 (0.7)^2")

    @section("c4.dual")
    def _():
        dual4 = canonical_k_dual(f4, env4, policy)
        add("c4.canonical-dual-entries",
            _entrywise(dual4, [eye4[0], eye4[0], eye4[1]]), 1e-12, symbolic="{e1, e1, e2}")
        pairing = complex(np.vdot(dual4.vectors[1], f4.vectors[0]))
        add("c4.non-biorthogonality", abs(pairing - 1.0), 1e-12,
            float(np.real(pairing)), 1.0)
        tight4 = tightness_check(dual4, env4.adjoint(), policy)
        add("c4.dual-parseval-adjoint",
            tight4.residual + (0.0 if tight4.parseval else 1.0), tight4.threshold)

    @section("c4.bounds")
    def _():
        val4 = validate_bounds(f4, env4, *ex4.reference_bounds, policy)
        add(
            "c4.reference-bounds-valid",
            max(0.0, -min(val4.lower_slack, 0.0)) + max(0.0, -min(val4.upper_slack, 0.0)),
            val4.threshold,
        )
        bounds4 = k_frame_check(f4, env4, policy)
        add("c4.optimal-lower", abs(bounds4.lower - 0.5), 1e-9 * 0.5,
            bounds4.lower, 0.5, "1/2")
        add("c4.optimal-upper", abs(bounds4.upper - 1.0), 1e-9, bounds4.upper, 1.0, "1")

    @section("c4.structure")
    def _():
        minimal_ok = minimality_check(f4)
        bio = biorthogonal_sequence(f4)
        add("c4.biorthogonal-self",
            (0.0 if minimal_ok else 1.0) + _entrywise(bio, f4.vectors), 1e-12)

        recip = reciprocal_dual(f4, env4, policy)
        half = (eye4[0] + eye4[1]) / 2.0
        add(
            "c4.reciprocal-dual",
            max(
                recip.residual,
                _entrywise(recip.frame, [half, half, eye4[2]]),
                _entrywise(recip.dual, [eye4[0], eye4[0], eye4[1]]),
            ),
            1e-10,
            symbolic="D = {(e1+e2)/2, (e1+e2)/2, e3}; H = {e1, e1, e2}",
        )

        env_b = bessel_as_k_frame(f4)
        tight_b = tightness_check(f4, env_b, policy)
        add("c4.bessel-embedding-parseval",
            tight_b.residual + (0.0 if tight_b.parseval else 1.0), tight_b.threshold)

    @section("c2h.range-inclusion")
    def _():
        psi_h, phi_h, env_h = hand_inclusion_instance()
        right_h = range_inclusion_right_inverse(psi_h, phi_h, env_h, policy)
        half_e1 = [[0.5, 0.0], [0.5, 0.0]]
        add(
            "c2h.range-inclusion-right",
            max(
                right_h.residual,
                _entrywise(right_h.factors[1].phi, half_e1),
                _entrywise(right_h.factors[1].psi, half_e1),
            ),
            1e-12,
            symbolic="M_{1,P_K Psi,Phi} M_{1,Phi+,Psi~} = K",
        )
        left_h = range_inclusion_left_inverse(psi_h, phi_h, env_h, policy)
        add("c2h.range-inclusion-left", left_h.residual, 1e-12,
            symbolic="M_{1,Phi~,Psi+} M_{1,Psi,Phi} K* = K K*")

    run = GoldenRun(tuple(checks), GOLDEN_SEED)
    if strict and not run.passed:
        raise GoldenMismatch(
            f"{len(run.failures())} golden assertion(s) failed", run.failures()
        )
    return run
