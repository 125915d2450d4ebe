"""Built-in worked instances and the golden reproduction suite.

Two hand-checkable instances are embedded:

* ``projection_example`` (C^2): three unit vectors against the orthogonal
  projection onto span{e1}. Frame operator [[3/2, -1/2], [-1/2, 3/2]], valid
  bounds (1, 2), optimal bounds (4/3, 2), canonical dual entries -4/(5 sqrt2),
  -4/(5 sqrt2), 2/(5 sqrt2), dual frame operator 0.72 K K*, and a non-recovery
  witness with first component 50/(36 sqrt2) at the third vector.

* ``minimal_example`` (C^4): the minimal K-frame {e1, e2, e3} against
  K(c1,c2,c3,c4) = c1 e1 + c1 e2 + c2 e3, whose canonical dual {e1, e1, e2}
  is not biorthogonal to it. Valid bounds (1/8, 1), optimal bounds (1/2, 1).

``reproduce_examples`` replays every golden identity and returns one named
verdict per identity; the CLI's ``examples`` command renders them. Each
identity is compared with its closed form, none at sampled points, and all
irrational constants are FLOAT64 evaluations of the closed forms above.
With one env per distinct K, and K = K* and Psi = Phi read through the memo, each operand
is factored once but four: ``c2.majorization-lambda`` factors T_F and |K| anew on raw
matrices on purpose, ``c2.perturbation-collapse`` checks a dual built apart from the
canonical one, and the left range-inclusion test is the right one's as Psi = Phi, K = K*.
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
from .errors import KFrameError
from .frames import (
    Frame,
    bessel_as_k_frame,
    biorthogonal_sequence,
    k_frame_check,
    minimality_check,
    tightness_check,
    validate_bounds,
)
from .linalg import IDENTITY_TOL, CheckResult, OperatorEnv, majorization_constant, spectral_norm
from .multipliers import (
    Symbol,
    perturbation_condition,
    perturbation_k_dual,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)

__all__ = [
    "WorkedExample",
    "projection_example",
    "minimal_example",
    "reproduce_examples",
]

SQRT2 = math.sqrt(2.0)

#: FLOAT64 values of the closed forms the suite compares against
GOLDEN_CONSTANTS = {
    "dual_entry_repeated": -4.0 / (5.0 * SQRT2),
    "dual_entry_single": 2.0 / (5.0 * SQRT2),
    "dual_tight_ratio": 36.0 / 50.0,
    "witness_first_component": 50.0 / (36.0 * SQRT2),
    "majorization_lambda": math.sqrt(3.0) / 2.0,
    "perturbation_threshold": 1.0 / SQRT2,
}


@dataclass(frozen=True)
class WorkedExample:
    frame: Frame
    env: OperatorEnv
    reference_bounds: tuple[float, float]  # hand-derived valid (not optimal) pair
    optimal_bounds: tuple[float, float]


def projection_example() -> WorkedExample:
    """Three vectors in C^2 against the projection onto span{e1}."""
    s = 1.0 / SQRT2
    return WorkedExample(
        Frame([[-s, s], [-s, s], [s, s]]),
        OperatorEnv.from_matrix([[1.0, 0.0], [0.0, 0.0]]),
        (1.0, 2.0),
        (4.0 / 3.0, 2.0),
    )


def minimal_example() -> WorkedExample:
    """The minimal K-frame {e1, e2, e3} in C^4."""
    return WorkedExample(
        Frame(np.eye(4)[:3]),
        OperatorEnv.from_matrix([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 0]]),
        (1.0 / 8.0, 1.0),
        (0.5, 1.0),
    )


def _entrywise(frame: Frame, expected_rows) -> float:
    return float(np.max(np.abs(frame.vectors - np.asarray(expected_rows, dtype=complex))))


def reproduce_examples(tol: float | None = None) -> dict[str, CheckResult]:
    """Replay every golden identity of the built-in worked instances: name -> verdict, in order.

    ``tol`` can only tighten the pinned thresholds (None leaves them as
    pinned), and it is the tolerance of every check the library makes along
    the way (``IDENTITY_TOL`` when None). A ``KFrameError`` ends its section
    with one failed check ``"{section} [{code}]"`` of residual inf.
    """
    identity_tol = IDENTITY_TOL if tol is None else tol
    checks: dict[str, CheckResult] = {}

    def add(name, residual, pinned, exceed=False):
        threshold = pinned if tol is None else min(pinned, tol)
        ok = (residual > threshold) if exceed else (residual <= threshold)
        checks[name] = CheckResult(bool(ok), float(residual), float(threshold))

    ex2, ex4 = projection_example(), minimal_example()
    f2, env2 = ex2.frame, ex2.env
    f4, env4 = ex4.frame, ex4.env
    eye4 = np.eye(4)
    rep = GOLDEN_CONSTANTS["dual_entry_repeated"]
    single = GOLDEN_CONSTANTS["dual_entry_single"]

    def c2_bounds():
        val = validate_bounds(f2, env2, *ex2.reference_bounds, identity_tol)
        add("c2.reference-bounds-valid",
            max(0.0, val.lower.residual) + max(0.0, val.upper.residual), val.lower.threshold)
        bounds = k_frame_check(f2, env2, identity_tol)
        add("c2.optimal-lower", abs(bounds.lower - ex2.optimal_bounds[0]),
            1e-9 * ex2.optimal_bounds[0])
        add("c2.optimal-upper", abs(bounds.upper - ex2.optimal_bounds[1]),
            1e-9 * ex2.optimal_bounds[1])
        lam = majorization_constant(env2.k, f2.synthesis, identity_tol)
        add("c2.majorization-lambda", abs(lam - GOLDEN_CONSTANTS["majorization_lambda"]), 1e-12)

        # <S f, f> = 3/2 (a^2 + b^2) - ab for real f = (a, b): S = [[3/2, -1/2], [-1/2, 3/2]]
        s_form = np.array([[1.5, -0.5], [-0.5, 1.5]])
        add("c2.quadratic-form", float(np.max(np.abs(f2.frame_operator - s_form))), 1e-10)

    def c2_dual():
        dual2 = canonical_k_dual(f2, env2, identity_tol)
        add("c2.canonical-dual-order",
            _entrywise(dual2, [[rep, 0.0], [rep, 0.0], [single, 0.0]]), 1e-12)
        multiset = np.array(sorted(np.real(dual2.vectors[:, 0]).tolist()))
        add("c2.canonical-dual-multiset",
            float(np.max(np.abs(multiset - np.array(sorted([rep, single, rep]))))), 1e-12)
        ratio = GOLDEN_CONSTANTS["dual_tight_ratio"]  # S = 36/50 K K*
        add("c2.dual-frame-operator",
            spectral_norm(dual2.frame_operator - ratio * (env2.k @ env2.k_adjoint)), 1e-12)

        cert2 = verify_k_dual(f2, dual2, env2, identity_tol)
        add("c2.dual-certificate", cert2.identity.residual, cert2.identity.threshold)
        lb_dual, lb_proj = k_dual_lower_bounds(cert2, identity_tol)
        add("c2.dual-lower-bound-g", abs(lb_dual - ratio), 1e-9)
        add("c2.dual-lower-bound-projected", abs(lb_proj - 1.5), 1e-9)

        witness = noncommutativity_witness(f2, env2, identity_tol)
        wfirst = GOLDEN_CONSTANTS["witness_first_component"]
        image3 = witness.images_of_frame[2]
        add("c2.witness-value", float(np.max(np.abs(image3 - np.array([wfirst, 0.0])))), 1e-12)
        add("c2.witness-discrepancy", float(witness.frame_discrepancies[2]), 0.1,
            exceed=True)

    def c2_perturbation():
        dual2 = canonical_k_dual(f2, env2, identity_tol)
        ones3 = Symbol.ones(3)
        cond = perturbation_condition(f2, f2, env2, ones3, 1.0, 2.0, identity_tol)
        add("c2.perturbation-threshold",
            abs(cond.threshold - GOLDEN_CONSTANTS["perturbation_threshold"]), 1e-12)

        collapse = perturbation_k_dual(f2, f2, env2, ones3, (1.0, 2.0), identity_tol)
        collapse_dev = float(np.max(np.abs(np.sort_complex(collapse.dual.vectors[:, 0])
                                           - np.sort_complex(dual2.vectors[:, 0]))))
        add("c2.perturbation-collapse", max(collapse.identity.residual, collapse_dev), 1e-10)

    def c2_coefficients():
        dual2 = canonical_k_dual(f2, env2, identity_tol)
        e1 = np.array([1.0, 0.0], dtype=complex)
        coeffs = canonical_coefficients(f2, env2, e1, identity_tol)
        add("c2.canonical-coefficients",
            float(np.max(np.abs(coeffs - np.array([rep, rep, single])))), 1e-10)
        offset = dual2.analysis @ e1 + 0.7 * np.array([1.0, -1.0, 0.0])
        report = minimal_norm_identity(f2, env2, e1, offset, identity_tol)
        add("c2.minimal-norm-pythagoras",  # ||c||^2 = 0.72 + 2 (0.7)^2
            max(abs(report.lhs - 1.7), report.pythagoras.residual / report.lhs,
                report.dual.residual), 1e-10)

    def c4_dual():
        dual4 = canonical_k_dual(f4, env4, identity_tol)
        add("c4.canonical-dual-entries",
            _entrywise(dual4, [eye4[0], eye4[0], eye4[1]]), 1e-12)
        pairing = complex(np.vdot(dual4.vectors[1], f4.vectors[0]))
        add("c4.non-biorthogonality", abs(pairing - 1.0), 1e-12)
        tight4 = tightness_check(dual4, env4.adjoint(), identity_tol)
        add("c4.dual-parseval-adjoint", tight4.identity.residual + (0.0 if tight4.passed else 1.0),
            tight4.identity.threshold)

    def c4_bounds():
        val4 = validate_bounds(f4, env4, *ex4.reference_bounds, identity_tol)
        add("c4.reference-bounds-valid",
            max(0.0, val4.lower.residual) + max(0.0, val4.upper.residual), val4.lower.threshold)
        bounds4 = k_frame_check(f4, env4, identity_tol)
        add("c4.optimal-lower", abs(bounds4.lower - ex4.optimal_bounds[0]),
            1e-9 * ex4.optimal_bounds[0])
        add("c4.optimal-upper", abs(bounds4.upper - ex4.optimal_bounds[1]),
            1e-9 * ex4.optimal_bounds[1])

    def c4_structure():
        add("c4.biorthogonal-self", (0.0 if minimality_check(f4) else 1.0)
            + _entrywise(biorthogonal_sequence(f4), f4.vectors), 1e-12)

        # D = {(e1+e2)/2, (e1+e2)/2, e3}, H = {e1, e1, e2}
        recip = reciprocal_dual(f4, env4, identity_tol)
        half = (eye4[0] + eye4[1]) / 2.0
        add("c4.reciprocal-dual", max(recip.identity.residual,
                                      _entrywise(recip.frame, [half, half, eye4[2]]),
                                      _entrywise(recip.dual, [eye4[0], eye4[0], eye4[1]])), 1e-10)

        tight_b = tightness_check(f4, bessel_as_k_frame(f4), identity_tol)
        add("c4.bessel-embedding-parseval", tight_b.identity.residual
            + (0.0 if tight_b.passed else 1.0), tight_b.identity.threshold)

    def c2h_range_inclusion():
        psi_h = phi_h = Frame([[1.0, 0.0], [1.0, 0.0]])  # {e1, e1} on env2
        # M_{1,P_K Psi,Phi} M_{1,Phi+,Psi~} = K, with both factor frames {e1/2, e1/2}
        right_h = range_inclusion_right_inverse(psi_h, phi_h, env2, identity_tol)
        half_e1 = [[0.5, 0.0], [0.5, 0.0]]
        add("c2h.range-inclusion-right", max(right_h.identity.residual,
                                             _entrywise(right_h.factors[1].phi, half_e1),
                                             _entrywise(right_h.factors[1].psi, half_e1)), 1e-12)
        # M_{1,Phi~,Psi+} M_{1,Psi,Phi} K* = K K*
        left_h = range_inclusion_left_inverse(psi_h, phi_h, env2, identity_tol)
        add("c2h.range-inclusion-left", left_h.identity.residual, 1e-12)

    for section, replay in (
        ("c2.bounds", c2_bounds),
        ("c2.dual", c2_dual),
        ("c2.perturbation", c2_perturbation),
        ("c2.coefficients", c2_coefficients),
        ("c4.dual", c4_dual),
        ("c4.bounds", c4_bounds),
        ("c4.structure", c4_structure),
        ("c2h.range-inclusion", c2h_range_inclusion),
    ):
        try:
            replay()
        except KFrameError as exc:
            add(f"{section} [{exc.code}]", float("inf"), 0.0)

    return checks
