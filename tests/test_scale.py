"""Scale equivariance: every identity kframekit certifies is homogeneous.

Scaling the frames (F, Phi, Psi) by s_F and the operator K by s_K scales a
K-dual and the family parameter phi by s_K / s_F; symbols, targets and the
given left inverse do not scale. So each reported quantity has a bidegree
(a, b): it scales by s_F^a s_K^b. Each test runs at s in ``SCALES`` under two
weightings: every input scaled by s (s_F = s_K = s), and K scaled as the
square of the frames (s_F = s, s_K = s^2), under which the duals scale too.
Each verdict, ``passed`` flag, raised error and exit code must be the one at
s = 1, and each reported number must be its value at s = 1 times the scale of
its bidegree, to 1e-9 relative. A residual at rounding level has no degree,
so only the residuals of identities that fail are compared; thresholds
always are. Inputs of size 1e+-150 are out of reach here: products such
as K K* under- or overflow there. ``tightness_check`` is also run at
1e+-90 and 1e+-120, the canonical-dual envelope, evaluated without
forming |K^dagger|^4, from 1e-100 to 1e60, and the multiplier commands,
whose norm bound is |T_Phi| |T_Psi| sup|m|, at 1e-150 to 1e-90 uniform.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from conftest import (
    admissible_perturbation,
    both_inclusion_instance,
    crandn,
    minimal_instance,
    well_conditioned,
)
from tests_support_douglas import douglas_solution

from kframekit import duality, io, linalg, multipliers
from kframekit.cli import main
from kframekit.duality import (
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
from kframekit.errors import InternalConsistencyError, KFrameError
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
from kframekit.linalg import (
    OperatorEnv,
    SvdFactors,
    svd_decompose,
)
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
)

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
RTOL = 1e-9

# bidegrees (a, b): the quantity scales by s_F^a s_K^b
FRAME, OPERATOR, DUAL, FIXED = (1, 0), (0, 1), (-1, 1), (0, 0)


@dataclasses.dataclass(frozen=True)
class Scaling:
    """Frames scale by s^frames and K by s^operator; a K-dual by their ratio."""

    frames: int
    operator: int

    def factor(self, s, bidegree):
        return s ** (bidegree[0] * self.frames + bidegree[1] * self.operator)

    def frame(self, s, vectors, bidegree=FRAME):
        return Frame(self.factor(s, bidegree) * np.asarray(vectors))

    def env(self, s, k):
        return OperatorEnv.from_matrix(self.factor(s, OPERATOR) * k)

    def check(self, run):
        """``run(s)`` gives (verdicts, numbers); ``numbers`` maps a name to (value, bidegree).

        Verdicts must not change with s, and each value must be its value
        at s = 1 times the scale of its bidegree (arrays in the Frobenius norm).
        """
        base_verdicts, base_numbers = run(1.0)
        for s in SCALES:
            verdicts, numbers = run(s)
            assert verdicts == base_verdicts, f"verdicts change at s = {s:g}"
            assert numbers.keys() == base_numbers.keys()
            for name, (value, bidegree) in numbers.items():
                want = np.asarray(base_numbers[name][0]) * self.factor(s, bidegree)
                err = np.linalg.norm(np.asarray(value) - want)
                assert err <= RTOL * np.linalg.norm(want), f"{name} at s = {s:g}"


@pytest.fixture(params=[Scaling(1, 1), Scaling(1, 2)], ids=["uniform", "K-squared"])
def scaling(request):
    return request.param


def outcome(fn, *args):
    """The class name and residual of the KFrameError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except KFrameError as exc:
        return type(exc).__name__, exc.residual
    return None


def frame_instance(seed=2024, n=6, count=9, rank=3):
    """(vectors of F, K = T_F X) with K of the given rank: a K-frame, well conditioned."""
    rng = np.random.default_rng(seed)
    while True:
        syn = crandn(rng, n, count)
        k = syn @ crandn(rng, count, rank) @ crandn(rng, rank, n)
        if well_conditioned(syn) and well_conditioned(k, rank):
            return syn.T, k


VECTORS, K = frame_instance()
BOUNDS = k_frame_check(Frame(VECTORS), OperatorEnv.from_matrix(K))
CANONICAL = canonical_k_dual(Frame(VECTORS), OperatorEnv.from_matrix(K)).vectors
PHI = admissible_perturbation(np.random.default_rng(5), Frame(VECTORS), OperatorEnv.from_matrix(K))
MEMBER = CANONICAL + PHI.conj()  # g_i = ftilde_i + phi* delta_i
STRANGER = crandn(np.random.default_rng(6), 9, 6)  # not a K-dual of F


class TestFrames:
    def test_k_frame_check(self, scaling):
        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            bounds = k_frame_check(f, env)
            e1_e2, identity = scaling.frame(s, np.eye(4)[:2]), scaling.env(s, np.eye(4))
            return (bounds.inclusion.ok, outcome(k_frame_check, e1_e2, identity)[0]), {
                "A": (bounds.lower, (2, -2)), "B": (bounds.upper, (2, 0)),
                "inclusion threshold": (bounds.inclusion.threshold, OPERATOR),
                "Bessel bound": (optimal_bessel_bound(f), (2, 0)),
            }
        scaling.check(run)

    @pytest.mark.parametrize("s", [1e-120, 1e-90, 1e90, 1e120])
    def test_tightness_far_from_unit_scale(self, s):
        # tr((K K*)^2) under- or overflows at these scales; the fit on K/|K| does not
        g = Frame(s * crandn(np.random.default_rng(7), 3, 4))
        report = tightness_check(g, bessel_as_k_frame(g))  # K K* = S_G: Parseval
        assert report.identity.ok and report.passed
        assert report.constant == pytest.approx(1.0, rel=RTOL)

    @pytest.mark.parametrize("s", [1e-160, 1e-170])
    def test_underflowed_lower_bound_raises(self, s):
        # A = s^2 is the subnormal 1e-320 at 1e-160 and 0.0 at 1e-170: no lower bound
        with pytest.raises(FloatingPointError, match="optimal lower bound A"):
            k_frame_check(Frame(s * np.eye(2)), OperatorEnv.from_matrix(np.eye(2)))

    @pytest.mark.parametrize("a, b", [
        (0.5, 2.0),  # valid
        (1.01, 2.0),  # above the optimal A
        (0.5, 0.99),  # below the optimal B
    ])
    def test_validate_bounds(self, scaling, a, b):
        def run(s):
            lower = a * BOUNDS.lower * scaling.factor(s, (2, -2))
            upper = b * BOUNDS.upper * scaling.factor(s, (2, 0))
            v = validate_bounds(scaling.frame(s, VECTORS), scaling.env(s, K), lower, upper)
            return (v.passed, v.lower.ok, v.upper.ok), {
                # the lower verdict is a <= A, so its slack A - a and threshold tol A
                # have A's degree
                "lower slack": (-v.lower.residual, (2, -2)),
                "upper slack": (-v.upper.residual, (2, 0)),
                "lower threshold": (v.lower.threshold, (2, -2)),
                "upper threshold": (v.upper.threshold, (2, 0)),
            }
        scaling.check(run)

    def test_tightness_check(self, scaling):
        few = crandn(np.random.default_rng(7), 3, 4)  # 3 vectors in C^4

        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            loose = tightness_check(f, env)
            vacuous = tightness_check(f, scaling.env(s, np.zeros((6, 6))))
            g = scaling.frame(s, few)
            k_env = bessel_as_k_frame(g)  # K K* = S_G: Parseval
            parseval = tightness_check(g, k_env)
            doubled = tightness_check(Frame(np.sqrt(2.0) * g.vectors), k_env)  # S = 2 K K*
            reports = (loose, vacuous, parseval, doubled)
            verdicts = [(r.identity.ok, r.passed) for r in reports]
            verdicts += [minimality_check(f), minimality_check(g), k_env.rank]
            return verdicts, {
                "residuals": ([loose.identity.residual, vacuous.identity.residual], (2, 0)),
                "thresholds": ([r.identity.threshold for r in reports], (2, 0)),
                "constants": ([parseval.constant, doubled.constant], FIXED),
                "biorthogonal": (biorthogonal_sequence(g).vectors, (-1, 0)),
            }
        scaling.check(run)


class TestDuality:
    def test_verify_k_dual(self, scaling):
        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            good = verify_k_dual(f, scaling.frame(s, CANONICAL, DUAL), env)
            bad = verify_k_dual(f, scaling.frame(s, STRANGER, DUAL), env)
            inherited = k_dual_lower_bounds(good)
            return (good.passed, bad.passed, bad.lower_bound_report), {
                "thresholds": ([good.identity.threshold, bad.identity.threshold], OPERATOR),
                "non-dual residual": (bad.residual, OPERATOR),
                "dual lower bound": (inherited[0], (-2, 0)),
                "projected lower bound": (inherited[1], (2, -2)),
            }
        scaling.check(run)

    @pytest.mark.parametrize("side", [0, 1])
    def test_lower_bound_guarantees(self, scaling, side):
        # a report just below the 1/B guarantee is an internal inconsistency
        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            cert = verify_k_dual(f, scaling.frame(s, CANONICAL, DUAL), env)
            report = list(cert.lower_bound_report)
            report[side] = (1 - 1e-8) / optimal_bessel_bound((cert.frame, cert.dual)[side])
            bad = dataclasses.replace(cert, lower_bound_report=tuple(report))
            with pytest.raises(InternalConsistencyError, match="fall below the 1/B"):
                k_dual_lower_bounds(bad)
            return None, {}
        scaling.check(run)

    @pytest.mark.parametrize("widen", [1.0, 2.0])
    def test_canonical_dual_bound_certificate(self, scaling, widen):
        def run(s):
            lower = BOUNDS.lower / widen * scaling.factor(s, (2, -2))
            upper = BOUNDS.upper * widen * scaling.factor(s, (2, 0))
            r = canonical_dual_bound_certificate(
                scaling.frame(s, VECTORS), scaling.env(s, K), lower, upper
            )
            return (r.passed, r.lower.ok, r.upper.ok), {
                "envelope lower": (r.envelope[0], (-2, 0)),
                "envelope upper": (r.envelope[1], (-2, 2)),
                "observed lower": (r.observed[0], (-2, 0)),
                "observed upper": (r.observed[1], (-2, 2)),
                "violations": ([r.lower.residual, r.upper.residual], FIXED),
                "slacks": ([r.lower.threshold, r.upper.threshold], FIXED),
            }
        scaling.check(run)

    def test_dual_family(self, scaling):
        wrong = crandn(np.random.default_rng(8), 9, 6)

        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            phi = scaling.factor(s, DUAL) * PHI
            member = dual_family_generate(f, env, phi)
            recovered = dual_family_recover_phi(f, member, env)
            check = admissibility_violation(f, env, phi)
            refused = outcome(dual_family_generate, f, env, scaling.factor(s, DUAL) * wrong)
            return (check.ok, refused[0]), {
                "member": (member.vectors, DUAL), "recovered phi": (recovered, DUAL),
                "threshold": (check.threshold, OPERATOR),
                "inadmissible residual": (refused[1], OPERATOR),
            }
        scaling.check(run)

    def test_canonical_phi_is_admissible(self, scaling, c4_example):
        # phi recovered from the canonical dual is rounding noise
        def run(s):
            f = scaling.frame(s, c4_example.frame.vectors)
            env = scaling.env(s, c4_example.env.k)
            check = admissibility_violation(
                f, env, dual_family_recover_phi(f, canonical_k_dual(f, env), env)
            )
            return check.ok, {"threshold": (check.threshold, OPERATOR)}
        scaling.check(run)

    def test_reciprocal_dual(self, scaling):
        def run(s):
            cert = reciprocal_dual(scaling.frame(s, VECTORS), scaling.env(s, K))
            companion, reduced = k_dual_lower_bounds(cert)
            return cert.passed, {
                "threshold": (cert.identity.threshold, OPERATOR),
                "companion lower bound": (companion, (2, 0)),
                "reduced lower bound": (reduced, (-2, -2)),
            }
        scaling.check(run)

    def test_noncommutativity_witness(self, scaling):
        def run(s):
            f = scaling.frame(s, VECTORS)
            report = noncommutativity_witness(f, scaling.env(s, K))
            classical = noncommutativity_witness(f, scaling.env(s, np.eye(6)))
            return (report.recovery.ok, classical.recovery.ok), {
                "discrepancies": (report.recovery_discrepancies, FRAME),
                "thresholds": ([report.recovery.threshold, classical.recovery.threshold], FRAME),
            }
        scaling.check(run)

    def test_minimal_norm_identity(self, scaling):
        rng = np.random.default_rng(9)
        target = crandn(rng, 6)
        d = CANONICAL.conj() @ target
        kernel = np.linalg.svd(VECTORS.T)[2][6:].conj().T  # ker T_F
        offset = kernel @ crandn(rng, 3)
        stray = crandn(rng, 9)
        loose = 1e-6

        def parts(report, c):  # |d|^2 + |c - d|^2, summed as minimal_norm_identity sums it
            e = report.canonical
            return float(np.sum(np.abs(e) ** 2) + np.sum(np.abs(c - e) ** 2))

        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            c = scaling.factor(s, DUAL)
            exact, near = c * (d + offset), c * (1 + 1e-8) * d
            report = minimal_norm_identity(f, env, target, exact)
            refused = outcome(minimal_norm_identity, f, env, target, c * (d + stray))
            # off the split by 2e-8 relative, a representation at tolerance 1e-6
            split = minimal_norm_identity(f, env, target, near, loose)
            coeffs = canonical_coefficients(f, env, target)
            verdicts = (report.pythagoras.ok, report.dual.ok, report.passed, refused[0])
            sides = [report.lhs, parts(report, exact), split.lhs, parts(split, near)]
            return (verdicts, split.pythagoras.ok), {
                "lhs, rhs": (sides, (-2, 2)),
                "dual-identity threshold": (report.dual.threshold, OPERATOR),
                "d": (report.canonical, DUAL), "coefficients": (coeffs, DUAL),
                "non-representation residual": (refused[1], OPERATOR),
            }
        scaling.check(run)

    def test_canonical_coefficients_cross_check(self, scaling, monkeypatch):
        # coefficients 1e-7 off <f, ftilde_i> miss the dual identity: an internal inconsistency
        target = crandn(np.random.default_rng(10), 6)
        envs = [(scaling.frame(s, VECTORS), scaling.env(s, K)) for s in SCALES]
        duals = {id(f): canonical_k_dual(f, env) for f, env in envs}
        monkeypatch.setattr(
            duality, "canonical_k_dual",
            lambda f, env, tol=None: Frame((1 + 1e-7) * duals[id(f)].vectors),
        )
        for f, env in envs:
            with pytest.raises(InternalConsistencyError, match="canonical coefficients miss"):
                canonical_coefficients(f, env, target)


def multiplier_instance(seed=11, n=6, count=9, rank=3):
    """A K-frame Phi, Psi at half its perturbation threshold, and what the tests need.

    Returns the vectors of Phi and Psi, K = T_Phi X, a semi-normalized
    symbol, the optimal bounds of Phi, the vectors of a K-dual of Phi, the
    vectors X* of the K-dual G with T_G* = X, and a left inverse L of
    M_{1,P_K Phi,G} = K.
    """
    rng = np.random.default_rng(seed)
    while True:
        syn = crandn(rng, n, count)
        x = crandn(rng, count, rank) @ crandn(rng, rank, n)
        k = syn @ x
        if well_conditioned(syn) and well_conditioned(k, rank):
            break
    phi, env = Frame(syn.T), OperatorEnv.from_matrix(k)
    bounds = k_frame_check(phi, env)
    sym = Symbol.semi_normalized(rng.uniform(0.5, 2.0, size=count))
    tau = perturbation_condition(phi, phi, env, sym, bounds.lower, bounds.upper).threshold
    bump = crandn(rng, count, n)
    psi = syn.T + (0.5 * tau / np.linalg.norm(bump.conj() @ env.range_basis, 2)) * bump
    dual_choice = (x + admissible_perturbation(rng, phi, env)).conj()  # T_G* = X + phi
    q = env.range_basis
    left = np.eye(n) + crandn(rng, n, n) @ (np.eye(n) - q @ q.conj().T)
    return syn.T, psi, k, sym, (bounds.lower, bounds.upper), dual_choice, x.conj(), left


(M_PHI, M_PSI, M_K, M_SYM, M_BOUNDS, M_DUAL, M_X, M_LEFT) = multiplier_instance()


class TestMultipliers:
    def test_inverses(self, scaling):
        def run(s):
            phi, psi, env = scaling.frame(s, M_PHI), scaling.frame(s, M_PSI), scaling.env(s, M_K)
            mult = assemble_multiplier(M_SYM, phi, psi)
            check = mult.norm_bound_check()
            right = k_right_inverse(mult, env)
            report = frames_from_multiplier_identity(mult, env)
            sides = (report.phi_side, report.psi_side)
            return (check.ok, report.case, report.passed, [side.bound.ok for side in sides]), {
                "norm": (mult.norm(), (2, 0)), "norm bound": (mult.norm_bound(), (2, 0)),
                "norm threshold": (check.threshold, (2, 0)),
                "right inverse": (right.matrix, (-2, 1)),
                "majorization": (right.majorization, (-2, 1)),
                "left inverse": (k_left_inverse(mult, env), (-2, 1)),
                "guarantees": ([side.guaranteed for side in sides], (2, -2)),
                "optimal bounds": ([side.optimal for side in sides], (2, -2)),
            }
        scaling.check(run)

    def test_side_guarantee(self, monkeypatch):
        # M = K = s^2 I from Phi = Psi = s I: each guarantee 1/(sup|m|^2 B)
        # equals the optimal bound, so a B read 1e-8 low puts it above
        for s in SCALES:
            basis = Frame(s * np.eye(3))
            mult = assemble_multiplier(Symbol.ones(3), basis, basis)
            env = OperatorEnv.from_matrix(s**2 * np.eye(3))
            with monkeypatch.context() as patch:
                patch.setattr(
                    multipliers, "optimal_bessel_bound",
                    lambda f: optimal_bessel_bound(f) * (1 - 1e-8),
                )
                report = frames_from_multiplier_identity(mult, env)
            assert report.case == "identity"
            assert not report.phi_side.bound.ok and not report.psi_side.bound.ok
            assert not report.passed

    def test_perturbation(self, scaling):
        a, b = M_BOUNDS

        def run(s):
            phi, psi, env = scaling.frame(s, M_PHI), scaling.frame(s, M_PSI), scaling.env(s, M_K)
            bounds = (a * scaling.factor(s, (2, -2)), b * scaling.factor(s, (2, 0)))
            dual_choice = scaling.frame(s, M_DUAL, DUAL)
            cond = perturbation_condition(phi, psi, env, M_SYM, *bounds)
            cert = perturbation_k_dual(phi, psi, env, M_SYM, bounds)
            fact = perturbation_right_inverse(phi, psi, env, M_SYM, bounds, dual_choice)
            diag = fact.diagnostics
            dual_lower, projected_lower = k_dual_lower_bounds(cert)
            return (cond.ok, cert.passed, fact.passed), {
                "rho, tau": ([cond.residual, cond.threshold], FRAME),
                "dual": (cert.dual.vectors, DUAL),
                "dual threshold": (cert.identity.threshold, OPERATOR),
                "dual lower bound": (dual_lower, (-2, 0)),
                "projected lower bound": (projected_lower, (2, -2)),
                "threshold": (fact.identity.threshold, OPERATOR),
                "margin, distance": ([diag["margin"], diag["distance"]], (2, 0)),
            }
        scaling.check(run)

    def test_right_inverse_form(self, scaling):
        # Phi = {e1, 0.1 e2}, K = diag(1, 0.01), Psi = Phi: a K-dual off by
        # 0.5e-10 |K| along e2 passes the dual gate, but R = (M^-1)* K meets
        # its multiplier form only to 5e-9, as M^-1 = diag(1, 100)
        vectors, k = np.diag([1.0, 0.1]), np.diag([1.0, 0.01])
        frame, env = Frame(vectors), OperatorEnv.from_matrix(k)
        bounds = k_frame_check(frame, env)
        off = canonical_k_dual(frame, env).vectors + 5e-10 * np.outer([0, 1], [1, 0])
        ones = Symbol.ones(2)

        def run(s):
            phi, env = scaling.frame(s, vectors), scaling.env(s, k)
            pair = (bounds.lower * scaling.factor(s, (2, -2)),
                    bounds.upper * scaling.factor(s, (2, 0)))
            dual_choice = scaling.frame(s, off, DUAL)
            fact = perturbation_right_inverse(phi, phi, env, ones, pair, dual_choice)
            assert not fact.passed
            return fact.passed, {
                "form residual": (
                    fact.certificates["right_inverse_multiplier_form"].residual, (-2, 1)),
            }
        scaling.check(run)

    def test_range_inclusion_and_biorthogonal(self, scaling):
        psi2, phi2, env2 = both_inclusion_instance(np.random.default_rng(13))
        phi3, psi3, env3 = minimal_instance(np.random.default_rng(17))

        def run(s):
            right, left = range_inclusion_inverses(
                scaling.frame(s, psi2.vectors), scaling.frame(s, phi2.vectors),
                scaling.env(s, env2.k),
            )
            bio = biorthogonal_right_inverse(
                scaling.frame(s, phi3.vectors), scaling.frame(s, psi3.vectors),
                scaling.env(s, env3.k),
            )
            thresholds = [bio.forward.identity.threshold, bio.mirrored.identity.threshold]
            return (right.passed, left.passed, bio.passed, bio.mirrored.passed), {
                "right threshold": (right.identity.threshold, OPERATOR),
                "left threshold": (left.identity.threshold, (0, 2)),
                "biorthogonal thresholds": (thresholds, OPERATOR),
            }
        scaling.check(run)

    def test_inverse_as_multiplier(self, scaling):
        c = 1.7  # T_Psi* = c X, so M_{1,P_K Phi,Psi} = c K

        def run(s):
            phi, env = scaling.frame(s, M_PHI), scaling.env(s, M_K)
            psi = scaling.frame(s, c * M_X, DUAL)
            dual_choice = scaling.frame(s, M_DUAL, DUAL)
            out = inverse_as_multiplier(phi, psi, env, M_LEFT / c, "left", dual_choice)
            wrong = M_LEFT * (1 + 1e-6) / c
            refused = outcome(inverse_as_multiplier, phi, psi, env, wrong, "left", dual_choice)
            return (out.passed, refused[0]), {
                "threshold": (out.identity.threshold, OPERATOR),
                "achieved": (out.achieved, OPERATOR),
                "not-an-inverse residual": (refused[1], OPERATOR),
            }
        scaling.check(run)


class TestConsistencyGates:
    """An injected disagreement raises at every scale, not only at scale 1."""

    def test_svd_reconstruction(self, monkeypatch):
        svd = np.linalg.svd

        def skewed(a, full_matrices=True, **kwargs):
            u, sigma, vh = svd(a, full_matrices=full_matrices, **kwargs)
            return u, sigma * (1 + 1e-8), vh

        monkeypatch.setattr(np.linalg, "svd", skewed)
        a = crandn(np.random.default_rng(19), 5, 4)
        for s in SCALES:
            with pytest.raises(InternalConsistencyError, match="SVD reconstruction"):
                svd_decompose(s * a)

    def test_douglas_residual(self, monkeypatch):
        solve = SvdFactors.solve
        monkeypatch.setattr(
            SvdFactors, "solve", lambda self, rhs: tuple(x * (1 + 1e-8) for x in solve(self, rhs))
        )
        rng = np.random.default_rng(23)
        l2 = crandn(rng, 4, 6)
        l1 = l2 @ crandn(rng, 6, 3)
        for s in SCALES:
            with pytest.raises(InternalConsistencyError, match="factorization residual"):
                douglas_solution(s * l1, s * l2)

    def test_operator_self_check(self, monkeypatch):
        # factors that drop nothing while K has a tail of 1e-6 |K|: P K - K is a real gap
        k = np.diag([1.0, 0.5, 1e-6])
        eye = np.eye(3, 2, dtype=complex)
        for s in SCALES:
            factors = SvdFactors(eye, s * np.array([1.0, 0.5, 0.0]), eye)
            monkeypatch.setattr(linalg, "svd_decompose", lambda a, factors=factors: factors)
            with pytest.raises(InternalConsistencyError, match="P_R\\(K\\) K differs from K"):
                OperatorEnv.from_matrix(s * k)

    def test_operator_self_check_allows_the_dropped_tail(self):
        # n = 256: the rank rule drops 1.5e-10 |K| (cutoff 256 * 2^-40 |K| = 2.3e-10 |K|),
        # and P K - K is exactly that tail, above identity_tol |K|; the check must pass
        rng = np.random.default_rng(3)
        u = np.linalg.qr(crandn(rng, 256, 256))[0]
        v = np.linalg.qr(crandn(rng, 256, 256))[0]
        s = np.zeros(256)
        s[:128] = np.linspace(1.0, 0.5, 128)
        s[128] = 1.5e-10
        for scale in SCALES:
            env = OperatorEnv.from_matrix(scale * ((u * s) @ v.conj().T))
            assert env.rank == 128


def _vectors(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class TestCli:
    """The CLI commands on scaled files: exit codes, verdicts and reported numbers."""

    @pytest.fixture()
    def invoke(self, tmp_path, capsys):
        def run(command, frames, env, symbol=None):
            argv = [command, "--format", "json"]
            for i, f in enumerate(frames):
                io.write_file(tmp_path / f"frame{i}.json", io.frame_to_obj(f))
                argv += ["--frame", str(tmp_path / f"frame{i}.json")]
            io.write_file(tmp_path / "k.json", io.matrix_to_obj(env.k))
            argv += ["--operator", str(tmp_path / "k.json")]
            if symbol is not None:
                io.write_file(tmp_path / "m.json", io.symbol_to_obj(symbol))
                argv += ["--symbol", str(tmp_path / "m.json")]
            code = main(argv)
            body = json.loads(capsys.readouterr().out)
            passed = {name: v["passed"] for name, v in body["verdicts"].items()}
            return (code, passed, "error" in body), body
        return run

    def test_verify(self, scaling, invoke):
        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            good, body = invoke("verify", [f, scaling.frame(s, MEMBER, DUAL)], env)
            bad, bad_body = invoke("verify", [f, scaling.frame(s, STRANGER, DUAL)], env)
            verdicts = (body["verdicts"]["dual-identity"], bad_body["verdicts"]["dual-identity"])
            return (good, bad), {
                "thresholds": ([v["threshold"] for v in verdicts], OPERATOR),
                "non-dual residual": (verdicts[1]["residual"], OPERATOR),
                "dual lower bound": (body["results"]["dual_lower_bound"], (-2, 0)),
                "projected lower bound": (body["results"]["projected_lower_bound"], (2, -2)),
            }
        scaling.check(run)

    def test_analyze(self, scaling, invoke):
        def run(s):
            verdicts, body = invoke("analyze", [scaling.frame(s, VECTORS)], scaling.env(s, K))
            r, v = body["results"], body["verdicts"]
            flags = {key: r[key] for key in ("tight", "parseval", "minimal", "operator_rank")}
            return (verdicts, flags), {
                "inclusion threshold": (v["range-inclusion"]["threshold"], OPERATOR),
                # A |K* w|^2 - |T_F* w|^2 at lambda's witness and |T_F* u_1|^2 - B are
                # rounding, so only their thresholds have a degree
                "lower threshold": (v["lower-attained"]["threshold"], (2, 0)),
                "upper threshold": (v["upper-attained"]["threshold"], (2, 0)),
                "A": (r["optimal_lower"], (2, -2)),
                "B": (r["optimal_upper"], (2, 0)),
            }
        scaling.check(run)

    @pytest.mark.parametrize("tol, code", [("1e-15", 0), ("1e-16", 3), ("1e-30", 3)])
    def test_analyze_at_strict_tolerance(self, tmp_path, capsys, tol, code):
        # T_F spans C^6, so its rank decides the inclusion (residual 0) at any tol;
        # below 1e-15 the Douglas residual gate, at tol |K| and not yet scaled to
        # |T_F| |X|, raises on rounding
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(VECTORS)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(K))
        got = main(["analyze", "--frame", str(tmp_path / "f.json"), "--operator",
                    str(tmp_path / "k.json"), "--tol", tol, "--format", "json"])
        out, err = capsys.readouterr()
        assert got == code
        if code == 0:
            assert json.loads(out)["verdicts"]["range-inclusion"]["residual"] == 0.0
        else:
            assert err.startswith("internal consistency error: factorization residual")

    def test_subnormal_restriction_is_named(self, tmp_path, capsys):
        # at 1e-160 B = Sigma^2 U_r* U_k has singular values of order 1e-320, which the
        # restriction's coordinates would divide by
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(1e-160 * VECTORS)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(1e-160 * K))
        assert main(["dual", "--frame", str(tmp_path / "f.json"),
                     "--operator", str(tmp_path / "k.json")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("numerical failure in dual: the least singular value of B, ")
        assert err.endswith(", is subnormal\n")
        least = float(err.split("B, ")[1].split(",")[0])
        assert 0.0 < least < np.finfo(float).tiny

    @staticmethod
    def _multiplier_command(tmp_path, capsys, command, s):
        """(exit code, stdout, stderr, warnings) of ``command`` on the multiplier inputs
        scaled by ``s``, uniformly."""
        paths = [str(tmp_path / f"{name}.json") for name in ("phi", "psi", "k", "m")]
        io.write_file(paths[0], io.frame_to_obj(Frame(s * M_PHI)))
        io.write_file(paths[1], io.frame_to_obj(Frame(s * M_PSI)))
        io.write_file(paths[2], io.matrix_to_obj(s * M_K))
        io.write_file(paths[3], io.symbol_to_obj(M_SYM))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--frame", paths[0], "--frame", paths[1], "--operator",
                         paths[2], "--symbol", paths[3], "--format", "json"])
        out, err = capsys.readouterr()
        return code, out, err, caught

    @pytest.mark.parametrize("command", ["right-inverse", "left-inverse"])
    def test_subnormal_multiplier_is_named(self, tmp_path, capsys, command):
        # at 1e-160 M = T_Phi diag(m) T_Psi* has singular values of order 1e-320, which
        # the Douglas solution's core would divide by
        code, out, err, caught = self._multiplier_command(tmp_path, capsys, command, 1e-160)
        assert (code, out, caught) == (3, "", [])
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"numerical failure in {command}: "
                              f"the least kept singular value of M, ")
        assert err.endswith(", is subnormal\n")
        least = float(err.split("M, ")[1].split(",")[0])
        assert 0.0 < least < np.finfo(float).tiny

    @pytest.mark.parametrize("command", ["right-inverse", "left-inverse"])
    def test_multiplier_underflowing_to_zero_is_named(self, tmp_path, capsys, command):
        # at 1e-200 every product in M = T_Phi diag(m) T_Psi* (degree 2) underflows, so M
        # is 0.0 with rank 0: a numerical failure, not a missing inverse
        code, out, err, caught = self._multiplier_command(tmp_path, capsys, command, 1e-200)
        assert (code, out, caught) == (3, "", [])
        prefix = (f"numerical failure in {command}: M underflows to 0: "
                  f"its factors' largest entries are ")
        assert err.startswith(prefix) and err.count("\n") == 1
        phi, m, psi = json.loads(err[len(prefix):])
        assert min(phi, m, psi) > 0.0 and phi * m * psi == 0.0

    @pytest.mark.parametrize("command", ["right-inverse", "left-inverse"])
    def test_exactly_zero_multiplier_has_no_inverse(self, tmp_path, capsys, command):
        # phi_1 = phi_2 = e_1, psi_1 = e_1, psi_2 = -e_1 and m = 1 cancel to M = 0 at unit
        # scale: R(K) is not in R(M) = {0}, a domain verdict
        e1 = np.array([1.0, 0.0])
        paths = [str(tmp_path / f"{name}.json") for name in ("phi", "psi", "k", "m")]
        io.write_file(paths[0], io.frame_to_obj(Frame(np.array([e1, e1]))))
        io.write_file(paths[1], io.frame_to_obj(Frame(np.array([e1, -e1]))))
        io.write_file(paths[2], io.matrix_to_obj(np.diag([1.0, 0.0])))
        io.write_file(paths[3], io.symbol_to_obj(Symbol.ones(2)))
        code = main([command, "--frame", paths[0], "--frame", paths[1], "--operator",
                     paths[2], "--symbol", paths[3], "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert json.loads(out)["error"]["code"] == f"no-{command}"

    def test_perturbation_threshold_far_below_unit_scale(self, tmp_path, capsys):
        # tau = (a / sqrt(b)) / |Kdag| / |Kdag| in that order: |Kdag|^2 alone would overflow
        # at 1e-160, yet the verdict is the one at s = 1 and rho, tau scale by s
        unit = json.loads(self._multiplier_command(tmp_path, capsys, "perturb-check", 1.0)[1])
        code, out, err, caught = self._multiplier_command(tmp_path, capsys, "perturb-check",
                                                          1e-160)
        assert (code, err, caught) == (0, "", [])
        body = json.loads(out)
        assert body["verdicts"]["perturbation-condition"]["passed"] is True
        assert unit["verdicts"]["perturbation-condition"]["passed"] is True
        for key in ("rho", "tau"):
            assert body["results"][key] == pytest.approx(1e-160 * unit["results"][key],
                                                         rel=RTOL)

    def test_unrepresentable_perturbation_threshold_is_named(self, tmp_path, capsys):
        # at 1e-200 B (degree 2) underflows to 0.0, so tau = a / sqrt(B) ... is inf
        code, out, err, caught = self._multiplier_command(tmp_path, capsys, "perturb-check",
                                                          1e-200)
        assert (code, out, caught) == (3, "", [])
        assert err == ("numerical failure in perturb-check: perturbation threshold "
                       "tau = inf is not finite and positive\n")

    def test_dual(self, scaling, invoke):
        def run(s):
            verdicts, body = invoke("dual", [scaling.frame(s, VECTORS)], scaling.env(s, K))
            r, v = body["results"], body["verdicts"]
            lower = [r["dual_lower_bound"], r["envelope"][0], r["dual_optimal_bounds"][0]]
            return verdicts, {
                "dual identity threshold": (v["dual-identity"]["threshold"], OPERATOR),
                "envelope violation": (v["dual-bounds-envelope"]["residual"], FIXED),
                "envelope slack": (v["dual-bounds-envelope"]["threshold"], FIXED),
                "dual": (_vectors(r["dual_vectors"]), DUAL),
                "lower bounds": (lower, (-2, 0)),
                "projected lower bound": (r["projected_lower_bound"], (2, -2)),
                "Bessel bounds": ([r["envelope"][1], r["dual_optimal_bounds"][1]], (-2, 2)),
            }
        scaling.check(run)

    @pytest.mark.parametrize("s", [1e-100, 1e-60, 1e-40, 1e40, 1e60])
    def test_dual_envelope_far_from_unit_scale(self, scaling, invoke, s):
        # B |K|^2 |K^dagger|^4 / A^2 in that order under- or overflows at these scales
        def envelope(s):
            lower = BOUNDS.lower * scaling.factor(s, (2, -2))
            upper = BOUNDS.upper * scaling.factor(s, (2, 0))
            return canonical_dual_bound_certificate(
                scaling.frame(s, VECTORS), scaling.env(s, K), lower, upper
            )
        report = envelope(s)
        assert report.passed
        want = envelope(1.0).envelope[1] * scaling.factor(s, (-2, 2))
        assert report.envelope[1] == pytest.approx(want, rel=RTOL)
        (code, passed, error), _ = invoke("dual", [scaling.frame(s, VECTORS)], scaling.env(s, K))
        assert (code, error) == (0, False) and all(passed.values())

    def test_dual_family(self, scaling, invoke):
        def run(s):
            f, env = scaling.frame(s, VECTORS), scaling.env(s, K)
            verdicts, body = invoke("dual-family", [f, scaling.frame(s, MEMBER, DUAL)], env)
            v = body["verdicts"]
            return verdicts, {
                "admissibility threshold": (v["phi-admissible"]["threshold"], OPERATOR),
                "round-trip threshold": (v["family-round-trip"]["threshold"], DUAL),
                "phi": (io.parse_obj(body["results"]["phi"]), DUAL),
            }
        scaling.check(run)

    @pytest.mark.parametrize("command", ["right-inverse", "left-inverse"])
    def test_inverses(self, scaling, invoke, command):
        def run(s):
            frames = [scaling.frame(s, M_PHI), scaling.frame(s, M_PSI)]
            verdicts, body = invoke(command, frames, scaling.env(s, M_K), M_SYM)
            r = body["results"]
            numbers = {
                "threshold": (body["verdicts"][f"{command}-identity"]["threshold"], OPERATOR),
                "inverse": (io.parse_obj(r["inverse"]), (-2, 1)),
            }
            if command == "right-inverse":
                numbers["majorization"] = (r["majorization"], (-2, 1))
            return verdicts, numbers
        scaling.check(run)

    @pytest.mark.parametrize("s", [1e-150, 1e-120, 1e-90])
    def test_multipliers_far_below_unit_scale(self, invoke, s):
        # B_Phi B_Psi (degree 4) underflows at these scales; |T_Phi| |T_Psi| does not
        frames = [Frame(s * M_PHI), Frame(s * M_PSI)]
        env = OperatorEnv.from_matrix(s * M_K)
        outcomes = {command: invoke(command, frames, env, M_SYM)
                    for command in ("multiplier", "right-inverse", "left-inverse")}
        for command, ((code, passed, error), _) in outcomes.items():
            assert (code, error) == (0, False) and all(passed.values()), command
        unit = [Frame(M_PHI), Frame(M_PSI)]
        want = invoke("multiplier", unit, OperatorEnv.from_matrix(M_K), M_SYM)[1]
        got = outcomes["multiplier"][1]["results"]["norm_bound"]
        assert got == pytest.approx(want["results"]["norm_bound"] * s**2, rel=RTOL)
