"""Kernel: SVD, pseudo-inverse, projectors, factorization, restricted inverses."""

import dataclasses

import numpy as np
import pytest
from conftest import (
    crandn,
    graded_instance,
    hand_inclusion_instance,
    minimal_instance,
    projector_onto_range,
    random_k_frame,
    random_rank_matrix,
    range_projector,
    skew_lambda_core,
    weak_direction_instance,
)
from tests_support_douglas import douglas_solution, inclusion_check, min_eig

from kframekit import Frame, duality, frames, multipliers
from kframekit.errors import (
    InternalConsistencyError,
    NonFiniteInput,
    RangeNotIncluded,
    RankDeficientRestriction,
    ShapeMismatch,
)
from kframekit.linalg import (
    IDENTITY_TOL,
    CheckResult,
    OperatorEnv,
    SvdFactors,
    _cut,
    _gate,
    _require,
    _Verdicts,
    _within,
    majorization_constant,
    _restricted_inverse,
    range_identity_check,
    spectral_norm,
    svd_decompose,
)
from kframekit.worked import projection_example

S2 = np.array([[1.5, -0.5], [-0.5, 1.5]])


def c4_operator():
    k = np.zeros((4, 4))
    k[0, 0] = k[1, 0] = k[2, 1] = 1.0
    return k


def c4_synthesis():
    return np.eye(4)[:, :3]


class TestSvd:
    def test_identity(self):
        f = svd_decompose(np.eye(2))
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0])
        assert f.rank == 2

    def test_zero(self):
        f = svd_decompose(np.zeros((3, 2)))
        np.testing.assert_allclose(f.singular_values, [0.0, 0.0])
        assert f.rank == 0

    def test_projection_frame_operator(self):
        f = svd_decompose(S2)
        np.testing.assert_allclose(f.singular_values, [2.0, 1.0], atol=1e-14)
        assert f.rank == 2

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            svd_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = crandn(rng, rng.integers(1, 9), rng.integers(1, 9))
            f = svd_decompose(m)
            rebuilt = (f.left_vectors * f.singular_values[: f.rank]) @ f.right_vectors.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(1, np.linalg.norm(m))

    def test_skewed_singular_values_fail_the_reconstruction_gate(self, monkeypatch):
        # an SVD whose singular values are read 1.5 times too large: |0.5 a|_F = 1.125 for
        # a = diag(2, 1, 1/4); cut to two vectors, the gate subtracts the dropped 1.5 / 4
        # from the residual |diag(1, 1/2, -1/4)|_F = sqrt(1.3125) that the message names
        a, eye, s = np.diag([2.0, 1.0, 0.25]), np.eye(3), np.array([2.0, 1.0, 0.25])
        with pytest.raises(InternalConsistencyError) as info:
            _cut(eye[:, :2], 1.5 * s, eye[:, :2], a)
        assert str(info.value) == "SVD reconstruction residual 1.146e+00 exceeds tolerance"
        assert info.value.residual == pytest.approx(np.sqrt(1.3125) - 0.375, rel=1e-12)
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, *args, **kwargs: (
            lambda u, values, vh: (u, 1.5 * values, vh))(*svd(m, *args, **kwargs)))
        with pytest.raises(InternalConsistencyError,
                           match="^SVD reconstruction residual 1.125e[+]00 exceeds tolerance$"
                           ) as info:
            svd_decompose(a)
        assert info.value.residual == pytest.approx(1.125, rel=1e-12)

    def test_factors_hold_only_the_rank_vectors(self):
        # K of rank 32 in C^64, and a 32 x 48 core C with sigma_32 = 50 * 2^-40 |C|: above
        # C's cutoff 48 * 2^-40 |C|, below that of the 64 x 48 frame U_k C, 64 * 2^-40 |C|
        from kframekit.frames import Frame, _factored, _factors

        rng = np.random.default_rng(11)
        k = random_rank_matrix(rng, 64, 32)
        env = OperatorEnv.from_matrix(k)
        u = np.linalg.qr(crandn(rng, 32, 32))[0]
        w = np.linalg.qr(crandn(rng, 48, 32))[0]
        s = np.ones(32)
        s[-1] = 50 * 2.0 ** -40
        core = Frame(((u * s) @ w.conj().T).T)
        lifted = _factors(_factored(env.range_basis, core, None))
        assert _factors(core).rank == 32
        for factors, rank in ((svd_decompose(k), 32), (env.factors, 32), (lifted, 31)):
            assert factors.rank == rank and factors.left_vectors.shape == (64, rank)
            for vectors in (factors.left_vectors, factors.right_vectors):
                assert vectors.shape[1] == rank
                assert vectors.base is None or vectors.base.size == vectors.size


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(svd_decompose(np.eye(3)).pinv(), np.eye(3), atol=1e-14)

    def test_zero_transposed_shape(self):
        out = svd_decompose(np.zeros((3, 2))).pinv()
        assert out.shape == (2, 3)
        assert np.all(out == 0)

    def test_c4_operator(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 1] = 0.5
        expected[1, 2] = 1.0
        np.testing.assert_allclose(svd_decompose(c4_operator()).pinv(), expected, atol=1e-14)

    def test_penrose_identities(self):
        # each identity is checked relative to the scale of its own sides
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, m = rng.integers(1, 9, size=2)
            a = crandn(rng, n, m)
            if rng.random() < 0.4 and min(n, m) > 1:  # force rank deficiency
                a[:, -1] = a[:, 0] * (1.1 + 0.3j)
            p = svd_decompose(a).pinv()
            assert spectral_norm(a @ p @ a - a) <= 1e-10 * max(1.0, spectral_norm(a))
            assert spectral_norm(p @ a @ p - p) <= 1e-10 * max(1.0, spectral_norm(p))
            assert spectral_norm((a @ p).conj().T - a @ p) <= 1e-10
            assert spectral_norm((p @ a).conj().T - p @ a) <= 1e-10

    def test_involution(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = crandn(rng, rng.integers(1, 9), rng.integers(1, 9))
            back = svd_decompose(svd_decompose(a).pinv()).pinv()
            assert spectral_norm(back - a) <= 1e-9 * max(1.0, spectral_norm(a))


class TestRangeProjector:
    def test_e1_column(self):
        p = projector_onto_range(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-14)

    def test_restricted_frame_column(self):
        p = projector_onto_range(np.array([[1.5], [-0.5]]))
        np.testing.assert_allclose(p, np.array([[9, -3], [-3, 1]]) / 10.0, atol=1e-14)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(crandn(rng, 6, 3))
        p = projector_onto_range(q)
        np.testing.assert_allclose(p, q @ q.conj().T, atol=1e-12)

    def test_projector_algebra(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = crandn(rng, rng.integers(1, 8), rng.integers(1, 8))
            f = svd_decompose(m)
            basis = f.left_vectors[:, : f.rank]
            p = basis @ basis.conj().T
            scale = 1e-10 * max(1.0, spectral_norm(m))
            assert spectral_norm(p - p.conj().T) <= scale
            assert spectral_norm(p @ p - p) <= scale
            assert spectral_norm(p @ m - m) <= scale
            assert basis.shape[1] == svd_decompose(m).rank


class TestRangeInclusion:
    def test_identity_pair(self):
        assert inclusion_check(np.eye(2), np.eye(2))

    def test_identity_vs_zero(self):
        assert not inclusion_check(np.eye(2), np.zeros((2, 2)))

    def test_c4_example(self):
        assert inclusion_check(c4_operator(), c4_synthesis())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):  # the row counts are checked on entry
            majorization_constant(np.eye(2), np.eye(3))

    def test_residual_reported(self):
        check = inclusion_check(np.eye(2), np.diag([1.0, 0.0]))
        assert not check.ok
        assert check.residual == pytest.approx(1.0)


class TestDouglas:
    def test_identity(self):
        np.testing.assert_allclose(douglas_solution(np.eye(2), np.eye(2)), np.eye(2), atol=1e-14)

    def test_c4_hand_solution(self):
        x = douglas_solution(c4_operator(), c4_synthesis())
        expected = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_not_included(self):
        with pytest.raises(RangeNotIncluded):
            douglas_solution(np.array([[1.0], [0.0]]), np.zeros((2, 2)))

    def test_minimal_norm_row_space(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h, p, q = rng.integers(2, 7, size=3)
            l2 = crandn(rng, h, p)
            l1 = l2 @ crandn(rng, p, q)
            x = douglas_solution(l1, l2)
            proj = projector_onto_range(l2.conj().T)
            assert spectral_norm(proj @ x - x) <= 1e-10 * max(1.0, spectral_norm(x))

    @pytest.mark.parametrize("c", [1e-8, 1e-9])
    def test_ill_conditioned_solution_matches_the_oracle(self, c):
        # a formed pinv(T) times K would miss the residual gate on every seed
        for seed in range(20):
            syn, x0, oracle = graded_instance(seed, c)
            x = douglas_solution(syn @ x0, syn)
            err = spectral_norm(x - oracle) / spectral_norm(oracle)
            assert err <= 10 * np.finfo(float).eps / c


class TestIllConditionedMajorization:
    """lambda's certificates keep up with the Douglas route as kappa(T_F) grows.

    A cross-check on the Gram matrices of T_F (L2) squares kappa and disagrees with the
    Douglas route by more than a fixed 1e-8 gate from c = 1e-5 on (2 of 20 seeds there,
    all from 1e-6), and a second route gated at a fixed 5e-9 raised on 1 and 15 of 20
    seeds at c = 1e-9 and 1e-10. The witness ratio and the Douglas residual square
    nothing of T_F, and their gate, 40 d kappa eps lambda (d the largest dimension),
    scales with kappa(T_F): no seed raises down to c = 1e-10, near the rank cutoff of
    about 3e-11.
    """

    @pytest.mark.parametrize("c", [1e-4, 1e-5, 1e-6, 1e-8, 1e-9, 1e-10])
    def test_bounds_match_the_oracle(self, c):
        from kframekit.frames import Frame, k_frame_check

        for seed in range(20):
            syn, x0, oracle = graded_instance(seed, c)
            k = syn @ x0
            lam = spectral_norm(oracle)
            lower = k_frame_check(Frame(syn.T), OperatorEnv.from_matrix(k)).lower
            assert abs(lower * lam**2 - 1.0) <= 10 * np.finfo(float).eps / c
            assert abs(majorization_constant(k, syn) / lam - 1.0) <= 10 * np.finfo(float).eps / c

    @pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-6])
    def test_overstated_lambda_raises_on_the_weak_direction(self, c, monkeypatch):
        # K = u_6 u_6* along T_F's least singular direction (kappa = 1/c): a lambda 1.01
        # times its core's norm leaves the witness ratio 1 % below it
        from kframekit.frames import k_frame_check

        f, env = weak_direction_instance(c)
        assert k_frame_check(f, env).lower == pytest.approx(c**2, rel=1e-6)
        f, env = weak_direction_instance(c)
        skew_lambda_core(monkeypatch, values=1.01)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            k_frame_check(f, env)

    @pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8])
    def test_projected_bound_in_range_coordinates(self, c):
        # {U_k* f_i} against Sigma_k has the lower bound of {P_R(K) f_i} against K
        from kframekit.duality import _lower_bounds
        from kframekit.frames import Frame, k_frame_check

        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
            projected = k_frame_check(f.map(range_projector(env)), env).lower
            got = _lower_bounds(f, Frame(np.eye(20)), env, IDENTITY_TOL)[1]
            assert got == pytest.approx(projected, rel=1e-12)

    def test_full_rank_operator(self):
        # k = n: the range factor is K V, a rotation of K, and P_R(K) = I
        from kframekit.duality import canonical_k_dual, verify_k_dual
        from kframekit.frames import Frame, k_frame_check

        rng = np.random.default_rng(53)
        syn = crandn(rng, 6, 9)
        k = crandn(rng, 6, 6)
        f, env = Frame(syn.T), OperatorEnv.from_matrix(k)
        assert env.range_factor.shape == (6, 6)
        lower = k_frame_check(f, env).lower
        assert lower == pytest.approx(1 / spectral_norm(np.linalg.pinv(syn) @ k) ** 2, rel=1e-12)
        cert = verify_k_dual(f, canonical_k_dual(f, env), env)
        assert cert.passed and cert.lower_bound_report[1] == pytest.approx(lower, rel=1e-12)
        assert cert.residual <= 1e-13 * env.norm()
        stranger = Frame(crandn(rng, 9, 6))
        assert verify_k_dual(f, stranger, env).residual == pytest.approx(
            spectral_norm(k - syn @ stranger.analysis), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-200])
    def test_small_inputs_keep_the_lower_bound(self, scale):
        # A = 1 / |pinv(T_F) K|^2 is invariant when T_F and K scale together
        from kframekit.frames import Frame, k_frame_check

        for seed in range(20):
            syn, x0, _ = graded_instance(seed, 1e-3)
            k = syn @ x0
            lower = k_frame_check(Frame(syn.T), OperatorEnv.from_matrix(k)).lower
            small = k_frame_check(Frame(scale * syn.T), OperatorEnv.from_matrix(scale * k)).lower
            assert small == pytest.approx(lower, rel=1e-12)


@pytest.fixture()
def norm_svds(monkeypatch):
    """The operands of the SVDs that np.linalg.norm(., 2) takes, in call order."""
    calls = []
    svd = np.linalg._linalg.svd  # the binding np.linalg.norm(., 2) calls

    def counted(a, *args, **kwargs):
        calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, "svd", counted)
    return calls


class TestResidualGate:
    """``_within`` decides |R|_2 <= threshold, on |R|_F where that settles it."""

    R = np.diag([3.0, 4.0])  # |R|_2 = 4, |R|_F = 5, |R|_F / sqrt(2) = 3.54

    FAIL = (InternalConsistencyError, "residual {:.17e}")

    def test_frobenius_pass_needs_no_svd(self, norm_svds):
        assert _within(self.R, 5.0) and _within(self.R, 5.0, *self.FAIL)
        assert not norm_svds

    def test_spectral_pass_below_the_frobenius_norm(self):
        assert _within(self.R, 4.5)
        assert _within(self.R, 4.5, *self.FAIL)

    @pytest.mark.parametrize("threshold", [3.9, 3.0])  # between and below the bounds
    def test_failure_carries_the_spectral_residual(self, threshold):
        with pytest.raises(InternalConsistencyError) as info:
            _within(self.R, threshold, *self.FAIL)
        assert info.value.residual == spectral_norm(self.R) == 4.0
        assert str(info.value) == f"residual {4.0:.17e}"

    def test_rejects_between_the_bounds(self):
        assert not _within(self.R, 3.8)

    def test_rejects_below_the_lower_bound_without_svd(self, norm_svds):
        assert not _within(self.R, 3.5)
        assert not norm_svds

    @pytest.mark.parametrize("threshold, ok, residual", [(5.0, True, None), (4.5, True, 4.0),
                                                         (3.8, False, 4.0), (3.5, False, None)])
    def test_verdict_holds_the_spectral_residual_only_where_measured(self, threshold, ok,
                                                                     residual):
        verdict = _within(self.R, threshold)
        assert (verdict.ok, verdict.threshold) == (ok, threshold)
        assert np.isnan(verdict.residual) if residual is None else verdict.residual == residual

    @pytest.mark.parametrize("scale", [1e-200, 1e200])  # squared entries under- or overflow
    def test_frobenius_norm_is_scaled(self, scale, norm_svds):
        assert not _within(scale * self.R, scale * 3.5) and _within(scale * self.R, scale * 5.0)
        assert not norm_svds


class TestGate:
    def test_numpy_scalars_give_python_types(self):
        # a numpy comparison is a numpy.bool_, which json cannot write
        check = _gate(np.float64(1.0), np.float64(2.0), 1.0)
        assert type(check.ok) is bool and check.ok
        assert type(check.residual) is float and type(check.threshold) is float
        assert _gate(np.float64(3.0), 2.0, np.float64(1.0)).ok is False

    def test_require_returns_a_passed_check_and_raises_a_failed_one(self):
        passed = _gate(1.0, 2.0, 1.0)
        assert _require(passed, InternalConsistencyError, "never {:.3e}") is passed
        with pytest.raises(InternalConsistencyError) as info:
            _require(_gate(3.0, 2.0, 1.0), InternalConsistencyError, "{:.1f} above {!r}")
        assert str(info.value) == "3.0 above 2.0" and info.value.residual == 3.0

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_a_nan_or_negative_tolerance_is_refused(self, tol):
        # NaN failed every gate and a negative tol inverted them, so a bad tolerance read as
        # a rounding residual (InternalConsistencyError), NotKFrame or a failed certificate
        c2 = projection_example()
        f, env = c2.frame, c2.env
        dual = duality.canonical_k_dual(f, env)
        narrow = Frame(crandn(np.random.default_rng(8), 6, 8))  # R(T_F) is 6 of C^8
        for call in (lambda: _gate(0.0, 1.0, tol), lambda: _within(np.eye(2), tol),
                     lambda: frames.k_frame_check(f, env, tol),
                     lambda: duality.canonical_k_dual(narrow, OperatorEnv.from_matrix(np.eye(8)),
                                                      tol),
                     lambda: duality.verify_k_dual(f, dual, env, tol)):
            with pytest.raises(ValueError, match="^a tolerance must be a non-negative number"):
                call()

    def test_zero_and_infinite_tolerances_keep_their_meaning(self):
        # tol = 0 is an exact test, tol = inf a vacuous one
        assert _gate(0.0, 1.0, 0.0).ok and not _gate(1e-300, 1.0, 0.0).ok
        assert _gate(1e300, 1.0, np.inf).ok and _within(np.eye(2), np.inf)
        assert _within(np.zeros((2, 2)), 0.0) and not _within(np.eye(2), 0.0)


FAILED = CheckResult(False, 1.0, 0.0)


def one_failed(result, prefix=""):
    """(name, copy of ``result`` with exactly that one verdict failed), for each
    ``CheckResult`` field, each ``certificates`` entry and each verdict of a present
    nested result."""
    for field in dataclasses.fields(result):
        value, name = getattr(result, field.name), prefix + field.name
        if isinstance(value, CheckResult):
            yield name, dataclasses.replace(result, **{field.name: FAILED})
        elif field.name == "certificates":
            for key in value:
                yield f"{name}[{key}]", dataclasses.replace(
                    result, certificates={**value, key: FAILED})
        elif isinstance(value, _Verdicts):
            for inner, failed in one_failed(value, name + "."):
                yield inner, dataclasses.replace(result, **{field.name: failed})


class TestVerdictsBase:
    """A result type's ``passed`` is the conjunction of every verdict it holds."""

    @pytest.fixture(scope="class")
    def results(self):
        """One passing result of every type that inherits the base, with the verdicts
        whose failure must fail it."""
        c2 = projection_example()
        f, env, ones = c2.frame, c2.env, multipliers.Symbol.ones(3)
        dual = duality.canonical_k_dual(f, env)
        e1 = np.array([1.0, 0.0])
        eye = OperatorEnv.from_matrix(np.eye(2))
        sides = multipliers.frames_from_multiplier_identity(
            multipliers.assemble_multiplier(ones, f, f), env)
        psi_h, phi_h, env_h = hand_inclusion_instance()
        right, left = multipliers.range_inclusion_inverses(psi_h, phi_h, env_h)
        return [
            (frames.validate_bounds(f, env, 1.0, 2.0), {"lower", "upper"}),
            (frames.tightness_check(Frame(np.eye(2)), eye), {"identity", "parseval"}),
            (duality.verify_k_dual(f, dual, env), {"identity"}),
            (duality.canonical_dual_bound_certificate(f, env, 1.0, 2.0), {"lower", "upper"}),
            (duality.minimal_norm_identity(f, env, e1, dual.analysis @ e1),
             {"pythagoras", "dual"}),
            (sides.phi_side, {"bound"}),
            (sides, {"phi_side.bound", "psi_side.bound"}),
            (multipliers.inverse_as_multiplier(f, dual, env, np.diag([1.0, 0.0]), "left", dual),
             {"identity", "certificates[inverse]", "certificates[dual_of_transported]"}),
            (multipliers.perturbation_right_inverse(f, f, env, ones, (1.0, 2.0), dual),
             {"identity", "certificates[condition]",
              "certificates[right_inverse_multiplier_form]"}),
            (right, {"identity", "certificates[inclusion]"}),
            (left, {"identity", "certificates[inclusion]"}),
            (multipliers.biorthogonal_right_inverse(
                *minimal_instance(np.random.default_rng(17))),
             {"forward.identity", "mirrored.identity"}),
        ]

    def test_every_result_type_is_covered(self, results):
        assert {type(result) for result, _ in results} == set(_Verdicts.__subclasses__())
        assert not hasattr(frames.FrameBounds, "passed")
        assert not hasattr(duality.WitnessReport, "passed")

    def test_one_failed_verdict_fails_the_result(self, results):
        for result, verdicts in results:
            assert result.passed is True, type(result).__name__
            failed = dict(one_failed(result))
            assert set(failed) == verdicts, type(result).__name__
            for name, copy in failed.items():
                assert copy.passed is False, (type(result).__name__, name)

    def test_none_sides_and_plain_numbers_do_not_count(self, results):
        sides = next(result for result, _ in results
                     if isinstance(result, multipliers.LowerBoundReport))
        assert dataclasses.replace(sides, psi_side=None).passed
        assert dataclasses.replace(sides, phi_side=None, psi_side=None).passed
        failed_phi = dataclasses.replace(sides.phi_side, bound=FAILED)
        assert not dataclasses.replace(sides, phi_side=failed_phi, psi_side=None).passed
        perturbed = next(result for result, verdicts in results
                         if "certificates[condition]" in verdicts)
        assert perturbed.diagnostics["distance"] == 0.0  # Psi is Phi
        assert dataclasses.replace(perturbed, diagnostics={"margin": 0.0,
                                                           "distance": -1.0}).passed


class TestMajorization:
    def test_identity(self):
        assert majorization_constant(np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_scaling(self):
        assert majorization_constant(2 * np.eye(3), np.eye(3)) == pytest.approx(2.0)

    def test_zero_into_zero(self):
        # R(0) is included in R(0): the least lambda is 0, with no core to factor
        assert majorization_constant(np.zeros((3, 2)), np.zeros((3, 4))) == 0.0

    def test_projection_example_lambda(self):
        s = 1.0 / np.sqrt(2.0)
        syn = np.array([[-s, -s, s], [s, s, s]])
        k = np.diag([1.0, 0.0])
        lam = majorization_constant(k, syn)
        assert lam == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)

    def test_lower_optimality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h, p, q = rng.integers(2, 7, size=3)
            l2 = crandn(rng, h, p)
            l1 = l2 @ crandn(rng, p, q)
            lam = majorization_constant(l1, l2)
            if lam <= 1e-2:
                continue
            g1 = l1 @ l1.conj().T
            g2 = l2 @ l2.conj().T
            shaved = min_eig((0.99 * lam) ** 2 * g2 - g1)
            assert shaved < -1e-12 * spectral_norm(l1) ** 2


class TestEigenvalueCrossCheck:
    """Each optimal bound is certified from both sides; a skewed lambda must raise."""

    @pytest.mark.parametrize(
        "scale, gate",
        [
            (1e-3, "majorization routes disagree"),  # lambda >> 1
            (1e3, "majorization routes disagree"),  # lambda << 1: the gate is relative
        ],
    )
    def test_k_frame_check(self, scale, gate, skewed_core_svd):
        from kframekit.frames import Frame, k_frame_check

        frame, env = random_k_frame(np.random.default_rng(41))
        with pytest.raises(InternalConsistencyError, match=gate):
            k_frame_check(Frame(scale * frame.vectors), env)

    def test_k_right_inverse(self, skewed_core_svd):
        from kframekit.frames import Frame
        from kframekit.multipliers import Symbol, assemble_multiplier, k_right_inverse

        rng = np.random.default_rng(43)
        phi = Frame(crandn(rng, 6, 4))
        mult = assemble_multiplier(Symbol.ones(6), phi, phi)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            k_right_inverse(mult, OperatorEnv.from_matrix(crandn(rng, 4, 4)))

    def test_majorization_constant(self, skewed_core_svd):
        rng = np.random.default_rng(47)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            majorization_constant(crandn(rng, 4, 3), crandn(rng, 4, 4))


def two_norm_majorization(a, b, f2, core, residual):
    """The oracle: lambda = |core| by its values-only SVD, with no certificate and no witness
    (unit norms in place of the witness's, which no comparison with the oracle reads)."""
    return spectral_norm(core), (1.0, 1.0, 1.0)


def majorization_outcome(fn):
    """``fn()`` as a float, or the message of the InternalConsistencyError it raises."""
    try:
        return fn()
    except InternalConsistencyError as exc:
        return f"raises: {exc}"


class TestGramCrossCheck:
    """lambda's two certificates: the witness ratio from below, the Douglas residual from
    above (the class keeps the name of the Gram pass the certificates replaced).

    The oracle is the two-norm route, lambda = |core| by a values-only SVD; lambda is the
    top singular value of an SVD with vectors of the same core, so it agrees to rounding.
    Faults are injected into lambda's core SVD (its singular values or its top singular
    vector) and into T_F's range basis U_r.
    """

    @pytest.fixture()
    def oracle(self, monkeypatch):
        from kframekit import frames, linalg, multipliers

        def install():
            for module in (linalg, frames, multipliers):
                monkeypatch.setattr(module, "_majorization", two_norm_majorization)

        return install

    @staticmethod
    def graded_outcomes(c):
        from kframekit.frames import Frame, k_frame_check

        outcomes = []
        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            k = syn @ x0
            outcomes.append((
                majorization_outcome(
                    lambda: k_frame_check(Frame(syn.T), OperatorEnv.from_matrix(k)).lower),
                majorization_outcome(lambda: majorization_constant(k, syn)),
            ))
        return outcomes

    @pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_graded_family_matches_the_two_norm_route(self, c, oracle):
        # no seed raises, and A and lambda are the oracle's to 64 eps relative
        got = self.graded_outcomes(c)
        oracle()
        for (lower, lam), (lower_oracle, lam_oracle) in zip(got, self.graded_outcomes(c)):
            assert lower == pytest.approx(lower_oracle, rel=64 * np.finfo(float).eps)
            assert lam == pytest.approx(lam_oracle, rel=64 * np.finfo(float).eps)

    @staticmethod
    def cross_checked_calls():
        """k_frame_check's A, k_right_inverse's lambda and majorization_constant, each on a
        fresh instance."""
        from kframekit.frames import Frame, k_frame_check
        from kframekit.multipliers import Symbol, assemble_multiplier, k_right_inverse

        def frame_check():
            frame, env = random_k_frame(np.random.default_rng(41))
            return k_frame_check(frame, env).lower

        def right_inverse():
            rng = np.random.default_rng(43)
            phi = Frame(crandn(rng, 6, 4))
            mult = assemble_multiplier(Symbol.ones(6), phi, phi)
            return k_right_inverse(mult, OperatorEnv.from_matrix(crandn(rng, 4, 4))).majorization

        def constant():
            rng = np.random.default_rng(47)
            return majorization_constant(crandn(rng, 4, 3), crandn(rng, 4, 4))

        return [frame_check, right_inverse, constant]

    def test_skew_below_the_gate_passes_with_the_same_lambda(self, monkeypatch):
        # a top singular vector turned by 1e-7 lowers the witness ratio by about 1e-14
        # relative, below the gate of 40 d kappa eps; lambda is still the core's s_1
        plain = [call() for call in self.cross_checked_calls()]
        skew_lambda_core(monkeypatch, turn=1e-7)
        assert [call() for call in self.cross_checked_calls()] == plain

    @pytest.mark.parametrize("call", range(3), ids=["k_frame_check", "k_right_inverse",
                                                    "majorization_constant"])
    def test_skew_above_the_gate_raises(self, monkeypatch, call):
        # lambda 1e-8 relative above its witness ratio
        skew_lambda_core(monkeypatch, values=1 + 1e-8)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            self.cross_checked_calls()[call]()

    @pytest.mark.parametrize("call", range(3), ids=["k_frame_check", "k_right_inverse",
                                                    "majorization_constant"])
    def test_turned_singular_vector_raises(self, monkeypatch, call):
        # a top singular vector turned by 1e-2 toward the second lowers the witness ratio
        # by about 5e-5 (1 - s_2^2 / s_1^2) relative; lambda itself is untouched
        skew_lambda_core(monkeypatch, turn=1e-2)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            self.cross_checked_calls()[call]()

    def test_turned_range_basis_raises(self, monkeypatch):
        # U_r of l2 (kappa ~ 10) turned by about 3e-13 within its span: the reconstruction
        # and Douglas residual gates (1e-10 relative) pass, and the Douglas residual puts
        # the upper certificate 1.9e-12 relative above lambda, five times the gate of
        # 40 d kappa eps (d = 4); the witness moves by under half the gate, so the upper
        # side alone decides
        from kframekit import linalg

        decompose = linalg.svd_decompose

        def turned(m):
            f = decompose(m)
            g = crandn(np.random.default_rng(0), f.rank, f.rank)
            turn = np.eye(f.rank) + 3e-13 * (g - g.conj().T)
            return SvdFactors(f.left_vectors @ turn, f.singular_values, f.right_vectors)

        monkeypatch.setattr(linalg, "svd_decompose", turned)
        rng = np.random.default_rng(47)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            majorization_constant(crandn(rng, 4, 3), crandn(rng, 4, 4))

    def test_residual_outside_the_range_leaves_the_upper_certificate(self):
        # L2 of rank 3 < 6 rows and L1 1e-9 relative outside R(L2): the inclusion passes
        # at tol = 1e-6, and E's part outside R(L2), which L2^+ annihilates, would put
        # |E|_F / sigma_r 2e4 times over the gate; the upper certificate reads U_r* E, so
        # lambda is that of L1's projection
        rng = np.random.default_rng(5)
        l2 = crandn(rng, 6, 3) @ crandn(rng, 3, 8)
        l1 = l2 @ crandn(rng, 8, 4)
        basis = svd_decompose(l2).left_vectors[:, :3]
        noise = crandn(rng, 6, 4)
        outside = noise - basis @ (basis.conj().T @ noise)
        moved = l1 + 1e-9 * spectral_norm(l1) * outside / spectral_norm(outside)
        lam = majorization_constant(moved, l2, tol=1e-6)
        assert lam == pytest.approx(majorization_constant(l1, l2), rel=1e-12)

    def test_gate_keeps_its_margin_as_the_dimension_grows(self, monkeypatch):
        # a K-frame of the benchmark's largest size (n = 256, N = 384, rank 128): the
        # upper certificate's gap grows with the dimension (about 33 kappa eps lambda here,
        # 178 at n = 2048), so a gate without d would be crossed at large n; here both
        # certificates hold at an eighth of the gate of 40 d kappa eps lambda (d = 384)
        from kframekit import linalg
        from kframekit.frames import Frame, k_frame_check

        rng = np.random.default_rng(1)
        syn = crandn(rng, 256, 384)
        x = crandn(rng, 384, 128) @ crandn(rng, 128, 256)
        k = syn @ (x / spectral_norm(x))
        monkeypatch.setattr(linalg, "_CERTIFICATE", linalg._CERTIFICATE / 8)
        lower = k_frame_check(Frame(syn.T), OperatorEnv.from_matrix(k)).lower
        assert majorization_constant(k, syn) == pytest.approx(lower**-0.5, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_lambda_squared_outside_the_normal_range_takes_both_norms(
            self, scale, oracle, norm_svds, monkeypatch):
        # lambda^2 is subnormal at 1e-160 and inf at 1e160; both certificates' norms are
        # taken after normalizing, so lambda is the oracle's, the only norm(., 2) is |l1|,
        # and a skew still raises
        rng = np.random.default_rng(47)
        l1, l2 = scale * crandn(rng, 4, 3), crandn(rng, 4, 4)
        lam = majorization_constant(l1, l2)
        assert [a.shape for a in norm_svds] == [(4, 3)]
        assert lam == pytest.approx(scale * majorization_constant(l1 / scale, l2), rel=1e-12)
        with monkeypatch.context() as patched:
            skew_lambda_core(patched, values=1 + 1e-8)
            with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
                majorization_constant(l1, l2)
        oracle()
        assert majorization_constant(l1, l2) == pytest.approx(lam, rel=64 * np.finfo(float).eps)

    def test_overflowed_lambda_squared_with_a_finite_gram_still_catches_a_skew(
            self, skewed_core_svd):
        # lambda = |5e153 * ones(4, 4)| = 2e154, so lambda^2 = inf while the Gram entries
        # 4 * (5e153)^2 = 1e308 are finite; the certificates form no square
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            majorization_constant(np.full((4, 4), 5e153), np.eye(4))


class TestIllConditionedDual:
    """The canonical K-dual and what is built on it keep up as kappa(T_F) grows.

    Restrictions of S_F (or of a multiplier) to a range are applied in factored
    order on T_F's one SVD, so the dual's identity residual stays within
    1e3 eps |K| on the graded family; forming S_F = T_F T_F* squared kappa and
    failed ``verify_k_dual`` from c = 1e-6 on. c = 1e-10 joined once lambda's
    gate scaled with kappa(T_F): under a fixed 5e-9 agreement gate ``k_frame_check``
    raised there on 15 of these 20 seeds, whichever way the dual was built.
    """

    @pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_graded_family(self, c, tmp_path, capsys):
        from kframekit import io
        from kframekit.cli import main
        from kframekit.duality import (
            canonical_coefficients,
            canonical_dual_bound_certificate,
            canonical_k_dual,
            minimal_norm_identity,
            reciprocal_dual,
            verify_k_dual,
        )
        from kframekit.frames import Frame, k_frame_check
        from kframekit.multipliers import Symbol, perturbation_k_dual

        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
            dual = canonical_k_dual(f, env)
            cert = verify_k_dual(f, dual, env)
            assert cert.passed
            assert cert.residual <= 1e3 * np.finfo(float).eps * env.norm()
            target = crandn(np.random.default_rng(seed), 20)
            d = canonical_coefficients(f, env, target)
            assert minimal_norm_identity(f, env, target, d).passed
            assert reciprocal_dual(f, env).passed
            bounds = k_frame_check(f, env)
            assert canonical_dual_bound_certificate(f, env, bounds.lower, bounds.upper).passed
            # the perturbed construction at Psi = Phi, m = 1 inverts S_F itself
            ones = Symbol.ones(f.size)
            assert perturbation_k_dual(f, f, env, ones, (bounds.lower, bounds.upper)).passed
            io.write_file(tmp_path / "frame.json", io.frame_to_obj(f))
            io.write_file(tmp_path / "k.json", io.matrix_to_obj(env.k))
            code = main(["dual", "--frame", str(tmp_path / "frame.json"),
                         "--operator", str(tmp_path / "k.json")])
            capsys.readouterr()
            assert code == 0

    @pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8])
    def test_dual_factors_lift_off_its_core(self, c):
        # T_G = V_k C V_r*: the SVD of the k x r core, lifted by V_k and V_r, is T_G's
        from kframekit.duality import canonical_k_dual
        from kframekit.frames import Frame, _factors, k_frame_check

        eps = np.finfo(float).eps
        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
            dual = canonical_k_dual(f, env)
            fac = _factors(dual)
            r = fac.rank
            lifted = (fac.left_vectors * fac.singular_values[:r]) @ fac.right_vectors.conj().T
            scale = np.linalg.norm(dual.synthesis)
            assert np.linalg.norm(lifted - dual.synthesis) <= 100 * eps * scale
            # the K*-frame check reads the core C against Sigma_k; a dense copy reads T_G
            core = k_frame_check(dual, env.adjoint())
            plain = k_frame_check(Frame(dual.vectors.copy()), env.adjoint())
            assert core.inclusion.residual == 0.0
            assert core.lower == pytest.approx(plain.lower, rel=1e-12)
            assert core.upper == pytest.approx(plain.upper, rel=1e-12)

    def test_lifted_factors_are_gated_against_the_vectors(self):
        # a form whose Q is not orthonormal does not reconstruct the stored vectors
        from kframekit.duality import canonical_k_dual
        from kframekit.frames import Frame, _factored, _factors

        syn, x0, _ = graded_instance(0, 1e-4)
        f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
        q, core, v = canonical_k_dual(f, env)._form
        skewed = _factored(q, core, v)
        object.__setattr__(skewed, "_form", (1.01 * q, core, v))
        with pytest.raises(InternalConsistencyError, match="reconstruction"):
            _factors(skewed)

    @pytest.mark.parametrize("count, tail", [(2, 1e-13), (384, 3e-10)])
    def test_lift_of_a_rank_cut_core_frame(self, count, tail):
        # T_F = [diag(1, tail), 0] (2 x count) is cut to rank 1; the P_K F frame lifts
        # the coordinates frame's cut SVD and reconstructs its vectors up to the dropped
        # tail, which at count = 384 is above IDENTITY_TOL |T_F| and below the cutoff
        from kframekit.frames import Frame, _factors
        from kframekit.multipliers import _projected

        vectors = np.zeros((count, 2))
        vectors[:2] = np.diag([1.0, tail])
        f, env = Frame(vectors), OperatorEnv.from_matrix(np.eye(2))
        lifted = _factors(_projected(f, env))
        assert lifted.rank == 1 and lifted.left_vectors.shape == (2, 1)
        np.testing.assert_array_equal(lifted.singular_values, _factors(f).singular_values)

    @pytest.mark.parametrize("c", [1e-3, 1e-4])
    def test_range_inclusion_left_inverse(self, c):
        # Psi = F and Phi = {K* f_i}: R(T_Phi*) = R(T_Psi* K), and Phi spans R(K*)
        from kframekit.frames import Frame
        from kframekit.multipliers import range_inclusion_left_inverse

        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            env = OperatorEnv.from_matrix(syn @ x0)
            psi, phi = Frame(syn.T), Frame((env.k_adjoint @ syn).T)
            out = range_inclusion_left_inverse(psi, phi, env)
            assert out.passed
            if c == 1e-4:  # the adjoint form applies U_r itself, not T_Psi V_r Sigma^-1
                assert out.identity.residual <= 1e4 * np.finfo(float).eps * env.norm() ** 2

    @pytest.mark.parametrize("c", [1e-6, 1e-8])
    def test_perturbation_right_inverse(self, c):
        # Psi = Phi, m = 1 and the K-dual T_G* = X0: the adjoint restriction of S_Phi
        from kframekit.frames import Frame, k_frame_check
        from kframekit.multipliers import Symbol, perturbation_right_inverse

        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
            bounds = (0.999 * k_frame_check(f, env).lower, 1.001 * k_frame_check(f, env).upper)
            out = perturbation_right_inverse(f, f, env, Symbol.ones(f.size), bounds,
                                             Frame(x0.conj()))
            assert out.passed


def restricted_inverse(s, basis: np.ndarray) -> np.ndarray:
    """(s|_V)^-1 P_{s(V)} as a matrix, V spanned by the orthonormal columns of ``basis``,
    from the factored kernel with L = s and R = I.

    The kernel's adjoint form gives the adjoint matrix: U_r (B^+)* Q*.
    """
    f = svd_decompose(s)
    r = f.rank
    operand = f.singular_values[:r, None] * (f.right_vectors[:, :r].conj().T @ basis)
    return _restricted_inverse(f, svd_decompose(operand)).apply_adjoint(basis.conj().T).conj().T


class TestRestrictedInverse:
    def test_identity_full_space(self):
        inverse = restricted_inverse(np.eye(3), np.eye(3))
        np.testing.assert_allclose(inverse, np.eye(3), atol=1e-14)

    def test_projection_example(self):
        inverse = restricted_inverse(S2, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(
            inverse @ np.array([1.5, -0.5]), [1.0, 0.0], atol=1e-13
        )

    def test_c4_identity_on_range(self):
        k = OperatorEnv.from_matrix(c4_operator())
        s = np.diag([1.0, 1.0, 1.0, 0.0])
        basis = k.range_basis
        inverse = restricted_inverse(s, basis)
        np.testing.assert_allclose(inverse @ s @ basis, basis, atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = crandn(rng, n, n)
            s = a @ a.conj().T + 0.1 * np.eye(n)
            dim = int(rng.integers(1, n + 1))
            q, _ = np.linalg.qr(crandn(rng, n, dim))
            inverse = restricted_inverse(s, q)
            np.testing.assert_allclose(inverse @ (s @ q), q, atol=1e-9)

    def test_collapse_raises(self):
        with pytest.raises(RankDeficientRestriction):
            restricted_inverse(np.diag([1.0, 0.0]), np.array([[0.0], [1.0]]))

    def test_frame_operator_norm_envelope(self):
        # on S_F(R(K)), the inverse obeys 1/B <= |inv f|/|f| <= |Kdag|^2 / A
        rng = np.random.default_rng(19)
        for _ in range(10):
            from kframekit.frames import k_frame_check

            frame, env = random_k_frame(rng)
            bounds = k_frame_check(frame, env)
            inverse = restricted_inverse(frame.frame_operator, env.range_basis)
            for _ in range(5):
                y = frame.frame_operator @ range_projector(env) @ crandn(rng, env.dim)
                norm_y = np.linalg.norm(y)
                if norm_y < 1e-9:
                    continue
                ratio = np.linalg.norm(inverse @ y) / norm_y
                assert ratio >= 1.0 / bounds.upper * (1 - 1e-9)
                assert ratio <= env.pinv_norm() ** 2 / bounds.lower * (1 + 1e-9)


class TestOperatorEnv:
    def test_pinv_and_projectors(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            rank = int(rng.integers(0, n + 1))
            k = crandn(rng, n, rank) @ crandn(rng, rank, n) if rank else np.zeros((n, n))
            env = OperatorEnv.from_matrix(k)
            scale = 1e-10 * max(1.0, env.norm())
            pinv = env.factors.pinv()
            assert spectral_norm(env.k @ pinv @ env.k - env.k) <= scale
            assert spectral_norm(env.k @ pinv - range_projector(env)) <= scale
            assert spectral_norm(pinv @ env.k - range_projector(env.adjoint())) <= scale

    def test_adjoint_swaps(self):
        rng = np.random.default_rng(29)
        k = crandn(rng, 5, 2) @ crandn(rng, 2, 5)
        env = OperatorEnv.from_matrix(k)
        adj = env.adjoint()
        np.testing.assert_allclose(adj.k, env.k_adjoint)
        np.testing.assert_allclose(range_projector(adj), env.factors.pinv() @ k, atol=1e-12)
        np.testing.assert_allclose(adj.adjoint().k, env.k)

    def test_zero_operator(self):
        env = OperatorEnv.from_matrix(np.zeros((3, 3)))
        assert env.rank == 0 and env.range_basis.shape == (3, 0)

    @pytest.mark.parametrize("rank", [6, 3, 0])
    def test_derived_arrays_match_numpy(self, rank):
        rng = np.random.default_rng(37 + rank)
        n = 6
        k = crandn(rng, n, rank) @ crandn(rng, rank, n) if rank else np.zeros((n, n))
        env = OperatorEnv.from_matrix(k)
        pinv = np.linalg.pinv(k, rcond=1e-10)
        adj = env.adjoint()
        assert env.rank == adj.rank == rank
        assert env.range_basis.shape == adj.range_basis.shape == (n, rank)
        np.testing.assert_array_equal(env.k_adjoint, k.conj().T)
        np.testing.assert_array_equal(adj.k, k.conj().T)
        np.testing.assert_allclose(env.factors.pinv(), pinv, atol=1e-12)
        np.testing.assert_allclose(adj.factors.pinv(), pinv.conj().T, atol=1e-12)
        np.testing.assert_allclose(range_projector(env), k @ pinv, atol=1e-12)
        np.testing.assert_allclose(range_projector(adj), pinv @ k, atol=1e-12)
        # the projectors see only U_k U_k*; the bases themselves are orthonormal
        for basis in (env.range_basis, adj.range_basis):
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(rank), atol=1e-12)
        assert env.norm() == adj.norm() == pytest.approx(np.linalg.norm(k, 2), rel=1e-12)
        expected = np.linalg.norm(pinv, 2) if rank else 0.0
        assert env.pinv_norm() == adj.pinv_norm() == pytest.approx(expected, rel=1e-12)
        # U_k Sigma_k = K V_k, V_k Sigma_k = K* U_k, and Sigma_k = U_k* K V_k
        u, v = env.range_basis, adj.range_basis
        assert env.range_factor.shape == adj.range_factor.shape == (n, rank)
        np.testing.assert_allclose(env.range_factor, k @ v, atol=1e-12)
        np.testing.assert_allclose(adj.range_factor, k.conj().T @ u, atol=1e-12)
        coords = env.range_coordinates
        assert (coords.dim, coords.rank) == (rank, rank)
        np.testing.assert_allclose(coords.k, u.conj().T @ k @ v, atol=1e-12)
        if rank:
            assert (coords.norm(), coords.pinv_norm()) == (env.norm(), env.pinv_norm())
        assert env.range_coordinates is coords
        assert not (env.range_factor.flags.writeable or coords.k.flags.writeable)
        arrays = (
            env.k, env.k_adjoint, env.range_basis, adj.range_basis,
            env.factors.left_vectors, env.factors.singular_values, env.factors.right_vectors,
        )
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 9.0

    def test_carriers_are_read_only(self):
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        for arr in (env.k, env.range_basis, env.adjoint().range_basis):
            with pytest.raises(ValueError):
                arr[0, 0] = 9.0


class TestRangeIdentity:
    """``range_identity_check`` passes a K-right or K-left inverse and fails a non-inverse."""

    @pytest.mark.parametrize("right", [False, True])
    def test_fails_a_matrix_that_is_not_an_inverse(self, right):
        rng = np.random.default_rng(41)
        m, k = crandn(rng, 6, 6), crandn(rng, 6, 3) @ crandn(rng, 3, 6)
        env = OperatorEnv.from_matrix(k)
        inverse = k @ np.linalg.inv(m) if right else np.linalg.inv(m) @ k  # L M = K, M R = K
        wrong = inverse + 1e-6 * crandn(rng, 6, 6)
        factors = (lambda x: (x, m)) if right else (lambda x: (m, x))
        assert range_identity_check(env, *factors(inverse), right=right)
        check = range_identity_check(env, *factors(wrong), right=right)
        assert not check.ok and check.residual > 1e3 * check.threshold


def test_douglas_equivalence_classes():
    # three equivalent conditions agree on both constructed classes
    from tests_support_douglas import douglas_predicates, inclusion_instance, non_inclusion_instance

    rng = np.random.default_rng(31)
    for _ in range(25):
        l1, l2 = inclusion_instance(rng)
        assert douglas_predicates(l1, l2) == (True, True, True)
        l1, l2 = non_inclusion_instance(rng)
        assert douglas_predicates(l1, l2) == (False, False, False)


from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@seed(1)
@settings(max_examples=60, deadline=None)
@given(
    re=arrays(np.float64, (4, 3), elements=finite),
    im=arrays(np.float64, (4, 3), elements=finite),
)
def test_pinv_and_projector_invariants_hypothesis(re, im):
    m = re + 1j * im
    p = svd_decompose(m).pinv()
    assert spectral_norm(m @ p @ m - m) <= 1e-10 * max(1.0, spectral_norm(m))
    assert spectral_norm(p @ m @ p - p) <= 1e-10 * max(1.0, spectral_norm(p))
    proj = projector_onto_range(m)
    assert spectral_norm(proj @ proj - proj) <= 1e-10
    assert spectral_norm(proj @ m - m) <= 1e-10 * max(1.0, spectral_norm(m))
