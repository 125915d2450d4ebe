"""Kernel: SVD, pseudo-inverse, projectors, factorization, restricted maps."""

import numpy as np
import pytest
from conftest import crandn, projector_onto_range, random_k_frame

from kframekit.errors import (
    InternalConsistencyError,
    NonFiniteInput,
    NotInvertible,
    RangeNotIncluded,
    RankDeficientRestriction,
    ShapeMismatch,
)
from kframekit.linalg import (
    OperatorEnv,
    Subspace,
    _within,
    douglas_solve,
    majorization_constant,
    min_eig,
    neumann_invertibility_margin,
    range_inclusion_check,
    restricted_inverse,
    spectral_norm,
    svd_decompose,
)

S2 = np.array([[1.5, -0.5], [-0.5, 1.5]])


def graded_instance(seed: int, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, X0, pinv(T) T X0) with T = U diag(geomspace(1, c, 20)) V* (20 x 30).

    X0 has rank 10 and pinv(T) T X0 = V V* X0 exactly, so the oracle
    involves no ill-conditioning; kappa(T) = 1/c.
    """
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(crandn(rng, 20, 20))[0]
    v = np.linalg.qr(crandn(rng, 30, 20))[0]
    syn = (u * np.geomspace(1.0, c, 20)) @ v.conj().T
    x0 = crandn(rng, 30, 10) @ crandn(rng, 10, 20)
    return syn, x0, v @ (v.conj().T @ x0)


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
            assert np.linalg.norm(f.reconstruct() - m) <= 1e-10 * max(1, np.linalg.norm(m))


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
            sub = Subspace(m.shape[0], f.left_vectors[:, : f.rank])
            p = sub.projector()
            scale = 1e-10 * max(1.0, spectral_norm(m))
            assert spectral_norm(p - p.conj().T) <= scale
            assert spectral_norm(p @ p - p) <= scale
            assert spectral_norm(p @ m - m) <= scale
            assert sub.dim == svd_decompose(m).rank


class TestRangeInclusion:
    def test_identity_pair(self):
        assert range_inclusion_check(np.eye(2), np.eye(2))

    def test_identity_vs_zero(self):
        assert not range_inclusion_check(np.eye(2), np.zeros((2, 2)))

    def test_c4_example(self):
        assert range_inclusion_check(c4_operator(), c4_synthesis())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            range_inclusion_check(np.eye(2), np.eye(3))

    def test_residual_reported(self):
        check = range_inclusion_check(np.eye(2), np.diag([1.0, 0.0]))
        assert not check.ok
        assert check.residual == pytest.approx(1.0)


class TestDouglas:
    def test_identity(self):
        np.testing.assert_allclose(douglas_solve(np.eye(2), np.eye(2)), np.eye(2), atol=1e-14)

    def test_c4_hand_solution(self):
        x = douglas_solve(c4_operator(), c4_synthesis())
        expected = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_not_included(self):
        with pytest.raises(RangeNotIncluded):
            douglas_solve(np.array([[1.0], [0.0]]), np.zeros((2, 2)))

    def test_minimal_norm_row_space(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h, p, q = rng.integers(2, 7, size=3)
            l2 = crandn(rng, h, p)
            l1 = l2 @ crandn(rng, p, q)
            x = douglas_solve(l1, l2)
            proj = projector_onto_range(l2.conj().T)
            assert spectral_norm(proj @ x - x) <= 1e-10 * max(1.0, spectral_norm(x))

    @pytest.mark.parametrize("c", [1e-8, 1e-9])
    def test_ill_conditioned_solution_matches_the_oracle(self, c):
        # a formed pinv(T) times K would miss the residual gate on every seed
        for seed in range(20):
            syn, x0, oracle = graded_instance(seed, c)
            x = douglas_solve(syn @ x0, syn)
            err = spectral_norm(x - oracle) / spectral_norm(oracle)
            assert err <= 10 * np.finfo(float).eps / c


class TestIllConditionedMajorization:
    """The cross-check keeps up with the Douglas route as kappa(T_F) grows.

    A cross-check on the Gram matrices squares kappa and disagrees with the
    Douglas route by more than its 1e-8 gate from c = 1e-5 on (2 of 20 seeds
    there, all from 1e-6), and underflows at small input scales.
    """

    @pytest.mark.parametrize("c", [1e-5, 1e-6, 1e-8])
    def test_bounds_match_the_oracle(self, c):
        from kframekit.frames import Frame, k_frame_check

        for seed in range(20):
            syn, x0, oracle = graded_instance(seed, c)
            k = syn @ x0
            lam = spectral_norm(oracle)
            lower = k_frame_check(Frame(syn.T), OperatorEnv.from_matrix(k)).lower
            assert abs(lower * lam**2 - 1.0) <= 10 * np.finfo(float).eps / c
            assert abs(majorization_constant(k, syn) / lam - 1.0) <= 10 * np.finfo(float).eps / c

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


class TestResidualGate:
    """``_within`` decides |R|_2 <= threshold, on |R|_F where that settles it."""

    R = np.diag([3.0, 4.0])  # |R|_2 = 4, |R|_F = 5, |R|_F / sqrt(2) = 3.54

    @pytest.fixture()
    def norm_svds(self, monkeypatch):
        calls = []
        svd = np.linalg._linalg.svd  # the binding np.linalg.norm(., 2) calls

        def counted(a, *args, **kwargs):
            calls.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        return calls

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


class TestMajorization:
    def test_identity(self):
        assert majorization_constant(np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_scaling(self):
        assert majorization_constant(2 * np.eye(3), np.eye(3)) == pytest.approx(2.0)

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
    """Each optimal bound has one cross-check, the QR route; skewing it must raise."""

    @pytest.mark.parametrize(
        "scale, gate",
        [
            (1e-3, "majorization routes disagree"),  # lambda >> 1
            (1e3, "majorization routes disagree"),  # lambda << 1: the gate is relative
        ],
    )
    def test_k_frame_check(self, scale, gate, skewed_qr):
        from kframekit.frames import k_frame_check

        frame, env = random_k_frame(np.random.default_rng(41))
        with pytest.raises(InternalConsistencyError, match=gate):
            k_frame_check(frame.scaled(scale), env)

    def test_k_right_inverse(self, skewed_qr):
        from kframekit.frames import Frame
        from kframekit.multipliers import Symbol, assemble_multiplier, k_right_inverse

        rng = np.random.default_rng(43)
        phi = Frame(crandn(rng, 6, 4))
        mult = assemble_multiplier(Symbol.ones(6), phi, phi)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            k_right_inverse(mult, OperatorEnv.from_matrix(crandn(rng, 4, 4)))

    def test_majorization_constant(self, skewed_qr):
        rng = np.random.default_rng(47)
        with pytest.raises(InternalConsistencyError, match="majorization routes disagree"):
            majorization_constant(crandn(rng, 4, 3), crandn(rng, 4, 4))


class TestRestrictedInverse:
    def test_identity_full_space(self):
        rmap = restricted_inverse(np.eye(3), Subspace(3, np.eye(3)))
        np.testing.assert_allclose(rmap.matrix, np.eye(3), atol=1e-14)

    def test_projection_example(self):
        sub = Subspace(2, np.array([[1.0], [0.0]]))
        rmap = restricted_inverse(S2, sub)
        np.testing.assert_allclose(
            rmap.matrix @ np.array([1.5, -0.5]), [1.0, 0.0], atol=1e-13
        )

    def test_c4_identity_on_range(self):
        k = OperatorEnv.from_matrix(c4_operator())
        s = np.diag([1.0, 1.0, 1.0, 0.0])
        rmap = restricted_inverse(s, k.range_k)
        basis = k.range_k.basis
        np.testing.assert_allclose(rmap.matrix @ s @ basis, basis, atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = crandn(rng, n, n)
            s = a @ a.conj().T + 0.1 * np.eye(n)
            dim = int(rng.integers(1, n + 1))
            q, _ = np.linalg.qr(crandn(rng, n, dim))
            sub = Subspace(n, q)
            rmap = restricted_inverse(s, sub)
            np.testing.assert_allclose(rmap.matrix @ (s @ q), q, atol=1e-9)

    def test_collapse_raises(self):
        sub = Subspace(2, np.array([[0.0], [1.0]]))
        with pytest.raises(RankDeficientRestriction):
            restricted_inverse(np.diag([1.0, 0.0]), sub)

    def test_frame_operator_norm_envelope(self):
        # on S_F(R(K)), the inverse obeys 1/B <= |inv f|/|f| <= |Kdag|^2 / A
        rng = np.random.default_rng(19)
        for _ in range(10):
            from kframekit.frames import k_frame_check

            frame, env = random_k_frame(rng)
            bounds = k_frame_check(frame, env)
            rmap = restricted_inverse(frame.frame_operator, env.range_k)
            for _ in range(5):
                y = rmap.domain.projector() @ crandn(rng, env.dim)
                norm_y = np.linalg.norm(y)
                if norm_y < 1e-9:
                    continue
                ratio = np.linalg.norm(rmap.matrix @ y) / norm_y
                assert ratio >= 1.0 / bounds.upper * (1 - 1e-9)
                assert ratio <= env.pinv_norm() ** 2 / bounds.lower * (1 + 1e-9)


class TestNeumannMargin:
    def test_rank_one_bump(self):
        t = np.eye(2)
        u = np.eye(2) + 0.5 * np.outer([1.0, 0.0], [1.0, 0.0])
        report = neumann_invertibility_margin(t, u)
        assert report.margin == pytest.approx(1.0)
        assert report.distance == pytest.approx(0.5)
        assert report.invertible and report.settled_by == "margin"

    def test_equal_operators(self):
        report = neumann_invertibility_margin(np.diag([2.0, 1.0]), np.diag([2.0, 1.0]))
        assert report.distance == 0.0 and report.invertible

    def test_diagonal_margin(self):
        t = np.diag([1.0, 0.1])
        u = t + 0.05 * np.outer([0.0, 1.0], [0.0, 1.0])
        report = neumann_invertibility_margin(t, u)
        assert report.margin == pytest.approx(0.1)
        assert report.distance == pytest.approx(0.05)
        assert report.invertible and report.settled_by == "margin"

    def test_rank_fallback(self):
        # distance >= margin but the perturbed operator is still invertible
        report = neumann_invertibility_margin(np.eye(2), 3.0 * np.eye(2))
        assert report.settled_by == "rank" and report.invertible
        report = neumann_invertibility_margin(np.eye(2), np.diag([1.0, 0.0]))
        assert report.settled_by == "rank" and not report.invertible

    def test_singular_base_raises(self):
        with pytest.raises(NotInvertible):
            neumann_invertibility_margin(np.diag([1.0, 0.0]), np.eye(2))


class TestOperatorEnv:
    def test_pinv_and_projectors(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            rank = int(rng.integers(0, n + 1))
            k = crandn(rng, n, rank) @ crandn(rng, rank, n) if rank else np.zeros((n, n))
            env = OperatorEnv.from_matrix(k)
            scale = 1e-10 * max(1.0, env.norm())
            assert spectral_norm(env.k @ env.k_pinv @ env.k - env.k) <= scale
            assert spectral_norm(env.k @ env.k_pinv - env.proj_range_k) <= scale
            assert spectral_norm(env.k_pinv @ env.k - env.proj_range_k_adjoint) <= scale

    def test_adjoint_swaps(self):
        rng = np.random.default_rng(29)
        k = crandn(rng, 5, 2) @ crandn(rng, 2, 5)
        env = OperatorEnv.from_matrix(k)
        adj = env.adjoint()
        np.testing.assert_allclose(adj.k, env.k_adjoint)
        np.testing.assert_allclose(adj.proj_range_k, env.proj_range_k_adjoint)
        np.testing.assert_allclose(adj.adjoint().k, env.k)

    def test_zero_operator(self):
        env = OperatorEnv.from_matrix(np.zeros((3, 3)))
        assert env.is_zero() and env.rank == 0

    @pytest.mark.parametrize("rank", [6, 3, 0])
    def test_derived_arrays_match_numpy(self, rank):
        rng = np.random.default_rng(37 + rank)
        n = 6
        k = crandn(rng, n, rank) @ crandn(rng, rank, n) if rank else np.zeros((n, n))
        env = OperatorEnv.from_matrix(k)
        pinv = np.linalg.pinv(k, rcond=1e-10)
        adj = env.adjoint()
        assert env.rank == adj.rank == rank
        assert env.range_k.dim == adj.range_k.dim == rank
        np.testing.assert_array_equal(env.k_adjoint, k.conj().T)
        np.testing.assert_array_equal(adj.k, k.conj().T)
        np.testing.assert_allclose(env.k_pinv, pinv, atol=1e-12)
        np.testing.assert_allclose(adj.k_pinv, pinv.conj().T, atol=1e-12)
        np.testing.assert_allclose(env.proj_range_k, k @ pinv, atol=1e-12)
        np.testing.assert_allclose(env.proj_range_k_adjoint, pinv @ k, atol=1e-12)
        np.testing.assert_allclose(env.range_k.projector(), k @ pinv, atol=1e-12)
        np.testing.assert_allclose(adj.range_k.projector(), pinv @ k, atol=1e-12)
        assert env.norm() == adj.norm() == pytest.approx(np.linalg.norm(k, 2), rel=1e-12)
        expected = np.linalg.norm(pinv, 2) if rank else 0.0
        assert env.pinv_norm() == adj.pinv_norm() == pytest.approx(expected, rel=1e-12)
        arrays = (
            env.k, env.k_adjoint, env.k_pinv, env.proj_range_k, env.proj_range_k_adjoint,
            env.range_k.basis, adj.range_k.basis, adj.k_pinv,
            env.factors.left_vectors, env.factors.singular_values, env.factors.right_vectors,
        )
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 9.0

    def test_carriers_are_read_only(self):
        env = OperatorEnv.from_matrix(np.diag([1.0, 0.0]))
        for arr in (env.k, env.k_pinv, env.proj_range_k, env.range_k.basis):
            with pytest.raises(ValueError):
                arr[0, 0] = 9.0


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
