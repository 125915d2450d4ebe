"""Shared instance generators for the property suites.

Everything is seeded through numpy Generators passed in explicitly, so the
suites are deterministic. Generators resample until the instance is well
conditioned (smallest kept singular value at least ``COND_FLOOR`` times the
largest), keeping the fixed tolerances honest rather than calibrated.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from kframekit import Frame, OperatorEnv
from kframekit.linalg import SvdFactors, svd_decompose
from kframekit.multipliers import Multiplier
from kframekit.worked import minimal_example, projection_example

COND_FLOOR = 1e-3


def skew_lambda_core(monkeypatch, values: float = 1.0, turn: float = 0.0) -> None:
    """Skew the SVD that ``linalg._majorization`` takes of lambda's core: scale its singular
    values by ``values`` and turn its top left singular vector by the angle ``turn`` toward
    the second. Every other SVD is left as it is."""
    svd = np.linalg.svd

    def skewed(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name != "_majorization":
            return svd(a, *args, **kwargs)
        u, s, vh = svd(a, *args, **kwargs)
        if turn:
            u = u.copy()
            u[:, 0] = np.cos(turn) * u[:, 0] + np.sin(turn) * u[:, 1]
        return u, s * values, vh

    monkeypatch.setattr(np.linalg, "svd", skewed)


def skew_call(monkeypatch, module, name: str, caller: str, skew) -> None:
    """Pass what ``module.name`` returns to the function ``caller`` through ``skew``. Every
    other call of it is left as it is."""
    call = getattr(module, name)

    def skewed(*args, **kwargs):
        out = call(*args, **kwargs)
        return skew(out) if sys._getframe(1).f_code.co_name == caller else out

    monkeypatch.setattr(module, name, skewed)


@pytest.fixture()
def skewed_core_svd(monkeypatch):
    """Scale the singular values of every SVD of lambda's core by 1 + 1e-7.

    lambda then exceeds its witness ratio, a lower bound, by 1e-7 relative, far above
    the 40 d kappa eps relative gate (d <= 12) at the kappa <= 1e3 of the instances it is
    used on.
    """
    skew_lambda_core(monkeypatch, values=1 + 1e-7)


@pytest.fixture()
def skewed_multiplier_svd(monkeypatch):
    """Scale the singular values every multiplier's SVD returns by 1 + 1e-7.

    M_{1,F,F} = S_F meets its Bessel bound B_F, so its skewed norm exceeds the
    bound by 1e-7 relative, a thousand times the default gate of 1e-10.
    """
    factors = Multiplier._factors

    def skewed(self):
        f = factors(self)
        return SvdFactors(f.left_vectors, f.singular_values * (1 + 1e-7), f.right_vectors)

    monkeypatch.setattr(Multiplier, "_factors", skewed)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def positive_singulars(m: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return np.array([])
    return s[s > s[0] * max(m.shape) * 2.0 ** -40]


def projector_onto_range(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto R(m), from the range basis of its SVD."""
    f = svd_decompose(m)
    basis = f.left_vectors[:, : f.rank]
    return basis @ basis.conj().T


def range_projector(env: OperatorEnv) -> np.ndarray:
    """U_k U_k*, the orthogonal projector onto R(K), from ``env.range_basis``."""
    basis = env.range_basis
    return basis @ basis.conj().T


def well_conditioned(m: np.ndarray, rank: int | None = None) -> bool:
    s = positive_singulars(m)
    if s.size == 0:
        return False
    if rank is not None and s.size != rank:
        return False
    return float(s[-1] / s[0]) >= COND_FLOOR


def random_rank_matrix(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Random n x n complex matrix of exact rank ``rank``, well conditioned."""
    while True:
        k = crandn(rng, n, rank) @ crandn(rng, rank, n)
        if well_conditioned(k, rank):
            return k


def random_k_frame(
    rng: np.random.Generator,
    n_max: int = 8,
    size_max: int = 12,
    kernel_room: bool = True,
) -> tuple[Frame, OperatorEnv]:
    """Random K-frame: R(K) inside R(T_F) by construction.

    ``kernel_room`` keeps the index count above rank(K), so the projected
    analysis operator has a nontrivial kernel (needed by the dual-family
    suites).
    """
    while True:
        n = int(rng.integers(2, n_max + 1))
        rank = int(rng.integers(1, n + 1))
        low = rank + 1 if kernel_room else max(rank, 2)
        if low > size_max:
            continue
        count = int(rng.integers(low, size_max + 1))
        syn = crandn(rng, n, count)
        k = syn @ (crandn(rng, count, rank) @ crandn(rng, rank, n))
        if not well_conditioned(syn) or not well_conditioned(k, rank):
            continue
        return Frame(syn.T), OperatorEnv.from_matrix(k)


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


def weak_direction_instance(c: float) -> tuple[Frame, OperatorEnv]:
    """T_F = U diag(geomspace(1, c, 6)) V* (6 x 9) and K = u_6 u_6*, along T_F's least
    singular direction: exactly A = c^2 and B = 1, and A |K|^2 is c^2 against B = 1."""
    rng = np.random.default_rng(0)
    u = np.linalg.qr(crandn(rng, 6, 6))[0]
    v = np.linalg.qr(crandn(rng, 9, 6))[0]
    syn = (u * np.geomspace(1.0, c, 6)) @ v.conj().T
    return Frame(syn.T.copy()), OperatorEnv.from_matrix(np.outer(u[:, 5], u[:, 5].conj()))


def admissible_perturbation(
    rng: np.random.Generator, f: Frame, env: OperatorEnv, scale: float = 1.0
) -> np.ndarray:
    """Random N x n phi with P_{R(K)} T_F phi = 0, built from the null space."""
    projected = range_projector(env) @ f.synthesis
    u, s, vh = np.linalg.svd(projected, full_matrices=True)
    cutoff = (s[0] if s.size else 0.0) * max(projected.shape) * 2.0 ** -40
    rank = int(np.sum(s > cutoff))
    null_basis = vh[rank:].conj().T
    if null_basis.shape[1] == 0:
        return np.zeros((f.size, f.ambient_dim), dtype=np.complex128)
    coeffs = crandn(rng, null_basis.shape[1], f.ambient_dim)
    return scale * (null_basis @ coeffs)


def both_inclusion_instance(
    rng: np.random.Generator, n_max: int = 8, size_max: int = 12
) -> tuple[Frame, Frame, OperatorEnv]:
    """(Psi, Phi, env) satisfying both range-inclusion hypotheses.

    Phi spans R(K*) inside R(K*) (so T_Phi* factors through K* K) and
    Psi = {K phi_i} (so T_Psi* = T_Phi* K* exactly).
    """
    while True:
        n = int(rng.integers(2, n_max + 1))
        rank = int(rng.integers(1, n))
        count = int(rng.integers(max(rank + 1, 2), size_max + 1))
        k = random_rank_matrix(rng, n, rank)
        env = OperatorEnv.from_matrix(k)
        phi_syn = range_projector(env.adjoint()) @ crandn(rng, n, count)
        if not well_conditioned(phi_syn, rank):
            continue
        psi_syn = env.k @ phi_syn
        if not well_conditioned(psi_syn, rank):
            continue
        return Frame(psi_syn.T), Frame(phi_syn.T), env


def minimal_instance(rng: np.random.Generator) -> tuple[Frame, Frame, OperatorEnv]:
    """(Phi, Psi, env): Phi a K-frame, Psi a minimal K*-frame, equal index counts."""
    while True:
        n = int(rng.integers(2, 9))
        count = int(rng.integers(2, n + 1))
        rank = int(rng.integers(1, count))
        syn = crandn(rng, n, count)
        k = syn @ crandn(rng, count, rank) @ crandn(rng, rank, n)
        spread = np.hstack([k.conj().T @ crandn(rng, n, rank), crandn(rng, n, count - rank)])
        psi = spread @ crandn(rng, count, count)
        if well_conditioned(syn) and well_conditioned(k, rank) and well_conditioned(psi, count):
            return Frame(syn.T), Frame(psi.T), OperatorEnv.from_matrix(k)


def hand_inclusion_instance() -> tuple[Frame, Frame, OperatorEnv]:
    """C^2 instance (K = diag(1,0), Psi = Phi = {e1, e1}) for the
    range-inclusion inverse constructions; both compositions equal K / K K*
    exactly."""
    psi = Frame([[1.0, 0.0], [1.0, 0.0]])
    env = OperatorEnv.from_matrix([[1.0, 0.0], [0.0, 0.0]])
    return psi, psi, env


@pytest.fixture(scope="session")
def c2_example():
    return projection_example()


@pytest.fixture(scope="session")
def c4_example():
    return minimal_example()
