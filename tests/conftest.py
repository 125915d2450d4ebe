"""Shared instance generators for the property suites.

Everything is seeded through numpy Generators passed in explicitly, so the
suites are deterministic. Generators resample until the instance is well
conditioned (smallest kept singular value at least ``COND_FLOOR`` times the
largest), keeping the fixed tolerances honest rather than calibrated.
"""

from __future__ import annotations

import numpy as np
import pytest

from kframekit import Frame, OperatorEnv
from kframekit.duality import DualPerturbation
from kframekit.linalg import svd_decompose
from kframekit.worked import minimal_example, projection_example

COND_FLOOR = 1e-3


@pytest.fixture()
def skewed_qr(monkeypatch):
    """Scale every R of ``np.linalg.qr(a, mode="r")`` by 1 + 1e-7.

    That skews the QR cross-check of each majorization constant by 1e-7
    relative, twenty times its relative gate of 5e-9 at any lambda.
    """
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr(a, mode=mode) * (1 + 1e-7))


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


def admissible_perturbation(
    rng: np.random.Generator, f: Frame, env: OperatorEnv, scale: float = 1.0
) -> DualPerturbation:
    """Random phi with P_{R(K)} T_F phi = 0, built from the null space."""
    projected = env.proj_range_k @ f.synthesis
    u, s, vh = np.linalg.svd(projected, full_matrices=True)
    cutoff = (s[0] if s.size else 0.0) * max(projected.shape) * 2.0 ** -40
    rank = int(np.sum(s > cutoff))
    null_basis = vh[rank:].conj().T
    if null_basis.shape[1] == 0:
        return DualPerturbation.zero(f.size, f.ambient_dim)
    coeffs = crandn(rng, null_basis.shape[1], f.ambient_dim)
    return DualPerturbation(scale * (null_basis @ coeffs))


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
        phi_syn = env.proj_range_k_adjoint @ crandn(rng, n, count)
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


@pytest.fixture(scope="session")
def c2_example():
    return projection_example()


@pytest.fixture(scope="session")
def c4_example():
    return minimal_example()
