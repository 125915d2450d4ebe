"""Instance classes and predicates for the factorization equivalence suites."""

from __future__ import annotations

import numpy as np

from conftest import crandn, projector_onto_range, well_conditioned
from kframekit.errors import RangeNotIncluded
from kframekit.linalg import (
    IDENTITY_TOL,
    CheckResult,
    _douglas,
    _inclusion,
    spectral_norm,
    svd_decompose,
)


def min_eig(h) -> float:
    """Least eigenvalue of the Hermitian part: the suites' independent oracle for an
    operator inequality, which the library decides on factors instead."""
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def inclusion_check(l1, l2, tol: float = IDENTITY_TOL) -> CheckResult:
    """The library's test of R(l1) inside R(l2) (``_inclusion``) on one SVD of l2."""
    return _inclusion(l1, svd_decompose(l2), spectral_norm(l1), tol)


def douglas_solution(l1, l2, tol: float = IDENTITY_TOL) -> np.ndarray:
    """The minimal X with l2 X = l1 from the library's Douglas step (``_douglas``)."""
    return _douglas(l1, l2, svd_decompose(l2), spectral_norm(l1), tol)[1]


def inclusion_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """L1 = L2 X0, guaranteed inclusion, well conditioned, nonzero X."""
    while True:
        h, p, q = (int(x) for x in rng.integers(2, 8, size=3))
        l2 = crandn(rng, h, p)
        x0 = crandn(rng, p, q)
        l1 = l2 @ x0
        if not (well_conditioned(l2) and well_conditioned(l1)):
            continue
        if spectral_norm(svd_decompose(l2).pinv() @ l1) < 1e-2:
            continue
        return l1, l2


def non_inclusion_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rank-deficient L2 plus an L1 with a detectable component off R(L2)."""
    while True:
        h = int(rng.integers(2, 8))
        p, q = (int(x) for x in rng.integers(2, 8, size=2))
        rank = int(rng.integers(1, h))
        l2 = crandn(rng, h, rank) @ crandn(rng, rank, p)
        if not well_conditioned(l2, rank):
            continue
        proj = projector_onto_range(l2)
        stray = (np.eye(h) - proj) @ crandn(rng, h)
        if np.linalg.norm(stray) < 0.1:
            continue
        l1 = l2 @ crandn(rng, p, q) + np.outer(stray, crandn(rng, q))
        if not well_conditioned(l1):
            continue
        return l1, l2


def douglas_predicates(l1, l2) -> tuple[bool, bool, bool]:
    """The three equivalent conditions, each computed by its own route."""
    included = bool(inclusion_check(l1, l2))

    lam_hat = spectral_norm(svd_decompose(l2).pinv() @ l1)
    g1 = l1 @ l1.conj().T
    g2 = l2 @ l2.conj().T
    slack = min_eig((lam_hat * (1.0 + 1e-8)) ** 2 * g2 - g1)
    majorized = slack >= -1e-9 * max(1.0, spectral_norm(g1))

    try:
        x = douglas_solution(l1, l2)
        solvable = spectral_norm(l2 @ x - l1) <= 1e-9 * max(1.0, spectral_norm(l1))
    except RangeNotIncluded:
        solvable = False
    return included, majorized, solvable
