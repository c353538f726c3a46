"""Invertible affine latent maps, their KL to the standard normal, and noise.

A flow set carries K maps z_k = A_k @ eps + b_k sharing one noise draw; the
direct-code sampler is the degenerate case where the K latent codes are the
parameters themselves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineFlowSet",
    "DsfCodes",
    "apply_flows",
    "invert_flow",
    "kl_to_standard_normal",
    "sample_noise",
]

DET_TOL = 1e-12


@dataclass(frozen=True)
class AffineFlowSet:
    """K invertible affine maps (A_k, b_k) over an n_z-dimensional latent space."""

    A: np.ndarray  # (K, n_z, n_z)
    b: np.ndarray  # (K, n_z)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[0] < 1:
            raise ValueError(f"A must be (K, n_z, n_z) with K >= 1, got {A.shape}")
        if b.shape != A.shape[:2]:
            raise ValueError(f"b must be (K, n_z), got {b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("flow parameters contain non-finite entries")
        _check_invertible(A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def n_z(self) -> int:
        return self.A.shape[1]

    @staticmethod
    def identity(k: int, n_z: int) -> "AffineFlowSet":
        return AffineFlowSet(A=np.tile(np.eye(n_z), (k, 1, 1)), b=np.zeros((k, n_z)))


@dataclass(frozen=True)
class DsfCodes:
    """K directly parameterized latent codes (a sampler with no input)."""

    codes: np.ndarray  # (K, n_z)

    def __post_init__(self):
        codes = np.atleast_2d(np.asarray(self.codes, dtype=float))
        if codes.shape[0] < 1:
            raise ValueError("need K >= 1 codes")
        if not np.all(np.isfinite(codes)):
            raise ValueError("codes contain non-finite entries")
        object.__setattr__(self, "codes", codes)

    @property
    def k(self) -> int:
        return self.codes.shape[0]

    @property
    def n_z(self) -> int:
        return self.codes.shape[1]


def _check_invertible(A: np.ndarray) -> np.ndarray:
    """Reject a stack of (..., n, n) maps unless every |det A| exceeds DET_TOL,
    judged from log|det A| (-inf for a singular map); return the log|det A|."""
    _, logabsdet = np.linalg.slogdet(A)
    if np.any(logabsdet <= np.log(DET_TOL)):
        raise ValueError("flow not invertible: |det A_k| below threshold")
    return logabsdet


def apply_flows(flows: AffineFlowSet, eps) -> np.ndarray:
    """Map one shared noise vector through all K flows: z_k = A_k @ eps + b_k."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (flows.n_z,):
        raise ValueError(f"eps must have shape ({flows.n_z},), got {eps.shape}")
    return _apply_flows(flows.A, flows.b, eps)


def _apply_flows(A: np.ndarray, b: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """z_k = A_k @ eps + b_k for (..., K, n, n) maps, (..., K, n) shifts and
    (..., n) noise, the leading axes broadcast: (..., K, n) codes."""
    return np.einsum("...kij,...j->...ki", A, eps) + b


def invert_flow(flows: AffineFlowSet, k: int, z) -> np.ndarray:
    """Recover the noise that flow k maps to z: eps = A_k^{-1} (z - b_k)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (flows.n_z,):
        raise ValueError(f"z must have shape ({flows.n_z},), got {z.shape}")
    _check_invertible(flows.A[k])
    return np.linalg.solve(flows.A[k], z - flows.b[k])


def _kl(A: np.ndarray, b: np.ndarray, grad: bool = False):
    """KL_k of N(b_k, A_k A_k^T) to N(0, I) for (..., K, n, n) maps and
    (..., K, n) shifts; with ``grad`` also (dKL/dA, dKL/db), else None. A map
    that is not invertible is rejected."""
    logabsdet = _check_invertible(A)
    tr = np.einsum("...kij,...kij->...k", A, A)
    sq = np.einsum("...ki,...ki->...k", b, b)
    kl = 0.5 * (tr + sq - A.shape[-1] - 2.0 * logabsdet)
    if not grad:
        return kl, None
    return kl, (A - np.swapaxes(np.linalg.inv(A), -1, -2), b)


def _fold_features(A: np.ndarray, b: np.ndarray, block, features, k0: int):
    """(M, K, n, n) maps A_k + fold(Ma_k f) and (M, K, n) shifts b_k + Mb_k f
    (k >= k0) for (M, F) features; ``block`` is [Ma (K-k0, n, n, F), Mb (K-k0, n, F)]."""
    block, features = np.asarray(block, dtype=float), np.atleast_2d(features)
    (m, f_dim), (k_t, n) = features.shape, (A.shape[0] - k0, A.shape[-1])
    need = k_t * (n * n + n) * f_dim
    if block.size != need:
        raise ValueError(f"featurization block has {block.size} entries, {f_dim} features need {need}")
    n_ma = k_t * n * n * f_dim
    A, b = np.repeat(A[None], m, axis=0), np.repeat(b[None], m, axis=0)
    A[:, k0:] += np.einsum("kijf,mf->mkij", block[:n_ma].reshape(k_t, n, n, f_dim), features)
    b[:, k0:] += np.einsum("kif,mf->mki", block[n_ma:].reshape(k_t, n, f_dim), features)
    return A, b


def kl_to_standard_normal(flows: AffineFlowSet, k: int | None = None):
    """Analytic KL of the flow-induced Gaussian N(b, A A^T) to N(0, I).

    KL_k = 0.5 * (tr(A A^T) + b'b - n_z - log det(A A^T)); zero iff A is
    orthogonal and b = 0. Returns one float for a given k, else the (K,)
    vector.
    """
    if k is None:
        return _kl(flows.A, flows.b)[0]
    return float(_kl(flows.A[None, k], flows.b[None, k])[0][0])


def sample_noise(seed, n_z: int) -> np.ndarray:
    """n_z i.i.d. standard normal draws from a seeded, platform-stable generator.

    ``n_z`` goes straight to ``standard_normal`` as its size, so a shape such
    as (K, n_z) draws K codes at once."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_z)
