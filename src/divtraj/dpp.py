"""DPP kernel construction, likelihood, expected cardinality, and MAP inference.

The L-ensemble kernel is L = Diag(r) * S * Diag(r) with an RBF similarity
matrix S over flattened trajectories and a latent-space quality vector r
that is flat inside a sphere of radius R and decays exponentially outside.
R is the chi-squared quantile radius containing a target fraction of
standard-normal mass in the codes' own dimension n_z.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .trajectory import _check_fields, _check_value

__all__ = [
    "KernelConfig",
    "GroundSet",
    "DppKernel",
    "build_similarity",
    "quality_radius",
    "build_quality",
    "build_kernel",
    "expected_cardinality",
    "dpp_log_prob",
    "brute_force_oracle",
    "greedy_map",
]

# Eigenvalues of L in [-PSD_TOL * max(1, lambda_max), 0) are clamped to 0;
# anything lower is treated as a broken input, not repaired.
PSD_TOL = 1e-8

BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of the trajectory DPP kernel."""

    sim_scale: float = 1.0
    base_quality: float = 1.0
    rho: float = 0.9

    def __post_init__(self):
        _check_fields(self, sim_scale="positive", base_quality="positive", rho="number")
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")


@dataclass(frozen=True)
class GroundSet:
    """N candidate items (flattened trajectories) with their latent codes."""

    items: np.ndarray  # (N, F)
    latents: np.ndarray  # (N, n_z)

    def __post_init__(self):
        items = np.atleast_2d(np.asarray(self.items, dtype=float))
        latents = np.atleast_2d(np.asarray(self.latents, dtype=float))
        if items.shape[0] < 1 or items.shape[0] != latents.shape[0]:
            raise ValueError("items and latents must be aligned, N >= 1")
        if not (np.all(np.isfinite(items)) and np.all(np.isfinite(latents))):
            raise ValueError("ground set contains non-finite entries")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "latents", latents)

    @property
    def n(self) -> int:
        return self.items.shape[0]


@dataclass(frozen=True)
class DppKernel:
    L: np.ndarray
    S: np.ndarray
    r: np.ndarray
    eigvals: np.ndarray  # ascending, tiny negatives clamped to 0
    eigvecs: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[0]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``: (..., N, F) -> (..., N, N).

    The einsum sums the squares in its own order: this is the only distance in
    the package that does not add them in feature order, as the energies and
    the metrics do. The DPP kernel keeps this order on purpose: the README
    walkthrough's trained DSF codes are sensitive to the last bit of S, and
    the ``cdist`` order moved their mean APD by 1.5%."""
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


def _rbf_similarity(items: np.ndarray, sim_scale: float) -> np.ndarray:
    # finite items have d^2(x, x) = 0 exactly, so the diagonal is exp(0) = 1
    return np.exp(-sim_scale * _pairwise_sq_dists(items))


def build_similarity(items, sim_scale: float) -> np.ndarray:
    """RBF similarity S_ij = exp(-sim_scale * d^2(x_i, x_j)), unit diagonal."""
    _check_value("sim_scale", sim_scale, "positive")
    items = np.atleast_2d(np.asarray(items, dtype=float))
    if not np.all(np.isfinite(items)):
        raise ValueError("items contain non-finite entries")
    return _rbf_similarity(items, sim_scale)


@functools.lru_cache(maxsize=64)
def quality_radius(latent_dim: int, rho: float) -> float:
    """Radius of the latent sphere containing a ``rho`` fraction of N(0, I) mass.

    R^2 is the chi-squared quantile with ``latent_dim`` degrees of freedom,
    obtained by inverting the regularized lower incomplete gamma function
    P(n/2, R^2/2) = rho. A pure function, memoised: every kernel a trainer
    builds asks for the same radius.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    _check_value("latent_dim", latent_dim, "count")
    from scipy.special import gammaincinv  # lazy: see trajectory._cdist

    return float(np.sqrt(2.0 * gammaincinv(latent_dim / 2.0, rho)))


def _radius_sq(latents: np.ndarray, config: KernelConfig) -> float:  # in the codes' own n_z
    return quality_radius(latents.shape[-1], config.rho) ** 2


def _latent_quality(latents: np.ndarray, config: KernelConfig) -> np.ndarray:
    radius_sq = _radius_sq(latents, config)
    sq_norms = np.einsum("...i,...i->...", latents, latents)
    omega = config.base_quality
    return np.where(sq_norms <= radius_sq, omega, omega * np.exp(-(sq_norms - radius_sq)))


def build_quality(latents, config: KernelConfig) -> np.ndarray:
    """Latent-space quality: flat at the base value inside the sphere of the
    codes' dimension, exponentially decaying outside; continuous at the boundary."""
    return _latent_quality(np.atleast_2d(np.asarray(latents, dtype=float)), config)


def _kernel(items: np.ndarray, latents: np.ndarray, config: KernelConfig, vectors: bool = False):
    """(S, r, L, lam, u) of the kernel L = Diag(r) S Diag(r) over each of the
    (..., N, F) item sets and its (..., N, n_z) codes: lam holds the ascending
    eigenvalues of L, u its eigenvectors with ``vectors``, else None.
    Eigenvalues in [floor, 0) are clamped to 0; one below the floor means a
    broken input and raises."""
    s = _rbf_similarity(items, config.sim_scale)
    r = _latent_quality(latents, config)
    L = r[..., :, None] * s * r[..., None, :]
    lam, u = np.linalg.eigh(L) if vectors else (np.linalg.eigvalsh(L), None)
    floor = -PSD_TOL * np.maximum(1.0, lam[..., -1])
    bad = lam[..., 0] < floor
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)  # the first failing kernel
        low, floor = lam[..., 0][i], floor[i]
        raise ValueError(f"kernel not PSD: min eigenvalue {low:.3e} below {floor:.3e}")
    return s, r, L, np.maximum(lam, 0.0), u


def _cardinality(lam: np.ndarray) -> np.ndarray:
    return (lam / (lam + 1.0)).sum(axis=-1)


def _cardinality_grads(items, latents, s, r, lam, u, config: KernelConfig):
    """Gradients of E|Y| over L = Diag(r) S Diag(r) with respect to the
    (..., N, F) items, through S, and the (..., N, n_z) latents, through r,
    reusing the kernel's parts and its eigendecomposition (lam, u)."""
    g_l = (u * (1.0 / (1.0 + lam) ** 2)[..., None, :]) @ np.swapaxes(u, -1, -2)  # (L + I)^{-2}
    g_r = 2.0 * ((g_l * s) @ r[..., None])[..., 0]
    pair_w = g_l * (r[..., :, None] * r[..., None, :]) * s
    g_items = -4.0 * config.sim_scale * (pair_w.sum(axis=-1)[..., None] * items - pair_w @ items)
    outside = np.einsum("...i,...i->...", latents, latents) > _radius_sq(latents, config)
    g_latents = np.where(outside[..., None], (-2.0 * g_r * r)[..., None] * latents, 0.0)
    return g_items, g_latents


def build_kernel(ground: GroundSet, config: KernelConfig) -> DppKernel:
    """Assemble L = Diag(r) * S * Diag(r) and cache its eigendecomposition."""
    s, r, L, eigvals, eigvecs = _kernel(ground.items, ground.latents, config, vectors=True)
    return DppKernel(L=L, S=s, r=r, eigvals=eigvals, eigvecs=eigvecs)


def expected_cardinality(kernel: DppKernel) -> float:
    """E|Y| = sum_n lambda_n / (lambda_n + 1) over the kernel eigenvalues."""
    return float(_cardinality(kernel.eigvals))


def dpp_log_prob(kernel: DppKernel, subset) -> float:
    """log P(Y) = log det(L_Y) - log det(L + I); -inf signals a singular L_Y."""
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    n = kernel.n
    if any(i < 0 or i >= n for i in subset):
        raise ValueError("subset index out of range")
    log_norm = float(np.sum(np.log1p(kernel.eigvals)))
    if not subset:
        return -log_norm
    sub = kernel.L[np.ix_(subset, subset)]
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        return -np.inf
    return float(2.0 * np.sum(np.log(np.diag(chol))) - log_norm)


def brute_force_oracle(kernel: DppKernel) -> dict:
    """Enumerate all subsets: returns sum_Y det(L_Y) and the subset-size average.

    Independent of the eigenvalue paths; N is capped to keep 2^N enumeration
    tractable.
    """
    n = kernel.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to N <= {BRUTE_FORCE_MAX_N}, got {n}")
    total = 1.0  # empty subset, det = 1
    weighted_size = 0.0
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            det = float(np.linalg.det(kernel.L[np.ix_(subset, subset)]))
            total += det
            weighted_size += size * det
    return {"normalization": total, "expected_card": weighted_size / total}


def _greedy_map(L: np.ndarray) -> list[list[int]]:
    """Greedy MAP of each kernel of a (B, N, N) stack: the items of each in
    selection order. Every row takes the same steps as ``greedy_map`` and stops
    on its own; a stopped row keeps running on masked-out garbage, which is
    never read, so the arithmetic of a row is the same in any stack."""
    b, n = L.shape[:2]
    rows = np.arange(b)
    c = np.zeros((b, n, n))
    d2 = np.diagonal(L, axis1=1, axis2=2).copy()
    order = np.zeros((b, n), dtype=int)
    sizes = np.zeros(b, dtype=int)
    taken = np.zeros((b, n), dtype=bool)
    active = np.ones(b, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(n):
            gains = np.full((b, n), -np.inf)
            np.log(d2, out=gains, where=d2 > 0)
            gains[taken] = -np.inf
            best = gains.argmax(axis=1)  # first max -> lowest index tie-break
            top = gains[rows, best]
            active &= np.isfinite(top) & (top >= 0)
            if not active.any():
                break
            # (1, m) @ (m, N) per row: the product greedy_map computed per kernel
            proj = (c[rows, best, None, :m] @ np.swapaxes(c[:, :, :m], 1, 2))[:, 0]
            e = (L[rows, best] - proj) / np.sqrt(d2[rows, best])[:, None]
            c[:, :, m] = e
            d2 -= e * e
            taken[rows, best] = True
            order[:, m] = best
            sizes[active] = m + 1
    return [row[:size].tolist() for row, size in zip(order, sizes)]


def greedy_map(kernel: DppKernel) -> list[int]:
    """Greedy MAP inference: grow Y by the best log-det marginal gain.

    Stops when the best gain is strictly negative (zero gains are accepted);
    ties break toward the lowest item index. Returns items in selection
    order. The gain of item i is log d_i^2, with d_i^2 the Schur complement
    of L_Y in L_{Y+i}; c_i is the row that item i would add to the Cholesky
    factor of L_Y. Each step extends every c_i and updates every d_i^2 in
    O(N |Y|) (Chen, Zhang & Zhou, NeurIPS 2018).
    """
    return _greedy_map(kernel.L[None])[0]


# Bytes of one block's (sets, N, N, F) item differences, the largest array of
# a kernel build; the block's kernels and greedy state are smaller.
_KERNEL_BLOCK_BYTES = 4 << 20


def _greedy_map_sets(items: np.ndarray, latents: np.ndarray, config: KernelConfig) -> list[list[int]]:
    """``greedy_map(build_kernel(GroundSet(items[i], latents[i]), config))``
    for each of B ground sets, (B, N, F) items and (B, N, n_z) latents. The
    kernels of a block of sets are built, PSD-checked and searched together."""
    if not (np.all(np.isfinite(items)) and np.all(np.isfinite(latents))):
        raise ValueError("ground set contains non-finite entries")
    step = max(1, _KERNEL_BLOCK_BYTES // (items.shape[1] * items[:1].nbytes))
    selections = []
    for first in range(0, len(items), step):
        block = slice(first, first + step)
        _, _, L, _, _ = _kernel(items[block], latents[block], config)
        selections += _greedy_map(L)
    return selections
