"""Diversity and quality objectives for trajectory sample sets.

Includes the expected-cardinality loss for direct-code samplers and the
energy-based objective for affine-flow samplers (RBF diversity energy,
min-distance reconstruction energy, optional similar-slice energy for
controllable prediction).

The energies compute no distances of their own: every squared distance,
within a sample set or from a set to its ground truth, comes from
``trajectory._sq_dists`` with ``gram=True``. A set of at most 2^14
pair-features gets the feature-order bits of the evaluation metrics; a larger
one, such as a K = 100 sample set, gets the Gram form from one matmul, within
about eps times its squared spread of those bits, and never a ``cdist`` call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpp import DppKernel, expected_cardinality
from .flows import AffineFlowSet, kl_to_standard_normal
from .trajectory import SampleSet, _check_fields, _check_value, _sq_dists, as_trajectory

__all__ = [
    "EnergyConfig",
    "diversity_energy",
    "reconstruction_energy",
    "similarity_energy",
    "dsf_loss",
    "dlow_loss",
]


@dataclass(frozen=True)
class EnergyConfig:
    """Weights and scales of the flow-sampler objective.

    ``joint_split``, when set, is a pair (J_s, J_d) of disjoint covering
    index tuples over the last (state) axis: the similar-slice energy acts
    on J_s and the diversity energy is then restricted to J_d.
    """

    sigma_d: float = 100.0
    lambda_d: float = 25.0
    lambda_r: float = 2.0
    lambda_s: float = 0.0
    beta: float = 1.0
    joint_split: tuple | None = None

    def __post_init__(self):
        nonnegative = dict.fromkeys(("lambda_d", "lambda_r", "lambda_s", "beta"), "nonnegative")
        _check_fields(self, sigma_d="positive", **nonnegative)
        split = self.joint_split
        if split is not None:
            lists = (list, tuple)
            if not (isinstance(split, lists) and len(split) == 2 and all(isinstance(part, lists) for part in split)):
                raise ValueError(f"joint_split must be a pair of integer lists, got {split!r}")
            for j in (*split[0], *split[1]):
                _check_value("joint_split entry", j, "integer")
            object.__setattr__(self, "joint_split", (tuple(split[0]), tuple(split[1])))

    def validate_split(self, dim: int) -> None:
        if self.joint_split is not None:
            _validate_partition(self.joint_split, dim)


def _validate_partition(split, dim: int) -> None:
    j_s, j_d = split
    if set(j_s) & set(j_d):
        raise ValueError("invalid partition: J_s and J_d must be disjoint")
    if set(j_s) | set(j_d) != set(range(dim)):
        raise ValueError(f"invalid partition: J_s and J_d must cover all {dim} state dimensions")


def _dim_columns(dims, t_steps: int, state_dim: int) -> np.ndarray:
    """Flattened (row-major T x D) column indices of the given state dimensions."""
    return (np.arange(t_steps)[:, None] * state_dim + np.asarray(dims, dtype=int)).reshape(-1)


def _diversity(v: np.ndarray, sigma_d: float):
    """Mean RBF proximity exp(-d^2 / sigma_d) over the ordered pairs of each
    (..., K, F) sample set, d^2 from ``_sq_dists``, and its gradient wrt
    ``v``."""
    k = v.shape[-2]
    w = _sq_dists(v, v, gram=True)
    np.exp(np.divide(w, -sigma_d, out=w), out=w)
    w.reshape(-1, k * k)[:, :: k + 1] = 0.0  # pairs i != j only
    value = w.sum(axis=(-2, -1)) / (k * (k - 1))
    return value, (-4.0 / (sigma_d * k * (k - 1))) * (w.sum(axis=-1)[..., None] * v - w @ v)


def _reconstruction(v: np.ndarray, gt: np.ndarray):
    """Min squared distance from each (..., K, F) sample set to its (..., F)
    ground truth, d^2 from ``_sq_dists``, and its gradient wrt ``v``: 2 (v -
    gt) at each set's first nearest sample and zero elsewhere, summed in C
    order over the axes along which ``gt`` broadcasts ``v``, so it is shaped
    like ``v``."""
    dist2 = _sq_dists(gt[..., None, :], v, gram=True)[..., 0, :]
    value = dist2.min(axis=-1)
    k, f = v.shape[-2:]
    # flat (..., F) row of each set's first nearest sample in v; the row
    # broadcasts like dist2, so sets that share a sample set share its rows
    rows = np.arange(v.size // (k * f)).reshape(v.shape[:-2]) * k + dist2.argmin(axis=-1)
    step = 2.0 * (v.reshape(-1, f)[rows] - gt)
    # bincount adds the steps in C order, as a sum over the broadcast axes would
    cols = (rows[..., None] * f + np.arange(f)).reshape(-1)
    g_v = np.bincount(cols, weights=step.reshape(-1), minlength=v.size).reshape(v.shape)
    return value, g_v


def _similarity(v: np.ndarray):
    """Mean squared distance over the ordered pairs of each (..., K, F) sample
    set (0 for F = 0), d^2 from ``_sq_dists``, and its gradient wrt ``v``."""
    k = v.shape[-2]
    value = _sq_dists(v, v, gram=True).sum(axis=(-2, -1)) / (k * (k - 1))
    return value, (4.0 / (k * (k - 1))) * (k * v - v.sum(axis=-2, keepdims=True))


def _energies(v: np.ndarray, gt: np.ndarray, cfg: EnergyConfig, state_dim: int):
    """Mean diversity, reconstruction and similar-slice energies of the
    (..., K, F) sample sets ``v`` of flattened (T, state_dim) trajectories;
    ``gt`` is (..., F) and broadcasts with, without adding to, ``v``'s leading
    axes. With ``cfg.joint_split`` = (J_s, J_d), diversity acts on the J_d
    columns and the similar-slice energy on the J_s columns; without it, E_s
    = 0. Also returns the gradient of lambda_d * E_d + lambda_r * E_r +
    lambda_s * E_s wrt ``v``."""
    cols_d, cols_s = slice(None), None
    if cfg.joint_split is not None:
        t_steps = v.shape[-1] // state_dim
        cols_s, cols_d = (_dim_columns(dims, t_steps, state_dim) for dims in cfg.joint_split)
    e_d, g_d = _diversity(v[..., cols_d], cfg.sigma_d)
    e_r, g_r = _reconstruction(v, gt)
    e_s, g_s = (np.zeros(1), None) if cols_s is None else _similarity(v[..., cols_s])
    means = tuple(float(e.sum()) / e.size for e in (e_d, e_r, e_s))
    g_v = (cfg.lambda_r / e_r.size) * g_r
    g_v[..., cols_d] += (cfg.lambda_d / e_d.size) * g_d
    if g_s is not None:
        g_v[..., cols_s] += (cfg.lambda_s / e_s.size) * g_s
    return means, g_v


def _weighted_terms(cfg: EnergyConfig, kl_sum: float, e_d: float, e_r: float, e_s: float) -> dict:
    terms = {
        "kl": cfg.beta * kl_sum,
        "diversity": cfg.lambda_d * e_d,
        "reconstruction": cfg.lambda_r * e_r,
    }
    if cfg.joint_split is not None:
        terms["similarity"] = cfg.lambda_s * e_s
    return terms


def diversity_energy(samples: SampleSet, sigma_d: float, dims=None) -> float:
    """RBF pairwise-proximity energy in (0, 1]; 1 iff all samples coincide.

    ``dims``, when given, restricts the distance to those state dimensions
    (controllable mode).
    """
    _check_value("sigma_d", sigma_d, "positive")
    if samples.k < 2:
        raise ValueError("diversity energy requires K >= 2")
    cols = slice(None) if dims is None else _dim_columns(dims, *samples.samples.shape[1:])
    return float(_diversity(samples.flat()[:, cols], sigma_d)[0])


def reconstruction_energy(samples: SampleSet, gt) -> float:
    """Min squared flattened distance from the sample set to the ground truth."""
    gt = as_trajectory(gt)
    if samples.samples[0].shape != gt.shape:
        raise ValueError(f"shape mismatch: {samples.samples[0].shape} vs {gt.shape}")
    return float(_reconstruction(samples.flat(), gt.reshape(-1))[0])


def similarity_energy(samples: SampleSet, split) -> float:
    """Mean pairwise squared distance over the similar-slice dimensions J_s.

    An empty J_s gives 0 by convention.
    """
    if samples.k < 2:
        raise ValueError("similarity energy requires K >= 2")
    _validate_partition(split, samples.samples.shape[2])
    cols = _dim_columns(split[0], *samples.samples.shape[1:])
    return float(_similarity(samples.flat()[:, cols])[0])


def dsf_loss(kernel: DppKernel) -> float:
    """Negated expected cardinality of the sample-set DPP; in (-N, 0]."""
    return -expected_cardinality(kernel)


def dlow_loss(flows: AffineFlowSet, samples: SampleSet, gt, cfg: EnergyConfig) -> dict:
    """Weighted flow-sampler objective with per-term breakdown.

    total = beta * sum_k KL_k + lambda_d * E_d + lambda_r * E_r
    (+ lambda_s * E_s over the J_s slice when a split is configured, with
    E_d then restricted to the J_d slice).
    """
    cfg.validate_split(samples.samples.shape[2])
    if samples.k < 2:
        raise ValueError("diversity energy requires K >= 2")
    gt = as_trajectory(gt)
    if samples.samples[0].shape != gt.shape:
        raise ValueError(f"shape mismatch: {samples.samples[0].shape} vs {gt.shape}")
    kl_sum = float(np.sum(kl_to_standard_normal(flows)))
    (e_d, e_r, e_s), _ = _energies(samples.flat(), gt.reshape(-1), cfg, gt.shape[1])
    terms = _weighted_terms(cfg, kl_sum, e_d, e_r, e_s)
    return {
        "total": float(sum(terms.values())),
        "terms": terms,
        "raw": {"kl_sum": kl_sum, "e_d": e_d, "e_r": e_r, "e_s": e_s},
    }

