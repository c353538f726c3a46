"""Trajectory value types and the diversity/accuracy metric suite.

Conventions (fixed across the whole package and documented in report
headers):

* ADE/FDE and their multi-modal variants use the per-timestep mean
  Euclidean pose distance, ``min_k (1/T) * sum_t ||x_k^t - gt^t||``.
* APD uses the Euclidean norm of whole flattened trajectories.
* ASD averages per-timestep pose distances before taking the nearest
  neighbor; FSD uses the final pose only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Context",
    "Example",
    "Dataset",
    "SampleSet",
    "MetricsReport",
    "as_trajectory",
    "traj_distance",
    "ade",
    "fde",
    "apd",
    "asd_fsd",
    "build_multimodal_gt",
    "mm_metrics",
    "evaluate_sample_sets",
]

METRIC_NAMES = ("apd", "asd", "fsd", "ade", "fde", "mmade", "mmfde")

METRIC_CONVENTIONS = (
    "ADE/FDE/MMADE/MMFDE: min over samples of per-timestep mean Euclidean "
    "pose distance (FDE: final pose only); APD: mean pairwise Euclidean "
    "distance of flattened trajectories; ASD/FSD: mean over samples of the "
    "nearest-other-sample distance (per-timestep averaged / final pose)."
)


def as_trajectory(steps) -> np.ndarray:
    """Validate and return a T x D float trajectory array.

    Raises ValueError on wrong rank, empty axes, or non-finite entries.
    """
    arr = np.asarray(steps, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"trajectory must be a T x D array with T, D >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("trajectory contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Context:
    """Forecasting context: past trajectory plus optional flat side features."""

    past: np.ndarray
    features: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "past", as_trajectory(self.past))
        feats = np.asarray(self.features, dtype=float).reshape(-1)
        if not np.all(np.isfinite(feats)):
            raise ValueError("context features contain non-finite entries")
        object.__setattr__(self, "features", feats)

    def flat(self) -> np.ndarray:
        """Past trajectory flattened and concatenated with the feature vector."""
        return np.concatenate([self.past.reshape(-1), self.features])


@dataclass(frozen=True)
class Example:
    context: Context
    future: np.ndarray
    id: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "future", as_trajectory(self.future))


@dataclass(frozen=True)
class Dataset:
    """Shape-homogeneous ordered collection of forecasting examples."""

    examples: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        examples = tuple(self.examples)
        object.__setattr__(self, "examples", examples)
        if examples:
            t, d = examples[0].future.shape
            h = examples[0].context.past.shape[0]
            ids = set()
            for ex in examples:
                if ex.future.shape != (t, d) or ex.context.past.shape != (h, d):
                    raise ValueError("dataset examples are not shape-homogeneous")
                if ex.id in ids:
                    raise ValueError(f"duplicate example id {ex.id}")
                ids.add(ex.id)
            meta = dict(self.meta)
            meta.setdefault("T", t)
            meta.setdefault("H", h)
            meta.setdefault("D", d)
            object.__setattr__(self, "meta", meta)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


@dataclass(frozen=True)
class SampleSet:
    """K forecast samples for one context, stored as a K x T x D array."""

    samples: np.ndarray
    context_id: int = -1

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise ValueError(f"samples must be a K x T x D array with K >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite entries")
        object.__setattr__(self, "samples", arr)

    @property
    def k(self) -> int:
        return self.samples.shape[0]

    def flat(self) -> np.ndarray:
        """Samples flattened to a K x (T*D) matrix."""
        return self.samples.reshape(self.samples.shape[0], -1)


@dataclass(frozen=True)
class MetricsReport:
    """Per-example metric table plus dataset means."""

    per_example: tuple  # of dicts: {"id": int, "apd": float, ...}
    means: dict
    conventions: str = METRIC_CONVENTIONS
    group_sizes: tuple = ()  # multi-modal group member counts, in dataset order

    def mean(self, name: str) -> float:
        return self.means[name]


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def traj_distance(a, b) -> float:
    """Euclidean norm of the flattened difference between two trajectories."""
    a = as_trajectory(a)
    b = as_trajectory(b)
    _check_same_shape(a, b)
    return float(np.linalg.norm((a - b).reshape(-1)))


def _pose_dists(samples: np.ndarray, futures: np.ndarray) -> np.ndarray:
    """Per-timestep pose distances (K, G, T) from samples (K, T, D) to futures (G, T, D)."""
    _check_same_shape(samples[0], futures[0])  # before broadcasting: (K, 1, D) would stretch
    return np.linalg.norm(samples[:, None] - futures[None], axis=3)


def _best_of_k(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-future (ADE, FDE), each (G,): mean over T (FDE: last step), then min over K."""
    return dists.mean(axis=2).min(axis=0), dists[:, :, -1].min(axis=0)


def ade(samples: SampleSet, gt) -> float:
    """Min over samples of the per-timestep mean Euclidean pose distance."""
    gt = as_trajectory(gt)
    return float(_best_of_k(_pose_dists(samples.samples, gt[None]))[0][0])


def fde(samples: SampleSet, gt) -> float:
    """Min over samples of the final-pose Euclidean distance."""
    gt = as_trajectory(gt)
    return float(_best_of_k(_pose_dists(samples.samples, gt[None]))[1][0])


def apd(samples: SampleSet) -> float:
    """Average pairwise Euclidean distance between flattened samples.

    Requires K >= 2; permutation invariant; zero iff all samples coincide.
    """
    k = samples.k
    if k < 2:
        raise ValueError("apd requires at least 2 samples")
    flat = samples.flat()
    dists = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=2)
    return float(dists.sum() / (k * (k - 1)))


def asd_fsd(samples: SampleSet) -> tuple[float, float]:
    """Nearest-other-sample self distances (per-timestep averaged, final pose).

    ASD_i = min_{j != i} mean_t ||x_i^t - x_j^t||; FSD_i uses the final pose
    only. Both are averaged over i. The two minima are taken independently.
    """
    k = samples.k
    if k < 2:
        raise ValueError("asd/fsd require at least 2 samples")
    arr = samples.samples
    step_dists = np.linalg.norm(arr[:, None] - arr[None, :], axis=3)  # (K, K, T)
    mean_dists = step_dists.mean(axis=2)
    final_dists = step_dists[:, :, -1]
    off = ~np.eye(k, dtype=bool)
    asd_val = mean_dists[off].reshape(k, k - 1).min(axis=1).mean()
    fsd_val = final_dists[off].reshape(k, k - 1).min(axis=1).mean()
    return float(asd_val), float(fsd_val)


# Bytes of one grouping block's (rows, M, F) context differences; the norm
# allocates a second array of the same size.
_GROUP_BLOCK_BYTES = 4 << 20


def _context_groups(dataset: Dataset, eps: float):
    """Yield each example's multi-modal member indices, in dataset order.

    Example j is a member of anchor i iff ||ctx_j - ctx_i|| <= eps on
    flattened contexts: pairwise to the anchor, no transitive closure. The
    distances are computed a block of anchors at a time, so memory stays
    bounded by the block size plus O(M) whatever the dataset size.
    """
    if not eps >= 0:  # also rejects NaN, which would leave every group a singleton
        raise ValueError(f"eps must be >= 0, got {eps}")
    ctx = np.stack([ex.context.flat() for ex in dataset.examples])
    rows = max(1, _GROUP_BLOCK_BYTES // ctx.nbytes)
    for start in range(0, len(ctx), rows):
        near = np.linalg.norm(ctx[start : start + rows, None] - ctx[None], axis=2) <= eps
        for i, row in enumerate(near, start):
            members = np.flatnonzero(row)
            if not row[i]:  # guard against float noise on the self distance
                members = np.concatenate(([i], members))
            yield members


def build_multimodal_gt(dataset: Dataset, eps: float) -> dict[int, list[np.ndarray]]:
    """Group futures of examples whose contexts lie within eps of each anchor.

    Membership is pairwise to the anchor (no transitive closure): example j
    contributes its future to anchor i iff ||ctx_j - ctx_i|| <= eps on
    flattened contexts. Each anchor always keeps its own future.
    """
    examples = dataset.examples
    return {
        ex.id: [examples[j].future for j in members]
        for ex, members in zip(examples, _context_groups(dataset, eps))
    }


def mm_metrics(samples: SampleSet, gt_set: list) -> tuple[float, float]:
    """ADE/FDE averaged over a multi-modal ground-truth set."""
    if len(gt_set) == 0:
        raise ValueError("gt_set must be non-empty")
    futures = np.stack([as_trajectory(gt) for gt in gt_set])
    ades, fdes = _best_of_k(_pose_dists(samples.samples, futures))
    return float(np.mean(ades)), float(np.mean(fdes))


def evaluate_sample_sets(dataset: Dataset, sample_sets: dict[int, SampleSet], eps: float) -> MetricsReport:
    """Compute the full metric table for per-example sample sets.

    ``sample_sets`` maps example id -> SampleSet; every dataset example must
    be covered. ``eps`` is the multi-modal context-grouping threshold.
    """
    missing = [ex.id for ex in dataset.examples if ex.id not in sample_sets]
    if missing:
        raise ValueError(f"missing sample sets for example ids {missing}")
    futures = np.stack([ex.future for ex in dataset.examples])
    rows, sizes = [], []
    for i, (ex, members) in enumerate(zip(dataset.examples, _context_groups(dataset, eps))):
        ss = sample_sets[ex.id]
        ades, fdes = _best_of_k(_pose_dists(ss.samples, futures[members]))
        own = np.flatnonzero(members == i)[0]
        asd_val, fsd_val = asd_fsd(ss)
        rows.append(
            {
                "id": ex.id,
                "apd": apd(ss),
                "asd": asd_val,
                "fsd": fsd_val,
                "ade": float(ades[own]),
                "fde": float(fdes[own]),
                "mmade": float(np.mean(ades)),
                "mmfde": float(np.mean(fdes)),
            }
        )
        sizes.append(len(members))
    means = {name: float(np.mean([r[name] for r in rows])) for name in METRIC_NAMES}
    return MetricsReport(per_example=tuple(rows), means=means, group_sizes=tuple(sizes))
