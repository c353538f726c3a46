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

import math
import numbers
from dataclasses import dataclass, field
from itertools import groupby

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


# kind: (accepted types, what they are, the range test or None, what it asks)
_VALUE_KINDS = {
    "flag": ((bool, np.bool_), "true or false", None, ""),
    "integer": (numbers.Integral, "an integer", None, ""),
    "count": (numbers.Integral, "an integer", lambda v: v >= 1, ">= 1"),
    "number": (numbers.Real, "a number", None, ""),
    "positive": (numbers.Real, "a number", lambda v: 0 < v < math.inf, "finite and > 0"),
    "nonnegative": (numbers.Real, "a number", lambda v: 0 <= v < math.inf, "finite and >= 0"),
}


def _check_value(name: str, value, kind: str) -> None:
    """Reject a ``value`` that is not of ``kind`` (a key of ``_VALUE_KINDS``)
    with a message that names it ``name``. A bool is a flag and never a
    number; a numpy scalar of the right kind passes."""
    types, what, in_range, bound = _VALUE_KINDS[kind]
    if not isinstance(value, types) or (kind != "flag" and isinstance(value, bool)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if in_range is not None and not in_range(value):
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_fields(obj, **kinds: str) -> None:
    """``_check_value`` on each named field of ``obj``, in the order given."""
    for name, kind in kinds.items():
        _check_value(name, getattr(obj, name), kind)


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
    """Shape-homogeneous ordered collection of forecasting examples: every
    example has the same future and past shapes and the same number of context
    features."""

    examples: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        examples = tuple(self.examples)
        object.__setattr__(self, "examples", examples)
        if examples:
            t, d = examples[0].future.shape
            h = examples[0].context.past.shape[0]
            n_feat = len(examples[0].context.features)
            ids = set()
            for ex in examples:
                ctx = ex.context
                if ex.future.shape != (t, d) or ctx.past.shape != (h, d) or len(ctx.features) != n_feat:
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


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def traj_distance(a, b) -> float:
    """Euclidean norm of the flattened difference between two trajectories,
    its squares added in feature order, as ``apd`` adds them."""
    a = as_trajectory(a)
    b = as_trajectory(b)
    _check_same_shape(a, b)
    return float(_cdist(a.reshape(1, -1), b.reshape(1, -1))[0, 0])


def _cdist(xa, xb, *args, **kwargs) -> np.ndarray:
    """``scipy.spatial.distance.cdist``, imported on first call, so that
    importing the package (and ``gen-data``) never loads scipy."""
    from scipy.spatial.distance import cdist

    return cdist(xa, xb, *args, **kwargs)


def _pose_dists(samples: np.ndarray, futures: np.ndarray) -> np.ndarray:
    """Per-timestep pose distances (K, G, T) from samples (K, T, D) to futures
    (G, T, D), one ``cdist`` per timestep, which adds the squares in feature
    order, as every distance of the package but the DPP kernel's does. Below
    D = 8 numpy adds in order too, so they equal
    ``norm(samples[:, None] - futures[None], axis=3)`` bitwise; from D = 8 on,
    numpy sums pairwise and the two can differ in the last bit.
    The array is a view of (T, K, G) memory, so a mean over T adds the
    timesteps in order, elementwise over (K, G)."""
    _check_same_shape(samples[0], futures[0])  # (K, 1, D) must not pass as (K, T, D)
    out = np.empty((samples.shape[1], len(samples), len(futures)))
    for t, dists in enumerate(out):
        _cdist(samples[:, t], futures[:, t], out=dists)
    return out.transpose(1, 2, 0)


def _best_of_k(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-future (ADE, FDE), each (..., G), of (..., K, G, T) distances:
    mean over T (FDE: last step), then min over K."""
    return dists.mean(axis=-1).min(axis=-2), dists[..., -1].min(axis=-2)


def ade(samples: SampleSet, gt) -> float:
    """Min over samples of the per-timestep mean Euclidean pose distance."""
    gt = as_trajectory(gt)
    return float(_best_of_k(_pose_dists(samples.samples, gt[None]))[0][0])


def fde(samples: SampleSet, gt) -> float:
    """Min over samples of the final-pose Euclidean distance."""
    gt = as_trajectory(gt)
    return float(_best_of_k(_pose_dists(samples.samples, gt[None]))[1][0])


def _self_metrics(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(APD, ASD, FSD), each (B,), of B sample sets stacked as (B, K, T, D).

    The squared differences are formed feature-major, (T, D, B, K, K), and
    added one feature after another: in flattened (T, D) order for APD, over
    D for each step's distance. ASD adds the step distances in time order and
    divides by T. Where T < 8 and T * D < 8 this equals the
    ``np.linalg.norm`` definition over (B, K, K, T, D) differences bitwise;
    beyond, numpy sums eight or more terms pairwise and the two can differ in
    the last bit."""
    b, k, t_steps, d = sets.shape
    if k < 2:
        raise ValueError("asd/fsd require at least 2 samples")
    x = np.ascontiguousarray(sets.transpose(2, 3, 0, 1))  # (T, D, B, K)
    sq = x[..., :, None] - x[..., None, :]  # (T, D, B, K, K)
    np.square(sq, out=sq)
    apd_vals = np.sqrt(_sum_rows(sq.reshape(t_steps * d, b, k, k))).sum(axis=(1, 2)) / (k * (k - 1))
    step_dists = np.sqrt(np.stack([_sum_rows(step) for step in sq]))  # (T, B, K, K)
    diag = np.arange(k)

    def nearest_mean(dists):  # (B, K, K) -> mean over i of min over j != i; overwrites the diagonal
        dists[:, diag, diag] = np.inf
        return dists.min(axis=2).mean(axis=1)

    return apd_vals, nearest_mean(_sum_rows(step_dists) / t_steps), nearest_mean(step_dists[-1])


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """Elementwise sum of ``rows[0], rows[1], ...`` added in that order, into a
    new array."""
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    return acc


def apd(samples: SampleSet) -> float:
    """Average pairwise Euclidean distance between flattened samples.

    Requires K >= 2; permutation invariant; zero iff all samples coincide.
    """
    if samples.k < 2:
        raise ValueError("apd requires at least 2 samples")
    return float(_self_metrics(samples.samples[None])[0][0])


def asd_fsd(samples: SampleSet) -> tuple[float, float]:
    """Nearest-other-sample self distances (per-timestep averaged, final pose).

    ASD_i = min_{j != i} mean_t ||x_i^t - x_j^t||; FSD_i uses the final pose
    only. Both are averaged over i. The two minima are taken independently.
    """
    _, asd_vals, fsd_vals = _self_metrics(samples.samples[None])
    return float(asd_vals[0]), float(fsd_vals[0])


# Bytes of one block's largest array: for a block of sample sets their
# (B*K, M, T) pose distances and (T, D, B, K, K) squared sample differences.
# Each pass allocates about one more array of that size while it works. The
# grouping takes _GROUP_BLOCK_BYTES // (M * F * 8) anchors a block, so its
# (rows, M) distances stay below the bound.
_GROUP_BLOCK_BYTES = 1 << 20


def _context_groups(dataset: Dataset, eps: float):
    """Yield each example's multi-modal member indices, in dataset order.

    Example j is a member of anchor i iff ||ctx_j - ctx_i|| <= eps on
    flattened contexts: pairwise to the anchor, no transitive closure. The
    distances are computed a block of anchors at a time with ``cdist``, so
    memory stays bounded by the block size plus O(M) whatever the dataset
    size. ``cdist`` adds the squares in feature order; below F = 8 context
    features numpy does too, so they equal
    ``norm(ctx[block, None] - ctx[None], axis=2)`` bitwise, and from F = 8 on
    they can differ in the last bit.
    A context is finite, so its distance to itself is exactly 0 and every
    anchor is its own member.
    """
    if not eps >= 0:  # also rejects NaN, which would leave every group a singleton
        raise ValueError(f"eps must be >= 0, got {eps}")
    ctx = np.stack([ex.context.flat() for ex in dataset.examples])
    rows = max(1, _GROUP_BLOCK_BYTES // ctx.nbytes)
    for start in range(0, len(ctx), rows):
        yield from map(np.flatnonzero, _cdist(ctx[start : start + rows], ctx) <= eps)


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


def _blocks(sets: list, set_bytes):
    """Stacks (B, K, T, D) of consecutive sample sets of equal K, about
    ``_GROUP_BLOCK_BYTES // set_bytes(first set of the run)`` sets each."""
    for _, run in groupby(sets, key=len):
        run = list(run)
        step = max(1, _GROUP_BLOCK_BYTES // set_bytes(run[0]))
        for first in range(0, len(run), step):
            yield np.stack(run[first : first + step])


def _accuracy_rows(sets: list, futures: np.ndarray):
    """Yield each sample set's per-future (ADE, FDE) rows, each (M,), against
    all M futures, in order: one ``cdist`` per timestep over a block of sets."""
    row_bytes = futures[..., 0].nbytes  # one sample's (M, T) distances
    for block in _blocks(sets, lambda s: len(s) * row_bytes):
        dists = _pose_dists(block.reshape(-1, *block.shape[2:]), futures)
        yield from zip(*_best_of_k(dists.reshape(*block.shape[:2], *dists.shape[1:])))


def _self_rows(sets: list):
    """Yield each sample set's (APD, ASD, FSD), in order, a block at a time."""
    for block in _blocks(sets, lambda s: len(s) * s.nbytes):  # (T, D, K, K) squared differences
        yield from zip(*_self_metrics(block))


def evaluate_sample_sets(dataset: Dataset, sample_sets: dict[int, SampleSet], eps: float) -> MetricsReport:
    """Compute the full metric table for per-example sample sets.

    ``sample_sets`` maps example id -> SampleSet, one for each dataset example
    and no other. ``eps`` is the multi-modal context-grouping threshold. Each
    example's ADE/FDE rows against every future are computed in blocks of
    examples; its multi-modal metrics average the rows at its group members.
    """
    examples = dataset.examples
    if not examples:
        raise ValueError("dataset has no examples")
    ids = {ex.id for ex in examples}
    missing, extra = sorted(ids - set(sample_sets)), sorted(set(sample_sets) - ids)
    if missing or extra:
        raise ValueError(f"samples misaligned with dataset: missing ids {missing}, extra ids {extra}")
    futures = np.stack([ex.future for ex in examples])
    sets = [sample_sets[ex.id].samples for ex in examples]
    for s in sets:
        _check_same_shape(s[0], futures[0])
    rows, sizes = [], []
    per_anchor = zip(examples, _context_groups(dataset, eps), _accuracy_rows(sets, futures), _self_rows(sets))
    for i, (ex, members, (ade_row, fde_row), (apd_val, asd_val, fsd_val)) in enumerate(per_anchor):
        rows.append(
            {
                "id": ex.id,
                "apd": float(apd_val),
                "asd": float(asd_val),
                "fsd": float(fsd_val),
                "ade": float(ade_row[i]),
                "fde": float(fde_row[i]),
                "mmade": float(np.mean(ade_row[members])),
                "mmfde": float(np.mean(fde_row[members])),
            }
        )
        sizes.append(len(members))
    means = {name: float(np.mean([r[name] for r in rows])) for name in METRIC_NAMES}
    return MetricsReport(per_example=tuple(rows), means=means, group_sizes=tuple(sizes))
