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

import functools
import math
import numbers
import reprlib
from dataclasses import dataclass, field
from itertools import chain, groupby

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

    Raises ValueError on wrong rank, empty axes, or entries that are not finite numbers.
    """
    arr = _float_array("trajectory", steps)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"trajectory must be a T x D array with T, D >= 1, got shape {arr.shape}")
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


def _check_object(block, where: str) -> dict:
    """``block``, if it is a JSON object; else a ValueError naming ``where``."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(block).__name__}")
    return block


def _reject_unknown(block: dict, allowed, where: str, required=()) -> None:
    """Reject a config block that is not a JSON object, has a key outside
    ``allowed`` or lacks a ``required`` one."""
    _check_object(block, where)
    unknown = set(block) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ValueError(f"{where} is missing keys {missing}")


def _float_array(name: str, value, what: str = "an array of numbers in rows of equal length") -> np.ndarray:
    """``value`` as a finite float array: the one check of every array read
    from a caller or a file. A ragged nesting, or an entry that is not a number
    (a string, a bool, null), raises ``<name> must be <what>``, a NaN or inf
    ``<name> contains non-finite entries``. ``np.asarray(value, dtype=float)``
    reads ``"1.5"`` as 1.5 and a bool as 0 or 1, and its messages name no field."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    leaves = value if isinstance(value, (list, tuple)) else ()  # numpy reads a bool beside numbers as 0 or 1
    for _ in range(1, getattr(arr, "ndim", 0)):
        leaves = chain.from_iterable(leaves)
    if arr is None or arr.dtype.kind not in "iuf" or not {bool, np.bool_}.isdisjoint(map(type, leaves)):
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Context:
    """Forecasting context: past trajectory plus optional flat side features."""

    past: np.ndarray
    features: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "past", as_trajectory(self.past))
        object.__setattr__(self, "features", _float_array("features", self.features).reshape(-1))

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
        _check_value("id", self.id, "integer")
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
        arr = _float_array("samples", self.samples)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise ValueError(f"samples must be a K x T x D array with K >= 1, got shape {arr.shape}")
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
    return float(np.sqrt(_sq_dists(a.reshape(1, -1), b.reshape(1, -1))[0, 0]))


@functools.lru_cache(maxsize=64)
def _sq_dists_plan(x_shape: tuple, y_shape: tuple) -> tuple:
    """How ``_sq_dists`` lays out (..., N, F) and (..., P, F) operands of
    these shapes: the leading shape each reads as, the leading-axis order,
    the (sets, rows, F) shapes of both, and the result's shape and axis
    order back. A trainer asks for one pair of shapes at every evaluation,
    so each plan is worked out once."""
    *lead_x, n, f = x_shape
    *lead_y, p, _ = y_shape
    ndim = max(len(lead_x), len(lead_y))
    lead_x = (1,) * (ndim - len(lead_x)) + tuple(lead_x)
    lead_y = (1,) * (ndim - len(lead_y)) + tuple(lead_y)
    lead = np.broadcast_shapes(lead_x, lead_y)
    only_x = [i for i in range(ndim) if lead_y[i] != lead[i]]  # y broadcasts along these
    only_y = [i for i in range(ndim) if lead_x[i] != lead[i]]  # x broadcasts along these
    both = [i for i in range(ndim) if i not in only_x + only_y]
    order = both + only_x + only_y
    n_both, n_x, n_y = (math.prod(lead[i] for i in axes) for axes in (both, only_x, only_y))
    axes = both + only_x + [ndim] + only_y + [ndim + 1]  # the computed result's axes, numbered as in (*lead, N, P)
    out_shape = tuple((*lead, n, p)[i] for i in axes)
    back = tuple(np.argsort(axes).tolist())
    return lead_x, lead_y, order, (n_both, n_x * n, f), (n_both, n_y * p, f), out_shape, back


# Pair-features N·P·F of one set of ``_sq_dists`` at or below which numpy
# adds the squares; a larger set gets one ``cdist`` call. See ``_sq_dists``.
_LOOP_MAX_PAIR_FEATURES = 1 << 14

# Bytes of the (F, sets, N, P) differences of one block of sets in
# ``_sq_dists``'s numpy path (or of one set, if larger). Below glibc's default
# mmap threshold of 128 KiB, so every call takes its block from the heap; a
# 1 MiB block is a fresh mapping whose pages fault anew on every call.
_SQ_BLOCK_BYTES = 120 << 10


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (..., N, P) from the rows of each (..., N, F)
    ``x`` to those of the matching (..., P, F) ``y``, the leading axes
    broadcast. The squares are added in feature order (only the DPP kernel
    keeps another order; ``dpp._pairwise_sq_dists`` says why), which gives an
    exact zero between equal rows and zeros for F = 0.

    The operands are laid out as sets of (rows, F): one set per index of the
    leading axes along which both vary; along an axis where only one varies,
    its rows join that operand's rows of the set. So one flow set shared by M
    examples is one set, and no (..., N, P, F) difference tensor is built. A
    caller that wants one set per index of an axis along which only ``x``
    varies broadcasts ``y`` along it (``np.broadcast_to``).
    Two paths give the same bits, so the choice between them is only speed:

    * a set of at most ``_LOOP_MAX_PAIR_FEATURES`` (2^14) pair-features
      N·P·F: numpy forms the (F, sets, N, P) differences of a block of sets,
      at most ``_SQ_BLOCK_BYTES``, squares them, writes the first two
      squares' sum (the first square alone for F = 1) into the result and
      adds each later square one after another;
    * a larger set: one ``scipy.spatial.distance.cdist`` per set.

    On a 2-vCPU Xeon VM the numpy path costs about 1-2 ns per pair-feature
    plus 10-15 µs per call, ``cdist`` about 0.5 ns per pair-feature plus
    2-10 µs per call. Up to 2^14 the numpy path costs at most tens of µs
    more per set, where the first ``cdist`` costs a 0.3-0.4 s, 37 MB import
    of ``scipy.spatial``; beyond, ``cdist`` wins. So training on small sets
    and eval on up to about 800 examples (one (K, D) x (M, D) set per sample
    set and timestep, one (1, F) x (M, F) set per grouping anchor) never load
    scipy, while K = 100 sample sets (100·100·6 = 60 000) and eval's sets
    against thousands of futures take ``cdist``, which is imported here, on
    first use."""
    lead_x, lead_y, order, x_shape, y_shape, out_shape, back = _sq_dists_plan(x.shape, y.shape)
    xs = x.reshape(*lead_x, *x.shape[-2:]).transpose(*order, -2, -1).reshape(x_shape)
    ys = y.reshape(*lead_y, *y.shape[-2:]).transpose(*order, -2, -1).reshape(y_shape)
    (sets, n, f), p = x_shape, y_shape[1]
    if f == 0:
        out = np.zeros((sets, n, p))
    elif n * p * f <= _LOOP_MAX_PAIR_FEATURES:
        out = np.empty((sets, n, p))
        step = max(1, _SQ_BLOCK_BYTES // (n * p * f * out.itemsize))
        xt, yt = xs.transpose(2, 0, 1)[..., None], ys.transpose(2, 0, 1)[:, :, None]  # (F, sets, N, 1), (F, sets, 1, P)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass on silently, as from cdist
            diff = np.empty((f, min(step, sets), n, p))
            for first in range(0, sets, step):
                block = slice(first, first + step)
                acc = out[block]
                d = diff[:, : len(acc)]
                np.subtract(xt[:, block], yt[:, block], out=d)
                np.multiply(d, d, out=d)
                if f == 1:
                    np.copyto(acc, d[0])
                else:  # the squares in feature order, the first two straight into the result
                    np.add(d[0], d[1], out=acc)
                for square in d[2:]:
                    acc += square
    else:
        from scipy.spatial.distance import cdist

        out = np.empty((sets, n, p))
        for xi, yi, dists in zip(xs, ys, out):
            cdist(xi, yi, "sqeuclidean", out=dists)
    return out.reshape(out_shape).transpose(back)


def _pose_dists(samples: np.ndarray, futures: np.ndarray) -> np.ndarray:
    """Per-timestep pose distances (..., K, G, T) from each stack of samples
    (..., K, T, D) to the futures (G, T, D), the square roots of
    ``_sq_dists`` over each timestep: one (K, D) x (G, D) set per sample set
    and timestep, the futures broadcast over the sample sets, where such a
    set takes numpy's path (K·G·D <= 2^14); a larger one would cost one
    ``cdist`` call each, so then the sample sets' rows share one set per
    timestep. The layout changes no bit. Below D = 8
    numpy adds the squares in feature order too, so they equal
    ``norm(samples[..., None, :, :] - futures, axis=-1)`` bitwise; from D = 8
    on, numpy sums pairwise and the two can differ in the last bit.
    The array is a view of (..., T, K, G) memory, so a mean over T adds the
    timesteps in order, elementwise over (K, G)."""
    _check_same_shape(samples[(0,) * (samples.ndim - 2)], futures[0])  # (K, 1, D) must not pass as (K, T, D)
    lead = samples.shape[:-3]
    (k, _, d), g = samples.shape[-3:], len(futures)
    steps = futures.transpose(1, 0, 2)
    if math.prod(lead) > 1 and k * g * d <= _LOOP_MAX_PAIR_FEATURES:
        steps = np.broadcast_to(steps, lead + steps.shape)
    dists = _sq_dists(samples.swapaxes(-3, -2), steps)  # (..., T, K, G)
    return np.sqrt(dists, out=dists).transpose(*range(len(lead)), -2, -1, -3)


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

    The distances come from ``_sq_dists``, which adds the squares in feature
    order: in flattened (T, D) order for APD, over D for each step's
    distance. ASD adds the (T, B, K, K) step distances in time order and
    divides by T. Where T < 8 and T * D < 8 this equals the
    ``np.linalg.norm`` definition over (B, K, K, T, D) differences bitwise;
    beyond, numpy sums eight or more terms pairwise and the two can differ in
    the last bit."""
    b, k, t_steps, d = sets.shape
    if k < 2:
        raise ValueError("asd/fsd require at least 2 samples")
    flat = sets.reshape(b, k, t_steps * d)
    apd_vals = np.sqrt(_sq_dists(flat, flat)).sum(axis=(1, 2)) / (k * (k - 1))
    steps = sets.transpose(2, 0, 1, 3)  # (T, B, K, D)
    step_dists = np.sqrt(_sq_dists(steps, steps))  # (T, B, K, K)
    diag = np.arange(k)

    def nearest_mean(dists):  # (B, K, K) -> mean over i of min over j != i; overwrites the diagonal
        dists[:, diag, diag] = np.inf
        return dists.min(axis=2).mean(axis=1)

    return apd_vals, nearest_mean(step_dists.sum(axis=0) / t_steps), nearest_mean(step_dists[-1])


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
# (B, T, K, M) pose distances and (T, B, K, K) step distances. Each pass
# allocates about one more array of that size while it works (at most
# D / K of it for the futures broadcast over the block's sets). The grouping
# takes _GROUP_BLOCK_BYTES // (M * F * 8) anchors a block, so its (rows, M)
# distances stay below the bound. ``_sq_dists``'s numpy path works through a
# call in blocks of ``_SQ_BLOCK_BYTES`` of its own.
_GROUP_BLOCK_BYTES = 1 << 20


def _context_groups(dataset: Dataset, eps: float):
    """Yield each example's multi-modal member indices, in dataset order.

    Example j is a member of anchor i iff ||ctx_j - ctx_i|| <= eps on
    flattened contexts: pairwise to the anchor, no transitive closure. The
    distances are computed a block of anchors at a time with ``_sq_dists``,
    so memory stays bounded by the block size plus O(M) whatever the dataset
    size: one (1, F) x (M, F) set per anchor up to 2^14 / F examples, which
    numpy takes, so they group without scipy; beyond, one (R, F) x (M, F)
    set per block of anchors, one ``cdist`` call each. The layout changes no
    bit. ``_sq_dists`` adds the squares in feature order;
    below F = 8 context features numpy does too, so they equal
    ``norm(ctx[block, None] - ctx[None], axis=2)`` bitwise, and from F = 8 on
    they can differ in the last bit.
    A context is finite, so its distance to itself is exactly 0 and every
    anchor is its own member.
    """
    if not eps >= 0:  # also rejects NaN, which would leave every group a singleton
        raise ValueError(f"eps must be >= 0, got {eps}")
    ctx = np.stack([ex.context.flat() for ex in dataset.examples])
    rows = max(1, _GROUP_BLOCK_BYTES // ctx.nbytes)
    per_anchor = ctx.size <= _LOOP_MAX_PAIR_FEATURES  # else one cdist per block beats one per anchor
    for start in range(0, len(ctx), rows):
        anchors = ctx[start : start + rows, None]  # (R, 1, F)
        others = np.broadcast_to(ctx, (len(anchors), *ctx.shape)) if per_anchor else ctx
        yield from map(np.flatnonzero, np.sqrt(_sq_dists(anchors, others)[:, 0]) <= eps)


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
    all M futures, in order: one ``_pose_dists`` over a block of sets."""
    row_bytes = futures[..., 0].nbytes  # one sample's (M, T) distances
    for block in _blocks(sets, lambda s: len(s) * row_bytes):
        yield from zip(*_best_of_k(_pose_dists(block, futures)))


def _self_rows(sets: list):
    """Yield each sample set's (APD, ASD, FSD), in order, a block at a time."""
    for block in _blocks(sets, lambda s: len(s) * s[..., 0].nbytes):  # (T, K, K) step distances
        yield from zip(*_self_metrics(block))


def evaluate_sample_sets(dataset: Dataset, sample_sets: dict[int, SampleSet], eps: float) -> MetricsReport:
    """Compute the full metric table for per-example sample sets.

    ``sample_sets`` maps example id -> SampleSet, one for each dataset example
    and no other. ``eps`` is the multi-modal context-grouping threshold. Each
    example's ADE/FDE rows against every future are computed in blocks of
    examples; its multi-modal metrics average the rows at its group members.
    """
    return _evaluate_reports(dataset, [sample_sets], eps)[0]


def _evaluate_reports(dataset: Dataset, sample_set_maps: list, eps: float) -> list[MetricsReport]:
    """``evaluate_sample_sets`` of each id -> SampleSet map in
    ``sample_set_maps`` over the same dataset and eps, in one pass: each
    anchor's context group is formed once and serves every map's row."""
    examples = dataset.examples
    if not examples:
        raise ValueError("dataset has no examples")
    ids = {ex.id for ex in examples}
    # (M, T, D) in time-major memory: each timestep's (M, D) futures lie
    # together, so the per-timestep sets of _pose_dists read them in place
    futures = np.stack([ex.future for ex in examples], axis=1).transpose(1, 0, 2)
    per_map = []
    for sample_sets in sample_set_maps:
        missing, extra = sorted(ids - set(sample_sets)), sorted(set(sample_sets) - ids)
        if missing or extra:
            raise ValueError(f"samples misaligned with dataset: missing ids {missing}, extra ids {extra}")
        sets = [sample_sets[ex.id].samples for ex in examples]
        for s in sets:
            _check_same_shape(s[0], futures[0])
        per_map.append(zip(_accuracy_rows(sets, futures), _self_rows(sets)))
    tables, sizes = [[] for _ in per_map], []
    for i, (ex, members, *map_rows) in enumerate(zip(examples, _context_groups(dataset, eps), *per_map)):
        for rows, ((ade_row, fde_row), (apd_val, asd_val, fsd_val)) in zip(tables, map_rows):
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
    return [
        MetricsReport(
            per_example=tuple(rows),
            means={name: float(np.mean([r[name] for r in rows])) for name in METRIC_NAMES},
            group_sizes=tuple(sizes),
        )
        for rows in tables
    ]
