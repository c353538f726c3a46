"""Metric suite unit tests: worked examples and structural invariants."""
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtraj import (
    AffineFlowSet,
    Context,
    CrossroadDecoder,
    Dataset,
    DsfCodes,
    Example,
    GroundSet,
    KernelConfig,
    LinearDecoder,
    SampleSet,
    TabulatedDecoder,
    TrainConfig,
    ade,
    apply_flows,
    build_quality,
    build_similarity,
    invert_flow,
    train_dsf,
    apd,
    asd_fsd,
    build_multimodal_gt,
    evaluate_sample_sets,
    fde,
    mm_metrics,
    traj_distance,
)
from divtraj import energy, trajectory
from divtraj.fileio import read_model, read_samples
from divtraj.flows import _fold_features
from divtraj.trajectory import as_trajectory


def make_samples(*trajs):
    return SampleSet(samples=np.stack([np.asarray(t, dtype=float) for t in trajs]))


ZERO32 = np.zeros((3, 2))
ONES32 = np.ones((3, 2))


class TestTrajDistance:
    def test_identity(self):
        a = np.arange(6.0).reshape(3, 2)
        assert traj_distance(a, a) == 0.0

    def test_all_ones_offset(self):
        assert traj_distance(ZERO32, ONES32) == pytest.approx(np.sqrt(6.0))

    def test_final_step_3_4_5(self):
        b = ZERO32.copy()
        b[-1] = (3.0, 4.0)
        assert traj_distance(ZERO32, b) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            traj_distance(ZERO32, np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            traj_distance(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))

    def test_equals_pair_apd_bitwise(self):
        # both add the squares in feature order, so they agree to the last bit,
        # also from T * D = 8 on, where numpy's norm sums pairwise
        rng = np.random.default_rng(17)
        sizes = 0
        for _ in range(300):
            t, d = rng.integers(1, 13), rng.integers(1, 4)
            a, b = rng.normal(size=(2, t, d)) * 10.0 ** rng.uniform(-3, 3)
            assert traj_distance(a, b) == apd(SampleSet(np.stack([a, b])))
            sizes += t * d >= 8
        assert sizes > 100


class TestAde:
    def test_exact_sample(self):
        gt = np.arange(6.0).reshape(3, 2)
        assert ade(make_samples(gt), gt) == 0.0

    def test_unit_offset_every_step(self):
        gt = ZERO32
        sample = gt + np.array([1.0, 0.0])
        assert ade(make_samples(sample), gt) == pytest.approx(1.0)

    def test_min_of_two_offsets(self):
        gt = ZERO32
        s1 = gt + np.array([0.0, 1.0])
        s2 = gt + np.array([0.0, 2.0])
        assert ade(make_samples(s1, s2), gt) == pytest.approx(1.0)

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(samples=np.zeros((0, 3, 2)))


class TestFde:
    def test_exact_sample(self):
        gt = np.arange(6.0).reshape(3, 2)
        assert fde(make_samples(gt), gt) == 0.0

    def test_final_offset(self):
        s = ZERO32.copy()
        s[-1] = (0.0, 3.0)
        assert fde(make_samples(s), ZERO32) == pytest.approx(3.0)

    def test_min_of_two(self):
        s1 = ZERO32.copy()
        s1[-1] = (2.0, 0.0)
        s2 = ZERO32.copy()
        s2[-1] = (0.0, 0.5)
        assert fde(make_samples(s1, s2), ZERO32) == pytest.approx(0.5)


class TestApd:
    def test_identical_pair(self):
        assert apd(make_samples(ONES32, ONES32)) == 0.0

    def test_pair_distance(self):
        d = traj_distance(ZERO32, ONES32)
        assert apd(make_samples(ZERO32, ONES32)) == pytest.approx(d)

    def test_three_collinear(self):
        # gaps d, d, 2d counted twice each -> 8d / 6 = 4d/3
        a, b, c = ZERO32, ZERO32 + 1.0, ZERO32 + 2.0
        d = traj_distance(a, b)
        assert apd(make_samples(a, b, c)) == pytest.approx(4.0 * d / 3.0)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            apd(make_samples(ZERO32))


class TestAsdFsd:
    def test_all_identical(self):
        assert asd_fsd(make_samples(ONES32, ONES32, ONES32)) == (0.0, 0.0)

    def test_pair_constant_offset(self):
        off = np.array([0.6, 0.8])  # norm 1 at every step
        vals = asd_fsd(make_samples(ZERO32, ZERO32 + off))
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(1.0)

    def test_duplicate_contributes_zero(self):
        far = ZERO32 + 10.0
        asd_val, fsd_val = asd_fsd(make_samples(far, ZERO32, ZERO32))
        # samples 2 and 3 coincide: their nearest-other distances are 0
        per_step = np.linalg.norm(far - ZERO32, axis=1).mean()
        assert asd_val == pytest.approx(per_step / 3.0)
        assert fsd_val == pytest.approx(np.linalg.norm(far[-1]) / 3.0)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            asd_fsd(make_samples(ZERO32))


def _dataset_from_contexts(pasts, futures):
    examples = [
        Example(context=Context(past=p), future=f, id=i)
        for i, (p, f) in enumerate(zip(pasts, futures))
    ]
    return Dataset(examples=tuple(examples))


class TestDataset:
    @pytest.mark.parametrize(
        "past, future, features",
        [
            (np.zeros((2, 2)), np.zeros((4, 2)), np.zeros(2)),  # another horizon
            (np.zeros((1, 2)), np.zeros((3, 2)), np.zeros(2)),  # another past length
            (np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(3)),  # another feature count
            (np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(0)),  # no features
        ],
    )
    def test_inhomogeneous_examples_rejected(self, past, future, features):
        first = Example(context=Context(past=np.zeros((2, 2)), features=np.zeros(2)), future=ZERO32, id=0)
        other = Example(context=Context(past=past, features=features), future=future, id=1)
        with pytest.raises(ValueError, match="dataset examples are not shape-homogeneous"):
            Dataset(examples=(first, other))

    @pytest.mark.parametrize("example_id", [1.7, True, "2", None, 2.0])
    def test_non_integer_id_rejected(self, example_id):
        # int() would read 1.7 and true as 1, and "2" as 2
        with pytest.raises(ValueError, match=f"^id must be an integer, got {re.escape(repr(example_id))}$"):
            Example(context=Context(past=np.zeros((2, 2))), future=ZERO32, id=example_id)

    def test_negative_id_rejected(self):
        # a negative id reached flows.sample_noise, which failed with numpy's message
        with pytest.raises(ValueError, match="^id must be >= 0, got -1$"):
            Example(context=Context(past=np.zeros((2, 2))), future=ZERO32, id=-1)

    def test_numpy_integer_id_accepted(self):
        assert Example(context=Context(past=np.zeros((2, 2))), future=ZERO32, id=np.int64(3)).id == 3


class TestBuildMultimodalGt:
    def test_eps_zero_distinct_contexts(self):
        pasts = [np.full((2, 2), float(i)) for i in range(3)]
        futures = [np.full((3, 2), 10.0 + i) for i in range(3)]
        ds = _dataset_from_contexts(pasts, futures)
        groups = build_multimodal_gt(ds, 0.0)
        for i in range(3):
            assert len(groups[i]) == 1
            np.testing.assert_array_equal(groups[i][0], futures[i])

    def test_identical_contexts_share_everything(self):
        pasts = [np.zeros((2, 2))] * 3
        futures = [np.full((3, 2), float(i)) for i in range(3)]
        groups = build_multimodal_gt(_dataset_from_contexts(pasts, futures), 0.0)
        for i in range(3):
            assert len(groups[i]) == 3

    def test_pairwise_to_anchor_not_transitive(self):
        # contexts on a line at 0, 1, 2 with eps = 1.5: a<->b, b<->c but not a<->c
        pasts = [np.full((2, 2), 0.0), np.full((2, 2), 0.5), np.full((2, 2), 1.0)]
        futures = [np.full((3, 2), float(i)) for i in range(3)]
        ds = _dataset_from_contexts(pasts, futures)
        eps = np.linalg.norm(pasts[1] - pasts[0]) * 1.2  # joins adjacent only
        groups = build_multimodal_gt(ds, eps)
        assert len(groups[0]) == 2 and len(groups[1]) == 3 and len(groups[2]) == 2

    def test_negative_eps_rejected(self):
        ds = _dataset_from_contexts([np.zeros((2, 2))], [np.zeros((3, 2))])
        with pytest.raises(ValueError):
            build_multimodal_gt(ds, -0.1)

    def test_nan_eps_rejected_inf_groups_everything(self):
        # NaN compares False with every distance: groups would silently shrink to the anchor
        ds = _dataset_from_contexts([np.zeros((2, 2)), np.ones((2, 2))], [np.zeros((3, 2))] * 2)
        with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
            build_multimodal_gt(ds, float("nan"))
        assert [len(g) for g in build_multimodal_gt(ds, float("inf")).values()] == [2, 2]

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_blocked_groups_equal_dense_definition(self, monkeypatch, block_rows):
        rng = np.random.default_rng(4)
        pasts = rng.normal(size=(20, 2, 2))
        pasts[5] = pasts[2]  # an exact duplicate
        ds = _dataset_from_contexts(pasts, rng.normal(size=(20, 3, 2)))
        ctx = np.stack([ex.context.flat() for ex in ds.examples])
        if block_rows is not None:
            monkeypatch.setattr(trajectory, "_GROUP_BLOCK_BYTES", block_rows * ctx.nbytes)
        dense = np.linalg.norm(ctx[:, None, :] - ctx[None, :, :], axis=2)
        for eps in (0.0, dense[0, 7], dense[3, 11], 1.5, np.inf):
            groups = build_multimodal_gt(ds, eps)
            for i, ex in enumerate(ds.examples):
                expected = [ds.examples[j].future for j in np.flatnonzero(dense[i] <= eps)]
                assert len(groups[ex.id]) == len(expected)
                assert all(a is b for a, b in zip(groups[ex.id], expected))
        assert len(build_multimodal_gt(ds, dense[0, 7])[0]) >= 2  # the boundary is inclusive


class TestMmMetrics:
    def test_singleton_reduces_to_unimodal(self):
        gt = np.arange(6.0).reshape(3, 2)
        ss = make_samples(gt + 0.5, gt + 1.0)
        assert mm_metrics(ss, [gt]) == (ade(ss, gt), fde(ss, gt))

    def test_duplicate_gt_unchanged(self):
        gt = np.arange(6.0).reshape(3, 2)
        ss = make_samples(gt + 0.5)
        assert mm_metrics(ss, [gt, gt]) == (ade(ss, gt), fde(ss, gt))

    def test_two_gts_average(self):
        gt = ZERO32
        gt2 = gt + np.array([1.0, 0.0])
        ss = make_samples(gt)
        mmade, mmfde = mm_metrics(ss, [gt, gt2])
        assert mmade == pytest.approx(0.5)
        assert mmfde == pytest.approx(0.5)

    def test_empty_gt_set_rejected(self):
        with pytest.raises(ValueError):
            mm_metrics(make_samples(ZERO32), [])


class TestInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(5, 4, 3))
        gt = rng.normal(size=(4, 3))
        perm = rng.permutation(5)
        a, b = SampleSet(samples=samples), SampleSet(samples=samples[perm])
        assert ade(a, gt) == pytest.approx(ade(b, gt), rel=1e-12)
        assert fde(a, gt) == pytest.approx(fde(b, gt), rel=1e-12)
        assert apd(a) == pytest.approx(apd(b), rel=1e-12)
        assert asd_fsd(a) == pytest.approx(asd_fsd(b), rel=1e-12)

    def test_appending_samples_never_increases_error_metrics(self):
        rng = np.random.default_rng(7)
        gt = rng.normal(size=(4, 2))
        samples = rng.normal(size=(8, 4, 2))
        gts = [gt, gt + 0.3]
        prev = (np.inf, np.inf, np.inf, np.inf)
        for k in range(1, 9):
            ss = SampleSet(samples=samples[:k])
            mmade, mmfde = mm_metrics(ss, gts)
            cur = (ade(ss, gt), fde(ss, gt), mmade, mmfde)
            assert all(c <= p + 1e-12 for c, p in zip(cur, prev))
            prev = cur

    def test_diversity_metrics_zero_iff_coincident(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 2))
        ss = SampleSet(samples=np.stack([base] * 4))
        asd_val, fsd_val = asd_fsd(ss)
        assert apd(ss) < 1e-12 and asd_val < 1e-12 and fsd_val < 1e-12
        ss2 = SampleSet(samples=np.stack([base, base + 1e-3, base, base]))
        assert apd(ss2) > 1e-12

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=(6, 5, 2))
        gt = rng.normal(size=(5, 2))
        gt2 = rng.normal(size=(5, 2))
        shift = np.array([12.3, -4.5])
        a = SampleSet(samples=samples)
        b = SampleSet(samples=samples + shift)
        before = (
            apd(a),
            *asd_fsd(a),
            ade(a, gt),
            fde(a, gt),
            *mm_metrics(a, [gt, gt2]),
        )
        after = (
            apd(b),
            *asd_fsd(b),
            ade(b, gt + shift),
            fde(b, gt + shift),
            *mm_metrics(b, [gt + shift, gt2 + shift]),
        )
        np.testing.assert_allclose(after, before, rtol=1e-10)


class TestEvaluateSampleSets:
    def test_table_and_means(self):
        rng = np.random.default_rng(5)
        pasts = [rng.normal(size=(2, 2)) for _ in range(4)]
        futures = [rng.normal(size=(3, 2)) for _ in range(4)]
        ds = _dataset_from_contexts(pasts, futures)
        sets = {
            ex.id: SampleSet(samples=np.stack([ex.future, ex.future + 0.1]))
            for ex in ds.examples
        }
        report = evaluate_sample_sets(ds, sets, eps=0.0)
        assert len(report.per_example) == 4
        assert report.means["ade"] == pytest.approx(0.0)
        # eps = 0 with distinct contexts: multi-modal reduces to unimodal
        assert report.means["mmade"] == pytest.approx(report.means["ade"])
        assert report.means["mmfde"] == pytest.approx(report.means["fde"])

    def test_missing_ids_rejected(self):
        ds = _dataset_from_contexts([np.zeros((2, 2))], [np.zeros((3, 2))])
        with pytest.raises(ValueError, match="missing"):
            evaluate_sample_sets(ds, {}, eps=0.0)

    def test_extra_ids_rejected_not_dropped(self):
        ds = _dataset_from_contexts([np.full((2, 2), i) for i in range(3)], [np.zeros((3, 2))] * 3)
        sets = {i: make_samples(ZERO32, ONES32) for i in range(5)}
        with pytest.raises(ValueError, match=re.escape("misaligned with dataset: missing ids [], extra ids [3, 4]")):
            evaluate_sample_sets(ds, sets, eps=0.0)
        with pytest.raises(ValueError, match=re.escape("missing ids [2], extra ids [7]")):
            evaluate_sample_sets(ds, {0: sets[0], 1: sets[1], 7: sets[2]}, eps=0.0)
        # the empty-dataset check comes first
        with pytest.raises(ValueError, match="dataset has no examples"):
            evaluate_sample_sets(Dataset(examples=()), sets, eps=0.0)

    def test_nan_eps_rejected(self):
        ds = _dataset_from_contexts([np.zeros((2, 2))], [np.zeros((3, 2))])
        sets = {0: make_samples(ZERO32, ONES32)}
        with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
            evaluate_sample_sets(ds, sets, eps=float("nan"))

    @pytest.mark.parametrize("shape", [(2, 1, 2), (2, 3, 3), (1, 1, 2), (5, 3, 3)])
    def test_mis_shaped_sample_set_rejected_not_broadcast(self, shape):
        # (K, 1, D) would broadcast silently against T = 3 futures; the shape
        # is checked before the sets are stacked, whatever their K
        ds = _dataset_from_contexts([np.zeros((2, 2)), np.ones((2, 2))], [ZERO32, ONES32])
        bad = SampleSet(samples=np.zeros(shape))
        message = re.escape(f"{shape[1:]} vs (3, 2)")
        with pytest.raises(ValueError, match=message):
            evaluate_sample_sets(ds, {0: make_samples(ZERO32, ONES32), 1: bad}, eps=np.inf)
        with pytest.raises(ValueError, match=message):
            ade(bad, ZERO32)
        with pytest.raises(ValueError, match=message):
            fde(bad, ZERO32)
        with pytest.raises(ValueError, match=message):
            mm_metrics(bad, [ZERO32, ONES32])

    @staticmethod
    def _case(name, rng):
        m, n_features, ids = 20, 0, None
        pasts = rng.normal(scale=0.5, size=(m, 2, 2))
        if name == "duplicated contexts":
            pasts[1::2] = pasts[0::2]
        if name == "side features":
            n_features = 3
        if name == "non-contiguous ids":
            ids = [int(j) for j in rng.permutation(1000)[:m]]
        feats = rng.normal(size=(m, n_features))
        examples = tuple(
            Example(context=Context(past=pasts[i], features=feats[i]), future=rng.normal(size=(3, 2)),
                    id=i if ids is None else ids[i])
            for i in range(m)
        )
        ds = Dataset(examples=examples)
        sets = {ex.id: SampleSet(samples=rng.normal(size=(4, 3, 2))) for ex in examples}
        ctx = np.stack([ex.context.flat() for ex in examples])
        dense = np.linalg.norm(ctx[:, None, :] - ctx[None, :, :], axis=2)
        eps = {"eps zero": 0.0, "eps inf": np.inf, "exact pair distance": dense[2, 9]}.get(name, 1.0)
        return ds, sets, eps, ctx.nbytes

    @pytest.mark.parametrize(
        "name",
        ["duplicated contexts", "exact pair distance", "eps zero", "eps inf", "side features",
         "non-contiguous ids", "several grouping blocks"],
    )
    def test_rows_equal_per_pair_definition_bitwise(self, monkeypatch, name):
        ds, sets, eps, row_bytes = self._case(name, np.random.default_rng(21))
        if name == "several grouping blocks":
            monkeypatch.setattr(trajectory, "_GROUP_BLOCK_BYTES", 3 * row_bytes)  # 7 blocks, the last ragged
        groups = build_multimodal_gt(ds, eps)
        expected = []
        for ex in ds.examples:
            ss = sets[ex.id]
            asd_val, fsd_val = asd_fsd(ss)
            mmade, mmfde = mm_metrics(ss, groups[ex.id])
            # the per-pair loop mm_metrics stands for
            assert mmade == float(np.mean([ade(ss, gt) for gt in groups[ex.id]]))
            assert mmfde == float(np.mean([fde(ss, gt) for gt in groups[ex.id]]))
            expected.append({
                "id": ex.id, "apd": apd(ss), "asd": asd_val, "fsd": fsd_val,
                "ade": ade(ss, ex.future), "fde": fde(ss, ex.future), "mmade": mmade, "mmfde": mmfde,
            })
        report = evaluate_sample_sets(ds, sets, eps)
        assert report.per_example == tuple(expected)
        assert report.group_sizes == tuple(len(groups[ex.id]) for ex in ds.examples)
        if name == "exact pair distance":
            assert len(groups[ds.examples[2].id]) >= 2  # the pair at distance eps is grouped
        if name == "duplicated contexts":
            assert min(report.group_sizes) >= 2

    def test_memory_bounded_at_3000_examples(self):
        # a dense (M, M, F) context-difference tensor would peak near 700 MiB
        # here; at K = 10 and eps = inf, unblocked (K, M, T) pose distances
        # or stacked self distances would grow with M as well
        rng = np.random.default_rng(8)
        m = 3000
        ds = _dataset_from_contexts(rng.normal(size=(m, 2, 2)), rng.normal(size=(m, 3, 2)))
        for k, eps, size in ((2, 0.0, 1), (10, np.inf, m)):
            sets = {i: SampleSet(samples=s) for i, s in enumerate(rng.normal(size=(m, k, 3, 2)))}
            tracemalloc.start()
            try:
                report = evaluate_sample_sets(ds, sets, eps=eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.group_sizes == (size,) * m
            assert peak < 32 * 2**20, f"K={k}: traced peak {peak / 2**20:.1f} MiB"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset has no examples"):
            evaluate_sample_sets(Dataset(examples=()), {}, eps=1.0)

    def test_k1_set_rejected(self):
        ds = _dataset_from_contexts([np.zeros((2, 2)), np.ones((2, 2))], [ZERO32, ONES32])
        sets = {0: make_samples(ZERO32, ONES32), 1: make_samples(ONES32)}
        # the first self metric taken per example was ASD/FSD, so this is the message
        with pytest.raises(ValueError, match="asd/fsd require at least 2 samples"):
            evaluate_sample_sets(ds, sets, eps=np.inf)
        with pytest.raises(ValueError, match="apd requires at least 2 samples"):
            apd(sets[1])

    @pytest.mark.parametrize("groups", ["eps 1", "eps zero", "eps inf", "paired contexts"])
    @pytest.mark.parametrize("blocks", ["one block", "several blocks", "cdist sets"])
    def test_mixed_k_rows_equal_per_set_definitions(self, monkeypatch, blocks, groups):
        rng = np.random.default_rng(31)
        m, ks = 23, (2, 5, 10, 3)
        pasts = rng.normal(scale=0.5, size=(m, 2, 2))
        if groups == "paired contexts":  # runs of two anchors that share a partial group
            pasts[1::2] = pasts[0::2][: m // 2]
        ds = _dataset_from_contexts(pasts, rng.normal(size=(m, 3, 2)))
        eps = {"eps zero": 0.0, "eps inf": np.inf}.get(groups, 1.0)
        sets = {i: SampleSet(samples=rng.normal(size=(ks[i % 4], 3, 2))) for i in range(m)}
        if blocks == "several blocks":  # a few examples per pass, ragged last block
            monkeypatch.setattr(trajectory, "_GROUP_BLOCK_BYTES", 2 * 10 * m * 3 * 8)
        if blocks == "cdist sets":  # as for thousands of examples: per-timestep pose sets, a context set per block
            monkeypatch.setattr(trajectory, "_LOOP_MAX_PAIR_FEATURES", 0)
        report = evaluate_sample_sets(ds, sets, eps=eps)
        groups_of = build_multimodal_gt(ds, eps)
        sizes = report.group_sizes
        assert sizes == tuple(len(groups_of[ex.id]) for ex in ds.examples)
        low, high = {"eps zero": (1, 1), "eps inf": (m, m), "paired contexts": (2, m - 1)}.get(groups, (1, m - 1))
        assert low <= min(sizes) and max(sizes) <= high
        for ex, row in zip(ds.examples, report.per_example):
            arr = sets[ex.id].samples
            ades = np.stack([_ade_fde_ref(arr, gt) for gt in groups_of[ex.id]])
            assert row == {
                "id": ex.id, "apd": _apd_ref(arr), "asd": _asd_fsd_ref(arr)[0], "fsd": _asd_fsd_ref(arr)[1],
                "ade": _ade_fde_ref(arr, ex.future)[0], "fde": _ade_fde_ref(arr, ex.future)[1],
                "mmade": float(np.mean(ades[:, 0])), "mmfde": float(np.mean(ades[:, 1])),
            }

    def test_sets_scored_against_their_group_only(self, monkeypatch):
        # every set was scored against all M futures, O(M^2 K T) at any eps
        rng = np.random.default_rng(5)
        m = 60
        ds = _dataset_from_contexts(rng.normal(size=(m, 2, 2)), rng.normal(size=(m, 3, 2)))
        sets = {i: SampleSet(samples=s) for i, s in enumerate(rng.normal(size=(m, 4, 3, 2)))}
        futures_seen, pose_dists_of = [], trajectory._pose_dists

        def pose_dists(samples, futures):
            futures_seen.append(len(futures))
            return pose_dists_of(samples, futures)

        monkeypatch.setattr(trajectory, "_pose_dists", pose_dists)
        sizes = evaluate_sample_sets(ds, sets, eps=0.5).group_sizes
        assert 1 < max(sizes) < m
        assert futures_seen and max(futures_seen) <= max(sizes)


# The per-set definitions the batched passes replaced, kept as references.
def _pose_dists_ref(samples, futures):
    return np.linalg.norm(samples[:, None] - futures[None], axis=3)


def _ade_fde_ref(samples, gt):
    dists = _pose_dists_ref(samples, gt[None])
    return float(dists.mean(axis=2).min(axis=0)[0]), float(dists[:, :, -1].min(axis=0)[0])


def _sum_in_order(terms):
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _apd_ref(arr):
    """APD of one (K, T, D) set, the squares added in flattened (T, D) order."""
    k = len(arr)
    flat = arr.reshape(k, -1)
    squares = [(flat[:, None, f] - flat[None, :, f]) ** 2 for f in range(flat.shape[1])]
    return float(np.sqrt(_sum_in_order(squares)).sum() / (k * (k - 1)))


def _asd_fsd_ref(arr):
    """ASD/FSD of one (K, T, D) set: each step's squares added over D, the
    step distances added in time order."""
    k, t_steps, dim = arr.shape
    diff = arr[:, None] - arr[None, :]
    steps = [np.sqrt(_sum_in_order([diff[:, :, t, j] ** 2 for j in range(dim)])) for t in range(t_steps)]
    off = ~np.eye(k, dtype=bool)
    asd_val = (_sum_in_order(steps) / t_steps)[off].reshape(k, k - 1).min(axis=1).mean()
    fsd_val = steps[-1][off].reshape(k, k - 1).min(axis=1).mean()
    return float(asd_val), float(fsd_val)


def _norm_self_metrics_ref(arr):
    """(APD, ASD, FSD) of one (K, T, D) set by ``np.linalg.norm`` over dense differences."""
    k = len(arr)
    flat = arr.reshape(k, -1)
    apd_val = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=2).sum() / (k * (k - 1))
    step_dists = np.linalg.norm(arr[:, None] - arr[None, :], axis=3)
    off = ~np.eye(k, dtype=bool)
    asd_val = step_dists.mean(axis=2)[off].reshape(k, k - 1).min(axis=1).mean()
    fsd_val = step_dists[:, :, -1][off].reshape(k, k - 1).min(axis=1).mean()
    return float(apd_val), float(asd_val), float(fsd_val)


class TestBatchedDefinitions:
    @pytest.mark.parametrize("t_steps", [1, 3, 12])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 12])
    def test_pose_dists_equal_norm_definition(self, dim, t_steps):
        rng = np.random.default_rng(dim * 100 + t_steps)
        scale = 10.0 ** rng.integers(-3, 4, size=(10, t_steps, dim))  # six decades of magnitude
        samples, futures = rng.normal(size=(10, t_steps, dim)) * scale, rng.normal(size=(37, t_steps, dim))
        got, want = trajectory._pose_dists(samples, futures), _pose_dists_ref(samples, futures)
        ades, fdes = trajectory._best_of_k(got)
        ref_ades, ref_fdes = want.mean(axis=2).min(axis=0), want[:, :, -1].min(axis=0)
        # numpy sums eight or more squares pairwise, cdist in order; ADE adds
        # the T step distances in order, as numpy's reduction over a
        # contiguous T axis does below eight steps, pairwise above
        if dim < 8:
            assert np.array_equal(got, want) and np.array_equal(fdes, ref_fdes)
            assert np.array_equal(ades, ref_ades) or t_steps >= 8
        rtol = (dim + t_steps) * np.finfo(float).eps
        for new, ref in ((got, want), (ades, ref_ades), (fdes, ref_fdes)):
            np.testing.assert_allclose(new, ref, rtol=rtol, atol=0)

    @pytest.mark.parametrize("t_steps", [3, 12])
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_self_metrics_equal_per_set_definitions(self, k, t_steps):
        rng = np.random.default_rng(k + t_steps)
        sets = rng.normal(size=(5, k, t_steps, 2))
        sets[1, -1] = sets[1, 0]  # a duplicated sample: a nearest distance of exactly 0
        apd_vals, asd_vals, fsd_vals = trajectory._self_metrics(sets)
        for i, arr in enumerate(sets):
            asd_val, fsd_val = _asd_fsd_ref(arr)
            assert (float(apd_vals[i]), float(asd_vals[i]), float(fsd_vals[i])) == (_apd_ref(arr), asd_val, fsd_val)
            assert (apd(SampleSet(samples=arr)), asd_fsd(SampleSet(samples=arr))) == (_apd_ref(arr), (asd_val, fsd_val))

    @pytest.mark.parametrize(
        "t_steps, dim", [(t, d) for t in (1, 3, 7) for d in (1, 2, 3) if t * d < 8]
    )
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_self_metrics_equal_norm_definition_below_eight_terms(self, k, t_steps, dim):
        # numpy adds fewer than eight terms in order, so below eight steps and
        # eight flattened features the norm definition is the feature-order one
        rng = np.random.default_rng(100 * k + 10 * t_steps + dim)
        scale = 10.0 ** rng.integers(-3, 4, size=(4, k, t_steps, dim))  # six decades of magnitude
        sets = rng.normal(size=(4, k, t_steps, dim)) * scale
        sets[1, -1] = sets[1, 0]  # a duplicated sample: a nearest distance of exactly 0
        sets[2] = sets[2, :1]  # every sample the same: APD, ASD and FSD exactly 0
        got = trajectory._self_metrics(sets)
        for i, arr in enumerate(sets):
            assert tuple(float(vals[i]) for vals in got) == _norm_self_metrics_ref(arr)


def _feature_loop_sq_dists(x, y):
    """(..., N, P) squared distances between the rows of (..., N, F) ``x`` and
    (..., P, F) ``y``, leading axes broadcast, the squares added one feature
    after another."""
    acc = np.zeros(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-2]))
    for f in range(x.shape[-1]):
        d = x[..., :, None, f] - y[..., None, :, f]
        acc = acc + d * d
    return acc


class TestSqDists:
    """The one pairwise squared-distance function, in the shape each of its
    callers gives it: its bits, when it calls ``cdist``, and its square root
    against ``cdist``'s own Euclidean distance."""

    @pytest.mark.parametrize(
        "caller, shapes, calls",
        [
            # the diversity and similar-slice energies: (v, v), one set per
            # sample set; from 7 x 7 x 12 up to K = 100 at F = 6 (the K = 100
            # training sets), and at F = 8 just below and above 2^14
            *(
                ("set", ((2, 3, k, f),), [])
                for k, f in ((7, 0), (7, 1), (7, 6), (7, 12), (45, 8), (46, 8), (100, 6), (100, 0))
            ),
            # the reconstruction energy, (v, gt): a (1, F) x (K, F) pair set
            # per target and noise draw; shared flows lay out as one set of
            # every target against all E * K samples, (40, 6) x (300, 6) at
            # K = 100, which numpy takes
            ("target", ((1, 3, 5, 6), (4, 1, 6)), []),
            ("target", ((1, 3, 100, 6), (40, 1, 6)), []),
            # featurized: one set per example
            ("target", ((4, 3, 5, 6), (4, 1, 6)), []),
            ("target", ((5, 6), (6,)), []),
            # pose distances, (..., T, K, D) x (T, G, D): a (K, D) x (G, D)
            # pair set per sample set and timestep, the sample sets' rows
            # laid out as one set per timestep; ade/fde/mm_metrics send one
            # sample set, eval a block of 14 K = 10 sets against 300 futures
            # (6000 pair-features a pair set, 84 000 a laid-out set: numpy);
            # against 1000 futures each pair set is above 2^14 and each
            # timestep takes one cdist call
            ("pose", ((3, 10, 2), (3, 37, 2)), []),
            ("pose", ((14, 3, 10, 2), (3, 300, 2)), []),
            ("pose", ((2, 3, 10, 2), (3, 1000, 2)), [((20, 2), (1000, 2))] * 3),
            # context grouping, (R, 1, F) x (M, F): a (1, F) x (M, F) pair set
            # per anchor, the anchors laid out as one set; at 2^14 and one row
            # above, and 109 anchors against 300 contexts (130 800
            # pair-features a laid-out set: numpy)
            ("context", ((5, 1, 4), (300, 4)), []),
            ("context", ((109, 1, 4), (300, 4)), []),
            ("context", ((3, 1, 8), (2048, 8)), []),
            ("context", ((3, 1, 8), (2049, 8)), [((3, 8), (2049, 8))]),
        ],
    )
    def test_feature_order_bits_and_cdist_calls(self, monkeypatch, caller, shapes, calls):
        import scipy.spatial.distance

        rng = np.random.default_rng(sum(map(sum, shapes)))
        ops = [rng.normal(scale=3.0, size=s) * 10.0 ** rng.integers(-3, 4, size=s) for s in shapes]
        x, y = {"set": (ops[0], ops[0]), "target": (ops[-1][..., None, :], ops[0])}.get(caller, ops)
        cdist, seen = scipy.spatial.distance.cdist, []

        def counting_cdist(xa, xb, *args, **kwargs):
            seen.append((xa.shape, xb.shape))
            return cdist(xa, xb, *args, **kwargs)

        # numpy adds the squares of a pair set of at most 2^14 pair-features,
        # and of a set against itself; a larger pair set of two operands
        # takes one cdist call per laid-out set
        n, p, f = x.shape[-2], y.shape[-2], x.shape[-1]
        assert bool(calls) == (n * p * f > trajectory._LOOP_MAX_PAIR_FEATURES and caller != "set")
        monkeypatch.setattr(scipy.spatial.distance, "cdist", counting_cdist)
        dists = trajectory._sq_dists(x, y)
        assert seen == calls
        assert np.array_equal(dists, _feature_loop_sq_dists(x, y))
        lead = dists.shape[:-2]
        xb, yb = np.broadcast_to(x, lead + x.shape[-2:]), np.broadcast_to(y, lead + y.shape[-2:])
        euclidean = np.stack([cdist(xb[i], yb[i]) for i in np.ndindex(lead)]).reshape(dists.shape)
        assert np.array_equal(np.sqrt(dists), euclidean)
        if caller in ("pose", "context"):  # the same bits with y broadcast to one laid-out set per pair set
            assert np.array_equal(trajectory._sq_dists(x, yb), dists)
        if caller == "set":
            # the energies take these bits up to 2^14 and the Gram form beyond,
            # off by at most a few eps times the set's squared spread
            v, ref, k = x, trajectory._sq_dists(x, x, gram=True), x.shape[-2]
            if n * p * f <= trajectory._LOOP_MAX_PAIR_FEATURES:
                assert np.array_equal(ref, dists)
            else:
                spread = ((x - x.mean(axis=-2, keepdims=True)) ** 2).sum(axis=-1).max(axis=-1)
                assert np.all(np.abs(ref - dists) <= 8 * f * np.finfo(float).eps * spread[..., None, None])
            assert np.all(dists[..., np.arange(k), np.arange(k)] == 0.0)
            off = 1.0 - np.eye(k)
            e_d = energy._diversity(v, 5.0)[0]
            assert np.array_equal(e_d, (np.exp(-ref / 5.0) * off).sum(axis=(-2, -1)) / (k * (k - 1)))
            e_s = energy._similarity(v)[0]
            assert np.array_equal(e_s, ref.sum(axis=(-2, -1)) / (k * (k - 1)))
        if caller == "target":  # the energies never call cdist
            seen.clear()
            energy._reconstruction(*ops)
            assert seen == []

    def test_many_small_sets_hold_one_block_besides_the_result(self):
        # featurized DLow sends thousands of small sets in one call: besides
        # the (..., N, P) result, one block of differences is held at a time
        import tracemalloc

        x = np.random.default_rng(3).normal(size=(3000, 8, 10, 6))
        tracemalloc.start()
        try:
            dists = trajectory._sq_dists(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dists.shape == (3000, 8, 10, 10)
        assert peak <= dists.nbytes + 2 * trajectory._GROUP_BLOCK_BYTES
        assert np.array_equal(dists[1234, 5], _feature_loop_sq_dists(x[1234, 5], x[1234, 5]))

    def test_set_against_itself_takes_numpy_in_row_blocks(self):
        # a self-distance larger than one block takes blocks of its rows, so
        # at K = 1000 no (F, K, K) difference tensor is built: the peak is
        # the 8 MB result and one block
        x = np.random.default_rng(4).normal(size=(1000, 6))
        tracemalloc.start()
        try:
            dists = trajectory._sq_dists(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dists.nbytes == 8_000_000 and peak < 12_000_000
        assert np.array_equal(dists, _feature_loop_sq_dists(x, x))


def _read_samples_of(samples):
    """``read_samples`` of a file with one record holding ``samples``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        header = {"format_version": 1, "kind": "samples", "meta": {}}
        path.write_text(json.dumps(header) + "\n" + json.dumps({"id": 0, "samples": samples}) + "\n")
        return read_samples(path)


def _read_model_of(mode, **params):
    """``read_model`` of a K = 2, n_z = 2 model file with these ``params``."""
    decoder = {"kind": "crossroad", "mode_probs": [0.8, 0.1, 0.1], "speed": 1.0, "t_steps": 3, "within_mode_scale": 0.3}
    model = {"mode": mode, "n_z": 2, "K": 2, "params": params, "decoder": decoder, "train_config": {}, "seed": 0}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(dict(model, format_version=1)))
        return read_model(path)


_FLOWS = AffineFlowSet.identity(2, 2)
_EXAMPLE = Example(context=Context(past=np.zeros((2, 2))), future=ZERO32, id=0)
_LINEAR = {"W": np.ones((6, 2)), "c0": np.zeros(6), "t_steps": 3, "state_dim": 2}


class TestArrayInputs:
    """Every array taken from a caller or a file passes one checker: an entry
    that is not a finite number, or a ragged nesting, is a ValueError that
    names the array."""

    # id: (the name in the message, a valid value, a call that reads it)
    READERS = {
        "as_trajectory": ("trajectory", ZERO32, as_trajectory),
        "Context.past": ("trajectory", np.zeros((2, 2)), lambda v: Context(past=v)),
        "Context.features": ("features", np.zeros(2), lambda v: Context(past=np.zeros((2, 2)), features=v)),
        "Example.future": ("trajectory", ZERO32, lambda v: Example(context=_EXAMPLE.context, future=v, id=0)),
        "SampleSet": ("samples", np.zeros((2, 3, 2)), SampleSet),
        "GroundSet.items": ("items", np.zeros((2, 6)), lambda v: GroundSet(items=v, latents=np.zeros((2, 2)))),
        "GroundSet.latents": ("latents", np.zeros((2, 2)), lambda v: GroundSet(items=np.zeros((2, 6)), latents=v)),
        "build_similarity": ("items", np.zeros((2, 6)), lambda v: build_similarity(v, 1.0)),
        "build_quality": ("latents", np.zeros((2, 2)), lambda v: build_quality(v, KernelConfig())),
        "AffineFlowSet.A": ("A", _FLOWS.A, lambda v: AffineFlowSet(A=v, b=_FLOWS.b)),
        "AffineFlowSet.b": ("b", _FLOWS.b, lambda v: AffineFlowSet(A=_FLOWS.A, b=v)),
        "DsfCodes": ("codes", np.zeros((2, 2)), DsfCodes),
        "apply_flows": ("eps", np.zeros(2), lambda v: apply_flows(_FLOWS, v)),
        "invert_flow": ("z", np.zeros(2), lambda v: invert_flow(_FLOWS, 0, v)),
        "featurization": ("featurization", np.zeros(12), lambda v: _fold_features(_FLOWS.A, _FLOWS.b, v, np.ones(1), 0)),
        "LinearDecoder.W": ("W", _LINEAR["W"], lambda v: LinearDecoder(**dict(_LINEAR, W=v))),
        "LinearDecoder.c0": ("c0", _LINEAR["c0"], lambda v: LinearDecoder(**dict(_LINEAR, c0=v))),
        "LinearDecoder.ctx_proj": ("ctx_proj", np.zeros((6, 1)), lambda v: LinearDecoder(**_LINEAR, ctx_proj=v)),
        "TabulatedDecoder.table": (
            "table", np.zeros((2, 3, 2)), lambda v: TabulatedDecoder(z_grid=([0.0, 1.0],), table=v, t_steps=3, state_dim=2)
        ),
        "read_samples": ("samples", np.zeros((2, 3, 2)), _read_samples_of),
        "model codes": ("codes", np.zeros((2, 2)), lambda v: _read_model_of("dsf", codes=v)),
        "model A": ("A", _FLOWS.A, lambda v: _read_model_of("dlow", A=v, b=_FLOWS.b.tolist())),
        "model b": ("b", _FLOWS.b, lambda v: _read_model_of("dlow", A=_FLOWS.A.tolist(), b=v)),
        "init_codes": (
            "init_codes", np.zeros((2, 2)), lambda v: train_dsf([], CrossroadDecoder(), TrainConfig(k=2, iters=1), init_codes=v)
        ),
    }

    # each replaces the first entry of a valid array, the others left numbers
    BAD = {"nan": np.nan, "inf": -np.inf, "string": "1.5", "true": True, "null": None, "ragged": [0.0, 0.0]}

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_entry_rejected_with_name(self, reader, bad):
        name, valid, read = self.READERS[reader]
        value = np.asarray(valid).tolist()
        row = value
        while isinstance(row[0], list):
            row = row[0]
        row[0] = self.BAD[bad]
        read(np.asarray(valid).tolist())  # the valid array passes
        if bad in ("nan", "inf"):
            says = "contains non-finite entries$"
        else:
            says = "must be an array of numbers in rows of equal length, got "
        with pytest.raises(ValueError, match=f"(^|: ){name} {says}"):  # a file's reader puts its path and line first
            read(value)

    def test_arrays_and_numpy_numbers_accepted(self):
        arr = trajectory._float_array("x", np.ones((2, 2), dtype=np.float32))
        assert arr.dtype == float and arr.shape == (2, 2)
        assert trajectory._float_array("x", [[1, np.int64(2)], [np.float32(0.5), 3.0]]).tolist() == [[1, 2], [0.5, 3]]
        assert trajectory._float_array("x", []).shape == (0,)
