"""Energy / loss function unit tests."""
import numpy as np
import pytest

from divtraj import (
    AffineFlowSet,
    EnergyConfig,
    GroundSet,
    KernelConfig,
    SampleSet,
    apd,
    apply_flows,
    build_kernel,
    diversity_energy,
    dlow_loss,
    dsf_loss,
    expected_cardinality,
    reconstruction_energy,
    similarity_energy,
)
from divtraj import energy, trajectory
from tests.test_dpp import kernel_from_matrix


def make_samples(*trajs):
    return SampleSet(samples=np.stack([np.asarray(t, dtype=float) for t in trajs]))


BASE = np.arange(6.0).reshape(3, 2)


class TestDiversityEnergy:
    def test_identical_samples(self):
        assert diversity_energy(make_samples(BASE, BASE, BASE), 2.0) == pytest.approx(1.0)

    def test_pair_at_sigma(self):
        other = BASE + np.sqrt(2.0 / 6.0)  # squared flattened distance = 2
        assert diversity_energy(make_samples(BASE, other), 2.0) == pytest.approx(np.exp(-1.0))

    def test_far_apart_vanishes(self):
        other = BASE + 100.0
        assert diversity_energy(make_samples(BASE, other), 2.0) <= 1e-12

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            diversity_energy(make_samples(BASE), 2.0)

    @pytest.mark.parametrize("sigma_d", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma_d):
        with pytest.raises(ValueError, match="sigma_d must be finite and > 0"):
            diversity_energy(make_samples(BASE, BASE + 1.0), sigma_d)

    def test_permutation_invariance_and_monotone_decrease(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(4, 3, 2))
        ss = SampleSet(samples=samples)
        perm = SampleSet(samples=samples[rng.permutation(4)])
        assert diversity_energy(ss, 3.0) == pytest.approx(diversity_energy(perm, 3.0))
        # moving one sample strictly away from all others decreases the energy
        centroid = samples.mean(axis=0)
        away = samples.copy()
        away[0] += 0.5 * (away[0] - centroid) + 0.1
        values = [diversity_energy(ss, 3.0)]
        for step in (0.5, 1.0, 2.0):
            moved = samples.copy()
            moved[0] = samples[0] + step * (samples[0] - centroid + 0.05)
            values.append(diversity_energy(SampleSet(samples=moved), 3.0))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestReconstructionEnergy:
    def test_gt_among_samples(self):
        assert reconstruction_energy(make_samples(BASE, BASE + 2.0), BASE) == 0.0

    def test_single_sample_squared_distance(self):
        sample = BASE.copy()
        sample[0, 0] += 2.0  # squared flattened distance 4
        assert reconstruction_energy(make_samples(sample), BASE) == pytest.approx(4.0)

    def test_min_of_two(self):
        s1 = BASE.copy()
        s1[0, 0] += 3.0
        s2 = BASE.copy()
        s2[0, 1] += 2.0
        assert reconstruction_energy(make_samples(s1, s2), BASE) == pytest.approx(4.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(3, 4, 2))
        gt = rng.normal(size=(4, 2))
        shift = np.array([5.0, -2.0])
        before = reconstruction_energy(SampleSet(samples=samples), gt)
        after = reconstruction_energy(SampleSet(samples=samples + shift), gt + shift)
        assert after == pytest.approx(before, rel=1e-10)


class TestSimilarityEnergy:
    SPLIT = ((0,), (1,))

    def test_shared_slice_is_zero(self):
        s2 = BASE.copy()
        s2[:, 1] += 3.0  # differs only on the diverse dimension
        assert similarity_energy(make_samples(BASE, s2), self.SPLIT) == 0.0

    def test_pair_squared_slice_distance(self):
        s2 = BASE.copy()
        s2[0, 0] += np.sqrt(3.0)
        assert similarity_energy(make_samples(BASE, s2), self.SPLIT) == pytest.approx(3.0)

    def test_empty_similar_slice_is_zero(self):
        assert similarity_energy(make_samples(BASE, BASE + 1.0), ((), (0, 1))) == 0.0

    def test_invalid_partition(self):
        with pytest.raises(ValueError, match="partition"):
            similarity_energy(make_samples(BASE, BASE), ((0,), (0, 1)))
        with pytest.raises(ValueError, match="partition"):
            similarity_energy(make_samples(BASE, BASE), ((0,), ()))


def dense_reconstruction(v, gt):
    """Reference reconstruction energy and gradient: the dense differences
    v - gt, their squares added one feature after another, and a dense
    2 (v - gt) masked to each set's first nearest sample, summed over the
    axes along which gt broadcasts v."""
    diff = v - gt[..., None, :]
    dist2 = np.zeros(diff.shape[:-1])
    for f in range(diff.shape[-1]):
        dist2 = dist2 + diff[..., f] * diff[..., f]
    nearest = np.arange(v.shape[-2]) == dist2.argmin(axis=-1)[..., None]
    g = 2.0 * diff * nearest[..., None]
    shared = tuple(i for i, (n_v, n_g) in enumerate(zip(v.shape, g.shape)) if n_v < n_g)
    return dist2.min(axis=-1), g.sum(axis=shared, keepdims=True)


class TestEnergyKernels:
    """The batched energies behind the public wrappers and the DLow trainer."""

    @pytest.mark.parametrize(
        "v_shape, gt_shape",
        [
            ((1, 3, 5, 6), (4, 1, 6)),  # one flow set shared by every example
            ((4, 3, 5, 6), (4, 1, 6)),  # featurized: one flow set per example
            ((5, 6), (6,)),  # one sample set, one ground truth
        ],
    )
    @pytest.mark.parametrize("duplicated", [False, True])
    def test_reconstruction_equals_dense_definition(self, v_shape, gt_shape, duplicated):
        rng = np.random.default_rng(30)
        v = rng.normal(size=v_shape)
        gt = rng.normal(size=gt_shape)
        if duplicated:  # ties: every set's nearest sample appears twice
            v = np.round(v)
            gt = np.round(gt)
            v[..., 3, :] = v[..., 1, :]
            v[..., 4, :] = v[..., 2, :]
        value, grad = energy._reconstruction(v, gt)
        ref_value, ref_grad = dense_reconstruction(v, gt)
        assert grad.shape == v.shape
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)
        # only each set's first nearest sample carries gradient
        assert np.count_nonzero(np.any(grad != 0.0, axis=-1)) <= ref_value.size

    def test_empty_similar_slice_is_zero_over_leading_axes(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(2, 3, 4, 6))
        value, grad = energy._similarity(v[..., []])
        assert value.shape == (2, 3) and np.all(value == 0.0)
        assert grad.shape == (2, 3, 4, 0)
        cfg = EnergyConfig(sigma_d=4.0, lambda_s=2.0, joint_split=((), (0, 1)))
        (e_d, _, e_s), _ = energy._energies(v, rng.normal(size=(2, 1, 6)), cfg, 2)
        assert e_s == 0.0
        per_set = energy._diversity(v, 4.0)[0]
        assert e_d == float(per_set.sum()) / per_set.size


class TestGramPath:
    """A training-energy set above 2^14 pair-features takes the Gram form
    from one matmul, not ``cdist``. Each energy's value and gradient stay
    within rtol 1e-12 of the feature-order definition: the energies on
    ``_sq_dists``, and the dense reconstruction reference."""

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    @pytest.mark.parametrize("k", [52, 53, 100])
    def test_energies_match_feature_order(self, monkeypatch, k, shift):
        # shared flows: 4 draws of K samples, and 13 targets against all 4K,
        # so both the (K, K, 6) sets and the (13, 4K, 6) set hold at most 2^14
        # pair-features at K = 52 and more at K = 53
        rng = np.random.default_rng(k)
        v = rng.normal(size=(1, 4, k, 6)) + shift
        gt = rng.normal(size=(13, 1, 6)) + shift
        sq_dists = trajectory._sq_dists
        for x, y in ((v, v), (gt[..., None, :], v)):  # the Gram form from K = 53 on
            assert np.array_equal(sq_dists(x, y, gram=True), sq_dists(x, y)) == (k == 52)
        got = [energy._diversity(v, 5.0), energy._similarity(v), energy._reconstruction(v, gt)]
        monkeypatch.setattr(energy, "_sq_dists", lambda x, y, gram: sq_dists(x, y))
        want = [energy._diversity(v, 5.0), energy._similarity(v), dense_reconstruction(v, gt)]
        for (value, grad), (ref_value, ref_grad) in zip(got, want):
            if k == 52:  # a small set keeps its bits
                assert np.array_equal(value, ref_value) and np.array_equal(grad, ref_grad)
            np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=0)
            # the diversity gradient adds K terms of about |v| each, so at
            # |v| = 1e3 a last-bit change in the RBF weights moves its entries
            # by about 1e-13 of its largest, whatever the distances' path
            scale = np.abs(ref_grad).max() if shift else 0.0
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * scale)

    def test_reconstruction_nonnegative_at_a_matching_sample(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(1, 4, 100, 6)) + 1e3
        gt = v[0, np.arange(13) % 4, 7 * np.arange(13), None]  # target i is sample 7i of draw i % 4
        value = energy._reconstruction(v, gt)[0]  # unclamped, the Gram form gives -3.6e-15 here
        assert np.all(value >= 0.0)
        assert np.all(value[np.arange(13), np.arange(13) % 4] <= 1e-9)

    def test_energies_never_call_cdist(self, monkeypatch):
        import scipy.spatial.distance

        def no_cdist(*args, **kwargs):
            raise AssertionError("cdist called")

        monkeypatch.setattr(scipy.spatial.distance, "cdist", no_cdist)
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1, 8, 100, 6))
        cfg = EnergyConfig(sigma_d=10.0, lambda_s=1.0, joint_split=((0,), (1,)))
        means, grad = energy._energies(v, rng.normal(size=(16, 1, 6)), cfg, 2)
        assert np.all(np.isfinite(means)) and grad.shape == v.shape


class TestDsfLoss:
    def test_diag_3_1(self):
        assert dsf_loss(kernel_from_matrix(np.diag([3.0, 1.0]))) == pytest.approx(-1.25)

    def test_zero_kernel(self):
        assert dsf_loss(kernel_from_matrix(np.zeros((3, 3)))) == 0.0

    def test_duplicated_ground_set_stays_finite(self):
        rng = np.random.default_rng(2)
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        items = rng.normal(size=(5, 6))
        latents = rng.normal(size=(5, 2))
        k1 = build_kernel(GroundSet(items=items, latents=latents), cfg)
        k2 = build_kernel(
            GroundSet(items=np.vstack([items, items]), latents=np.vstack([latents, latents])),
            cfg,
        )
        assert np.isfinite(dsf_loss(k2))
        assert -10 < dsf_loss(k2) <= 0
        assert dsf_loss(k2) < dsf_loss(k1)  # more items, more expected cardinality

    def test_matches_negated_cardinality_exactly(self):
        rng = np.random.default_rng(3)
        kernel = kernel_from_matrix(
            (lambda a: a @ a.T)(rng.normal(size=(6, 8))) / 8.0
        )
        assert dsf_loss(kernel) == -expected_cardinality(kernel)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n + 1))
            kernel = kernel_from_matrix(a @ a.T / (n + 1))
            assert -n < dsf_loss(kernel) <= 0


class TestDlowLoss:
    def test_identity_flows_repeated_gt(self):
        flows = AffineFlowSet.identity(3, 2)
        cfg = EnergyConfig(sigma_d=5.0, lambda_d=4.0, lambda_r=2.0, beta=1.0)
        out = dlow_loss(flows, make_samples(BASE, BASE, BASE), BASE, cfg)
        assert out["terms"]["kl"] == pytest.approx(0.0, abs=1e-14)
        assert out["terms"]["reconstruction"] == 0.0
        assert out["terms"]["diversity"] == pytest.approx(4.0)
        assert out["total"] == pytest.approx(4.0)

    def test_beta_zero_removes_kl(self):
        rng = np.random.default_rng(5)
        flows = AffineFlowSet(
            A=np.eye(2)[None].repeat(2, 0) + rng.normal(scale=0.3, size=(2, 2, 2)),
            b=rng.normal(size=(2, 2)),
        )
        ss = make_samples(BASE, BASE + 1.0)
        cfg = EnergyConfig(sigma_d=5.0, lambda_d=3.0, lambda_r=2.0, beta=0.0)
        out = dlow_loss(flows, ss, BASE, cfg)
        assert out["terms"]["kl"] == 0.0
        expected = 3.0 * diversity_energy(ss, 5.0) + 2.0 * reconstruction_energy(ss, BASE)
        assert out["total"] == pytest.approx(expected)

    def test_weighted_sum_arithmetic(self):
        # component values (KL sum, E_d, E_r) = (0.5, 0.2, 1.0) with weights
        # (beta, lambda_d, lambda_r) = (1, 25, 2) -> 0.5 + 5 + 2 = 7.5
        b = np.zeros((1, 2))
        b[0, 0] = 1.0  # KL = 0.5 for a single identity-A flow with |b| = 1
        flows = AffineFlowSet(A=np.eye(2)[None], b=b)
        sigma_d = 5.0
        d2 = -sigma_d * np.log(0.2)  # pair distance making E_d = 0.2
        other = BASE + np.sqrt(d2 / 6.0)
        gt = BASE.copy()
        gt[0, 0] += 1.0  # unit squared distance to BASE, farther from `other`
        ss = make_samples(BASE, other)
        cfg = EnergyConfig(sigma_d=sigma_d, lambda_d=25.0, lambda_r=2.0, beta=1.0)
        out = dlow_loss(flows, ss, gt, cfg)
        assert out["terms"]["kl"] == pytest.approx(0.5)
        assert out["terms"]["diversity"] == pytest.approx(5.0)
        assert out["terms"]["reconstruction"] == pytest.approx(2.0)
        assert out["total"] == pytest.approx(7.5, rel=1e-12)

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(6)
        flows = AffineFlowSet(
            A=np.eye(2)[None].repeat(3, 0) + rng.normal(scale=0.2, size=(3, 2, 2)),
            b=rng.normal(size=(3, 2)),
        )
        ss = SampleSet(samples=rng.normal(size=(3, 3, 2)))
        cfg = EnergyConfig(
            sigma_d=3.0, lambda_d=7.0, lambda_r=1.5, lambda_s=2.0, beta=0.7,
            joint_split=((0,), (1,)),
        )
        out = dlow_loss(flows, ss, BASE, cfg)
        assert out["total"] == pytest.approx(sum(out["terms"].values()), rel=1e-12)
        assert set(out["terms"]) == {"kl", "diversity", "reconstruction", "similarity"}
        # diversity acts on J_d, the similar-slice energy on J_s
        assert out["raw"]["e_d"] == diversity_energy(ss, 3.0, dims=(1,))
        assert out["raw"]["e_s"] == similarity_energy(ss, ((0,), (1,)))

    def test_malformed_inputs_rejected(self):
        flows = AffineFlowSet.identity(2, 2)
        cfg = EnergyConfig(sigma_d=5.0)
        with pytest.raises(ValueError, match="K >= 2"):
            dlow_loss(AffineFlowSet.identity(1, 2), make_samples(BASE), BASE, cfg)
        with pytest.raises(ValueError, match=r"shape mismatch: \(3, 2\) vs \(2, 2\)"):
            dlow_loss(flows, make_samples(BASE, BASE + 1.0), BASE[:2], cfg)
        with pytest.raises(ValueError, match="invalid partition"):
            split = EnergyConfig(sigma_d=5.0, joint_split=((0,), (0, 1)))
            dlow_loss(flows, make_samples(BASE, BASE + 1.0), BASE, split)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_config_rejects_negative_or_nonfinite(self, value):
        for name in ("lambda_d", "lambda_r", "lambda_s", "beta"):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                EnergyConfig(**{name: value})
        for sigma_d in (0.0, value):
            with pytest.raises(ValueError, match="sigma_d must be finite and > 0"):
                EnergyConfig(sigma_d=sigma_d)


class TestGradientDescentIncreasesApd:
    def test_apd_monotone_trend_without_kl_and_recon(self):
        # pure diversity objective on a linear decoder: APD of the decoded
        # set rises over iterations (allowing a few non-monotone steps)
        import divtraj as dt

        rng = np.random.default_rng(7)
        t_steps, d = 3, 2
        dec = dt.LinearDecoder(
            W=rng.normal(size=(t_steps * d, 4)), c0=np.zeros(t_steps * d),
            t_steps=t_steps, state_dim=d,
        )
        gt = rng.normal(size=(t_steps, d))
        example = dt.Example(context=dt.Context(past=np.zeros((1, d))), future=gt, id=0)
        cfg = dt.TrainConfig(
            mode="dlow", k=4, iters=50, lr=0.05, seed=0, noise_draws_per_iter=6,
            energy=EnergyConfig(sigma_d=20.0, lambda_d=1.0, lambda_r=0.0, beta=0.0),
        )
        # drive the optimizer step by step, capturing APD of the decoded set
        apds = []
        rng2 = np.random.default_rng(cfg.seed)
        a = np.tile(np.eye(4), (cfg.k, 1, 1)) + rng2.normal(0.0, 0.01, size=(cfg.k, 4, 4))
        b = rng2.normal(0.0, 0.1, size=(cfg.k, 4))
        draws = rng2.standard_normal((cfg.noise_draws_per_iter, 4))
        from divtraj.training import _DlowObjective, AdamState, adam_step

        obj = _DlowObjective(dec, [example], cfg, draws)
        params = obj.pack(dt.AffineFlowSet(A=a, b=b))
        state = AdamState.init(params.size)
        for _ in range(cfg.iters):
            a_cur, b_cur, _ = obj.unpack(params)
            flows_cur = dt.AffineFlowSet(A=a_cur, b=b_cur)
            decoded = dec.decode_batch(apply_flows(flows_cur, draws[0]), None)
            apds.append(apd(SampleSet(samples=decoded)))
            _, grad = obj.evaluate(params)
            params, state = adam_step(params, grad, state, cfg.lr)
        diffs = np.diff(apds)
        assert (diffs <= 0).sum() <= 5
        assert apds[-1] > apds[0]
