"""Affine latent flow unit tests."""
import numpy as np
import pytest
from scipy.stats import ortho_group

from divtraj import (
    AffineFlowSet,
    DsfCodes,
    apply_flows,
    invert_flow,
    kl_to_standard_normal,
    sample_noise,
)


def single_flow(a, b):
    return AffineFlowSet(A=np.asarray(a, dtype=float)[None], b=np.asarray(b, dtype=float)[None])


class TestApplyFlows:
    def test_identity(self):
        eps = np.array([0.3, -1.2])
        out = apply_flows(AffineFlowSet.identity(3, 2), eps)
        np.testing.assert_allclose(out, np.tile(eps, (3, 1)))

    def test_scale_and_shift(self):
        flows = single_flow(2.0 * np.eye(2), [1.0, 1.0])
        np.testing.assert_allclose(apply_flows(flows, np.array([1.0, 0.0])), [[3.0, 1.0]])

    def test_zero_noise_returns_offsets(self):
        rng = np.random.default_rng(0)
        flows = AffineFlowSet(
            A=np.eye(3)[None].repeat(4, 0) + rng.normal(scale=0.1, size=(4, 3, 3)),
            b=rng.normal(size=(4, 3)),
        )
        np.testing.assert_allclose(apply_flows(flows, np.zeros(3)), flows.b)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_flows(AffineFlowSet.identity(2, 3), np.zeros(2))


class TestInvertFlow:
    def test_identity(self):
        z = np.array([0.5, -0.5])
        np.testing.assert_allclose(invert_flow(AffineFlowSet.identity(1, 2), 0, z), z)

    def test_scale_and_shift_inverse(self):
        flows = single_flow(2.0 * np.eye(2), [1.0, 1.0])
        np.testing.assert_allclose(invert_flow(flows, 0, np.array([3.0, 1.0])), [1.0, 0.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            flows = single_flow(a, rng.normal(size=4))
            eps = rng.normal(size=4)
            z = apply_flows(flows, eps)[0]
            np.testing.assert_allclose(invert_flow(flows, 0, z), eps, rtol=1e-10, atol=1e-12)

    def test_singular_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not invertible"):
            single_flow(np.zeros((2, 2)), np.zeros(2))

    def test_threshold_on_log_determinant(self):
        # |det A| = 2e-12 passes, 1e-13 fails, as do an exactly singular map
        # and its inversion; every check reads slogdet, none calls det
        assert single_flow(np.diag([2e-12, 1.0]), np.zeros(2)).k == 1
        for a in (np.diag([1e-13, 1.0]), np.diag([0.0, 1.0])):
            with pytest.raises(ValueError, match="not invertible"):
                single_flow(a, np.zeros(2))
        flows = single_flow(np.eye(2), np.zeros(2))
        flows.A[0, 1, 1] = 0.0  # singular after construction
        with pytest.raises(ValueError, match="not invertible"):
            invert_flow(flows, 0, np.zeros(2))


class TestKl:
    def test_matched_gaussian_is_zero(self):
        assert kl_to_standard_normal(AffineFlowSet.identity(1, 2), 0) == pytest.approx(0.0, abs=1e-15)

    def test_pure_shift(self):
        flows = single_flow(np.eye(2), [1.0, 0.0])
        assert kl_to_standard_normal(flows, 0) == pytest.approx(0.5)

    def test_pure_scale(self):
        flows = single_flow(2.0 * np.eye(2), [0.0, 0.0])
        expected = 0.5 * (8.0 - 2.0 - np.log(16.0))
        assert kl_to_standard_normal(flows, 0) == pytest.approx(expected, abs=1e-9)
        assert kl_to_standard_normal(flows, 0) == pytest.approx(1.6137, abs=1e-4)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        flows = AffineFlowSet(
            A=np.eye(3)[None].repeat(5, 0) + rng.normal(scale=0.2, size=(5, 3, 3)),
            b=rng.normal(size=(5, 3)),
        )
        all_kl = kl_to_standard_normal(flows)
        for k in range(5):
            assert all_kl[k] == pytest.approx(kl_to_standard_normal(flows, k))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) + 1.5 * np.eye(n)
            if abs(np.linalg.det(a)) < 1e-9:
                continue
            assert kl_to_standard_normal(single_flow(a, rng.normal(size=n)), 0) >= -1e-12

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 4
            a = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            b = rng.normal(size=n)
            q = ortho_group.rvs(n, random_state=rng)
            kl_a = kl_to_standard_normal(single_flow(a, b), 0)
            kl_aq = kl_to_standard_normal(single_flow(a @ q, b), 0)
            assert kl_aq == pytest.approx(kl_a, rel=1e-10, abs=1e-10)

    def test_zero_iff_orthogonal_and_centered(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = ortho_group.rvs(3, random_state=rng)
            assert kl_to_standard_normal(single_flow(q, np.zeros(3)), 0) == pytest.approx(
                0.0, abs=1e-10
            )
        # and conversely: nonzero b or non-orthogonal A gives positive KL
        assert kl_to_standard_normal(single_flow(np.eye(3), [0.1, 0, 0]), 0) > 1e-4
        assert kl_to_standard_normal(single_flow(1.1 * np.eye(3), np.zeros(3)), 0) > 1e-4


class TestSampleNoise:
    def test_same_seed_identical(self):
        np.testing.assert_array_equal(sample_noise(42, 8), sample_noise(42, 8))

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample_noise(1, 8), sample_noise(2, 8))

    def test_moments(self):
        draws = sample_noise(123, 100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_known_generator_stream(self):
        # PCG64 streams are platform-stable; pin the first draw
        np.testing.assert_allclose(
            sample_noise(0, 2), np.random.default_rng(0).standard_normal(2)
        )


class TestDsfCodes:
    def test_shape_and_validation(self):
        codes = DsfCodes(codes=np.zeros((3, 2)))
        assert codes.k == 3 and codes.n_z == 2
        with pytest.raises(ValueError):
            DsfCodes(codes=np.array([[np.inf, 0.0]]))


class TestIdentityFlowsDegenerate:
    def test_identity_flows_give_coincident_codes_and_max_energy(self):
        # all-identity flows collapse the K codes onto one point, so any
        # decoded set coincides and the RBF diversity energy sits at its
        # maximum of 1
        import divtraj as dt

        rng = np.random.default_rng(6)
        flows = AffineFlowSet.identity(5, 3)
        eps = rng.standard_normal(3)
        codes = apply_flows(flows, eps)
        assert np.all(codes == codes[0])
        dec = dt.LinearDecoder(
            W=rng.normal(size=(4, 3)), c0=rng.normal(size=4), t_steps=2, state_dim=2
        )
        decoded = dec.decode_batch(codes, None)
        energy = dt.diversity_energy(dt.SampleSet(samples=decoded), sigma_d=3.0)
        assert energy == pytest.approx(1.0)
