"""DPP kernel unit tests: worked examples, oracles, and invariants."""
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from divtraj import (
    GroundSet,
    KernelConfig,
    LinearDecoder,
    brute_force_oracle,
    build_kernel,
    build_quality,
    build_similarity,
    dpp_log_prob,
    expected_cardinality,
    greedy_map,
    quality_radius,
)
from divtraj import dpp
from divtraj.dpp import DppKernel
from divtraj.training import _DsfObjective


def kernel_from_matrix(L):
    """Wrap an explicit PSD matrix as a DppKernel (tests bypass construction)."""
    L = np.asarray(L, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(L)
    return DppKernel(
        L=L,
        S=np.eye(L.shape[0]),
        r=np.sqrt(np.clip(np.diag(L), 0.0, None)),
        eigvals=np.clip(eigvals, 0.0, None),
        eigvecs=eigvecs,
    )


def random_psd_kernel(rng, n):
    a = rng.normal(size=(n, n + 2))
    return kernel_from_matrix(a @ a.T / (n + 2))


class TestBuildSimilarity:
    def test_unit_diagonal(self):
        s = build_similarity(np.random.default_rng(0).normal(size=(4, 3)), 2.0)
        np.testing.assert_allclose(np.diag(s), 1.0)
        np.testing.assert_allclose(s, s.T)

    def test_log2_distance(self):
        # k = 1, d^2 = ln 2 -> 0.5
        items = np.array([[0.0], [np.sqrt(np.log(2.0))]])
        s = build_similarity(items, 1.0)
        assert s[0, 1] == pytest.approx(0.5)

    def test_closed_form(self):
        # k = 2, d^2 = 0.5 -> exp(-1)
        items = np.array([[0.0], [np.sqrt(0.5)]])
        s = build_similarity(items, 2.0)
        assert s[0, 1] == pytest.approx(np.exp(-1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            build_similarity(np.array([[np.inf, 0.0]]), 1.0)

    @pytest.mark.parametrize("sim_scale", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_scale_must_be_finite_and_positive(self, sim_scale):
        with pytest.raises(ValueError, match="sim_scale must be finite and > 0"):
            build_similarity(np.zeros((2, 1)), sim_scale)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        s = build_similarity(rng.normal(size=(6, 4)), 0.7)
        assert np.all(s > 0.0) and np.all(s <= 1.0)


def _one_einsum_sq_dists(x):
    """The distances as one einsum over the whole (..., N, N, F) difference
    tensor: the reference ``_pairwise_sq_dists`` must match bit for bit."""
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


class TestPairwiseSqDists:
    @pytest.mark.parametrize("shape", [(12, 9, 5), (3, 4, 9, 5), (30, 5), (4, 1, 3), (6, 7, 0)])
    @pytest.mark.parametrize(
        "block",
        [
            "whole stack",  # the default bound: one einsum
            "3 sets",  # several whole sets a block
            "1 set",  # exactly one set a block
            "2 rows",  # a few rows of one set a block
            "1 byte",  # below one row: a row a block
        ],
    )
    def test_equals_one_einsum_bitwise(self, monkeypatch, shape, block):
        n, f = shape[-2:]
        row_bytes = n * f * 8  # one row's differences against its set
        bound = {"3 sets": 3 * n * row_bytes, "1 set": n * row_bytes, "2 rows": 2 * row_bytes, "1 byte": 1}
        if block in bound:
            monkeypatch.setattr(dpp, "_KERNEL_BLOCK_BYTES", bound[block])
        rng = np.random.default_rng(30)
        for scale in (1e-3, 1.0, 1e3, 10.0 ** rng.uniform(-3, 3, size=shape)):
            x = rng.normal(size=shape) * scale
            got, want = dpp._pairwise_sq_dists(x), _one_einsum_sq_dists(x)
            assert got.shape == shape[:-1] + (n,)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            if f == 0:
                assert not got.any()

    def test_memory_one_block_over_many_sets(self):
        # 200 sets of 30 items: their differences would take 41 MiB at once,
        # the distances take 1.4 MiB and a block of differences 1 MiB
        x = np.random.default_rng(31).normal(size=(200, 30, 30))
        tracemalloc.start()
        try:
            dpp._pairwise_sq_dists(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestKernelConfig:
    @pytest.mark.parametrize("name", ["sim_scale", "base_quality"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            KernelConfig(**{name: value})


class TestQualityRadius:
    def test_two_dof_closed_form(self):
        assert quality_radius(2, 0.9) ** 2 == pytest.approx(-2.0 * np.log(0.1), rel=1e-12)

    def test_small_rho_limit(self):
        assert quality_radius(2, 1e-12) < 1e-5

    def test_one_sigma_mass(self):
        assert quality_radius(1, 0.6827) == pytest.approx(1.0, abs=1e-3)

    def test_matches_chi2_ppf(self):
        for df in (1, 2, 5, 16):
            for rho in (0.1, 0.5, 0.9, 0.99):
                assert quality_radius(df, rho) == pytest.approx(
                    np.sqrt(chi2.ppf(rho, df)), rel=1e-10
                )

    def test_monotone_in_rho(self):
        radii = [quality_radius(3, rho) for rho in np.linspace(0.01, 0.99, 25)]
        assert np.all(np.diff(radii) > 0)

    def test_invalid_rho(self):
        for rho in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                quality_radius(2, rho)

    def test_bits_the_configs_use(self):
        # The README DSF optimum hangs on the kernel's last bits (see
        # dpp._pairwise_sq_dists), so a solver that moved these radii by an
        # ulp would move trained outputs. README, CI and the benchmark all
        # run rho = 0.9 at n_z = 2 or 4.
        assert quality_radius(2, 0.9).hex() == "0x1.12af03c69eb28p+1"
        assert quality_radius(4, 0.9).hex() == "0x1.65035a3df91b6p+1"

    @pytest.mark.parametrize("rho", [1e-160, 1e-300])
    def test_radius_below_the_smallest_normal_square(self, rho):
        # R^2 underflows here, and sqrt(R^2) read 0.0; at n_z = 1, P(1/2, R^2/2)
        # = erf(R / sqrt 2) ~ R sqrt(2 / pi) for small R
        assert quality_radius(1, rho) == pytest.approx(rho * np.sqrt(np.pi / 2.0), rel=1e-12)


@pytest.mark.parametrize("latent_dims, rhos", [
    (range(1, 65), (1e-12, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-9)),
    ((1, 7, 64, 1000), (1e-100, 1e-30, 1 - 1e-15)),  # far tails and a large n_z
])
def test_quality_radius_matches_gammaincinv(latent_dims, rhos):
    # the radius solves the chi-squared quantile with math alone; scipy's
    # gammaincinv is the reference, not always equal in the last bit
    from scipy.special import gammaincinv

    for n in latent_dims:
        radii = [quality_radius(n, rho) for rho in rhos]
        np.testing.assert_allclose(radii, np.sqrt(2.0 * gammaincinv(n / 2.0, rhos)), rtol=1e-13, atol=0)
        assert np.all(np.diff(radii) > 0)


class TestBuildQuality:
    CFG = KernelConfig(sim_scale=1.0, base_quality=2.0, rho=0.9)

    def test_origin(self):
        assert build_quality(np.zeros((1, 2)), self.CFG)[0] == pytest.approx(2.0)

    def test_boundary_continuity(self):
        r = quality_radius(2, self.CFG.rho)
        z = np.array([[r, 0.0]])
        assert build_quality(z, self.CFG)[0] == pytest.approx(2.0, rel=1e-12)
        just_out = np.array([[r + 1e-9, 0.0]])
        assert build_quality(just_out, self.CFG)[0] == pytest.approx(2.0, rel=1e-6)

    def test_unit_beyond_sphere(self):
        # ||z||^2 = R^2 + 1 -> omega * exp(-1)
        z = np.array([[np.sqrt(quality_radius(2, self.CFG.rho) ** 2 + 1.0), 0.0]])
        assert build_quality(z, self.CFG)[0] == pytest.approx(2.0 * np.exp(-1.0))


class TestBuildKernel:
    def test_single_item(self):
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.5, rho=0.9)
        ground = GroundSet(items=np.array([[1.0, 2.0]]), latents=np.zeros((1, 2)))
        kernel = build_kernel(ground, cfg)
        np.testing.assert_allclose(kernel.L, [[1.5**2]])

    def test_identical_items_rank_one(self):
        cfg = KernelConfig(sim_scale=1.0, base_quality=0.8, rho=0.9)
        ground = GroundSet(items=np.zeros((2, 4)), latents=np.zeros((2, 2)))
        kernel = build_kernel(ground, cfg)
        q2 = 0.8**2
        np.testing.assert_allclose(kernel.L, q2 * np.ones((2, 2)))
        np.testing.assert_allclose(kernel.eigvals, [0.0, 2 * q2], atol=1e-12)

    def test_distant_items_diagonal(self):
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        r_edge = quality_radius(2, 0.9)
        # latents at 0 and at sq norm R^2 + ln 2 give qualities (1, 1/2)
        z2 = np.array([np.sqrt(r_edge**2 + np.log(2.0)), 0.0])
        ground = GroundSet(
            items=np.array([[0.0, 0.0], [1e6, 1e6]]), latents=np.stack([np.zeros(2), z2])
        )
        kernel = build_kernel(ground, cfg)
        np.testing.assert_allclose(kernel.L, np.diag([1.0, 0.25]), atol=1e-300)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(2)
        cfg = KernelConfig(sim_scale=0.5, base_quality=1.2, rho=0.8)
        ground = GroundSet(items=rng.normal(size=(6, 4)), latents=rng.normal(size=(6, 3)))
        kernel = build_kernel(ground, cfg)
        rebuilt = kernel.r[:, None] * kernel.S * kernel.r[None, :]
        np.testing.assert_allclose(kernel.L, rebuilt, rtol=1e-12)

    def test_memory_bounded_at_n1000(self):
        # one (N, N, F) difference tensor would take 458 MiB here; S (the
        # distances, scaled in place), L and the eigenvectors take 7.6 MiB each
        rng = np.random.default_rng(23)
        ground = GroundSet(items=rng.normal(size=(1000, 60)), latents=rng.normal(size=(1000, 4)))
        tracemalloc.start()
        try:
            kernel = build_kernel(ground, KernelConfig(sim_scale=0.01, base_quality=1.0, rho=0.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.n == 1000 and kernel.eigvals[-1] > 1.0
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_every_path_builds_the_same_kernel(self, monkeypatch):
        # the DSF objective and the batched greedy MAP build their kernels from
        # the same items and codes as build_kernel, bitwise: n_z = 3 codes on
        # both sides of the quality sphere; greedy MAP runs on two copies of
        # the set, one block each
        rng = np.random.default_rng(21)
        dec = LinearDecoder(W=rng.normal(size=(6, 3)), c0=rng.normal(size=6), t_steps=3, state_dim=2)
        cfg = KernelConfig(sim_scale=0.7, base_quality=1.4, rho=0.9)
        codes = rng.normal(scale=1.5, size=(5, 3))
        items = dec.decode_batch(codes).reshape(5, -1)
        kernel = build_kernel(GroundSet(items=items, latents=codes), cfg)
        r_sq = np.sum(codes**2, axis=1)
        assert (r_sq < quality_radius(3, 0.9) ** 2).any() and (r_sq > quality_radius(3, 0.9) ** 2).any()
        built, kernel_fn = [], dpp._kernel
        monkeypatch.setattr(dpp, "_kernel", lambda *a, **kw: built.append(kernel_fn(*a, **kw)) or built[-1])
        _DsfObjective(dec, cfg, 5).evaluate(codes.reshape(-1))
        monkeypatch.setattr(dpp, "_KERNEL_BLOCK_BYTES", 1)
        dpp._greedy_map_sets(np.stack([items] * 2), np.stack([codes] * 2), cfg)
        assert [u is not None for *_, u in built] == [True, False, False]
        # without eigenvectors LAPACK takes another route to the eigenvalues,
        # which agrees with eigvalsh of the same L, not always with eigh
        values_only = np.maximum(np.linalg.eigvalsh(kernel.L), 0.0)
        for s, r, L, lam, u in built:
            eigvals = kernel.eigvals if u is not None else values_only
            for got, want in ((s, kernel.S), (r, kernel.r), (L, kernel.L), (lam, eigvals)):
                np.testing.assert_array_equal(got.reshape(want.shape), want)


class TestExpectedCardinality:
    def test_identity_two(self):
        assert expected_cardinality(kernel_from_matrix(np.eye(2))) == pytest.approx(1.0)

    def test_zero_kernel(self):
        assert expected_cardinality(kernel_from_matrix(np.zeros((3, 3)))) == 0.0

    def test_diag_3_1(self):
        assert expected_cardinality(kernel_from_matrix(np.diag([3.0, 1.0]))) == pytest.approx(1.25)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        k = random_psd_kernel(rng, 6)
        perm = rng.permutation(6)
        k_p = kernel_from_matrix(k.L[np.ix_(perm, perm)])
        assert expected_cardinality(k_p) == pytest.approx(expected_cardinality(k), rel=1e-12)


class TestDppLogProb:
    K = kernel_from_matrix(np.diag([3.0, 1.0]))

    def test_empty_subset(self):
        assert dpp_log_prob(self.K, []) == pytest.approx(np.log(1.0 / 8.0))

    def test_singleton(self):
        assert dpp_log_prob(self.K, [0]) == pytest.approx(np.log(3.0 / 8.0))

    def test_singular_submatrix_zero_probability(self):
        dup = kernel_from_matrix(np.ones((2, 2)))
        assert dpp_log_prob(dup, [0, 1]) == -np.inf

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            dpp_log_prob(self.K, [0, 0])

    def test_total_probability_is_one(self):
        rng = np.random.default_rng(4)
        kernel = random_psd_kernel(rng, 5)
        from itertools import chain, combinations

        subsets = chain.from_iterable(combinations(range(5), n) for n in range(6))
        total = sum(np.exp(dpp_log_prob(kernel, s)) for s in subsets)
        assert total == pytest.approx(1.0, rel=1e-9)


class TestBruteForceOracle:
    def test_diag_3_1(self):
        out = brute_force_oracle(kernel_from_matrix(np.diag([3.0, 1.0])))
        assert out["normalization"] == pytest.approx(8.0)
        assert out["expected_card"] == pytest.approx(1.25)

    def test_zero_kernel(self):
        out = brute_force_oracle(kernel_from_matrix(np.zeros((2, 2))))
        assert out["normalization"] == pytest.approx(1.0)
        assert out["expected_card"] == 0.0

    def test_normalization_matches_det(self):
        rng = np.random.default_rng(5)
        kernel = random_psd_kernel(rng, 4)
        out = brute_force_oracle(kernel)
        assert out["normalization"] == pytest.approx(
            np.linalg.det(kernel.L + np.eye(4)), rel=1e-9
        )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_oracle(kernel_from_matrix(np.eye(21)))


class TestGreedyMap:
    def test_diagonal_with_zero_gain(self):
        # gains ln 4, then 0 (accepted), then ln 0.25 < 0 stops
        assert greedy_map(kernel_from_matrix(np.diag([4.0, 1.0, 0.25]))) == [0, 1]

    def test_all_below_one_empty(self):
        assert greedy_map(kernel_from_matrix(0.5 * np.eye(3))) == []

    def test_duplicates_never_coselected(self):
        L = np.ones((3, 3)) * 4.0
        L[2, 2] = 2.0
        L[0, 2] = L[2, 0] = L[1, 2] = L[2, 1] = 0.0
        # items 0 and 1 identical (rank-1 block), item 2 independent
        out = greedy_map(kernel_from_matrix(L))
        assert sorted(out) == [0, 2]

    def test_gain_order_and_tie_break(self):
        assert greedy_map(kernel_from_matrix(np.diag([2.0, 5.0, 2.0]))) == [1, 0, 2]

    def test_matches_exhaustive_map_on_small_kernels(self):
        # greedy output's log-prob should equal the best log det over the
        # chain of subsets it grew; cross-check determinant arithmetic
        rng = np.random.default_rng(6)
        for _ in range(20):
            kernel = random_psd_kernel(rng, 5)
            sel = greedy_map(kernel)
            running = []
            prev = 0.0
            for x in sel:
                running.append(x)
                sign, logdet = np.linalg.slogdet(kernel.L[np.ix_(running, running)])
                assert sign > 0
                assert logdet >= prev - 1e-9  # accepted gains are >= 0
                prev = logdet

    def test_incremental_cholesky_equals_recomputed_dets(self):
        # the fast incremental-gain path must pick the same items as a naive
        # greedy that recomputes log det from scratch each step
        def naive_greedy(L):
            n = L.shape[0]
            selected, remaining = [], list(range(n))
            log_prev = 0.0
            while remaining:
                best_gain, best_x = -np.inf, None
                for x in remaining:
                    trial = selected + [x]
                    sign, logdet = np.linalg.slogdet(L[np.ix_(trial, trial)])
                    gain = (logdet if sign > 0 else -np.inf) - log_prev
                    if gain > best_gain + 1e-12:
                        best_gain, best_x = gain, x
                if best_gain < 0 or not np.isfinite(best_gain):
                    break
                selected.append(best_x)
                remaining.remove(best_x)
                log_prev += best_gain
            return selected

        rng = np.random.default_rng(13)
        for _ in range(15):
            kernel = random_psd_kernel(rng, 6)
            assert greedy_map(kernel) == naive_greedy(kernel.L)
        # Schur complements at their edges: near-duplicate items drive the
        # residuals of a selected item's copies to ~0, and base quality just
        # above 1 puts gains near the zero-gain threshold. Latents sit just
        # outside the quality sphere, so no two items share a quality and
        # selection never rests on a tie at rounding level.
        radius = quality_radius(2, 0.9)
        for n in range(2, 26):
            base = rng.normal(size=(max(1, n // 2), 6))
            items = base[rng.integers(0, len(base), n)] + rng.normal(
                scale=10 ** rng.uniform(-9, -3), size=(n, 6)
            )
            dirs = rng.normal(size=(n, 2))
            latents = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            latents *= (radius + rng.uniform(0.0, 0.15, n))[:, None]
            cfg = KernelConfig(
                sim_scale=float(rng.uniform(0.5, 8.0)), base_quality=float(rng.uniform(1.05, 3.0)),
                rho=0.9,
            )
            kernel = build_kernel(GroundSet(items=items, latents=latents), cfg)
            assert greedy_map(kernel) == naive_greedy(kernel.L)


class TestKernelInvariants:
    def test_normalization_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            kernel = random_psd_kernel(rng, n)
            out = brute_force_oracle(kernel)
            assert out["normalization"] == pytest.approx(
                np.linalg.det(kernel.L + np.eye(n)), rel=1e-8
            )

    def test_three_way_cardinality_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            kernel = random_psd_kernel(rng, n)
            eig_sum = expected_cardinality(kernel)
            trace_form = np.trace(np.eye(n) - np.linalg.inv(kernel.L + np.eye(n)))
            brute = brute_force_oracle(kernel)["expected_card"]
            assert eig_sum == pytest.approx(trace_form, rel=1e-8)
            assert eig_sum == pytest.approx(brute, rel=1e-8)

    def test_quality_scaling_increases_cardinality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            kernel = random_psd_kernel(rng, n)
            base = expected_cardinality(kernel)
            for c in (1.5, 2.0, 4.0):
                scaled = kernel_from_matrix(c**2 * kernel.L)
                assert expected_cardinality(scaled) > base

    def test_duplicates_keep_cardinality_finite(self):
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        rng = np.random.default_rng(10)
        items = rng.normal(size=(4, 6))
        latents = rng.normal(size=(4, 2))
        doubled = GroundSet(
            items=np.vstack([items, items]), latents=np.vstack([latents, latents])
        )
        kernel = build_kernel(doubled, cfg)
        value = expected_cardinality(kernel)
        assert np.isfinite(value) and 0 < value < 8
        # the log likelihood of the full set degenerates, the cardinality does not
        assert dpp_log_prob(kernel, list(range(8))) == -np.inf

    def test_greedy_diagonal_law(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            diag = np.round(rng.uniform(0.2, 3.0, size=n), 2)
            out = greedy_map(kernel_from_matrix(np.diag(diag)))
            expected = sorted(
                [i for i in range(n) if diag[i] >= 1.0], key=lambda i: (-diag[i], i)
            )
            assert out == expected

    def test_greedy_permutation_equivariance(self):
        # permuting items permutes the selection identically (no exact ties
        # in random kernels, so tie-breaking never enters)
        rng = np.random.default_rng(12)
        for _ in range(10):
            kernel = random_psd_kernel(rng, 6)
            sel = greedy_map(kernel)
            perm = rng.permutation(6)
            k_p = kernel_from_matrix(kernel.L[np.ix_(perm, perm)])
            sel_p = greedy_map(k_p)
            assert [int(perm[i]) for i in sel_p] == sel

    def test_exact_duplicates_clamped_to_zero(self):
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        ground = GroundSet(items=np.zeros((2, 2)), latents=np.zeros((2, 2)))
        kernel = build_kernel(ground, cfg)  # rank deficient but PSD
        assert kernel.eigvals[0] == 0.0

    def test_psd_violation_rejected(self, monkeypatch):
        # large eigenvalue violations signal broken similarity input and must
        # error instead of being silently repaired
        import divtraj.dpp as dpp_mod

        broken = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {-1, 3}
        monkeypatch.setattr(dpp_mod, "_rbf_similarity", lambda items, k: broken)
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        ground = GroundSet(items=np.zeros((2, 2)), latents=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not PSD"):
            build_kernel(ground, cfg)


def _greedy_map_ref(L):
    """The per-kernel incremental greedy MAP the batched one replaced."""
    n = L.shape[0]
    c = np.zeros((n, n))
    d2 = np.diag(L).copy()
    selected = []
    while len(selected) < n:
        gains = np.full(n, -np.inf)
        np.log(d2, out=gains, where=d2 > 0)
        gains[selected] = -np.inf
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] < 0:
            break
        m = len(selected)
        e = (L[best] - c[best, :m] @ c[:, :m].T) / np.sqrt(d2[best])
        c[:, m] = e
        d2 -= e * e
        selected.append(best)
    return selected


def _mixed_kernels(rng, n, count):
    """Random PSD kernels, diagonal ones with tied and zero gains (entries 1),
    kernels with duplicated items, and scaled identities, interleaved."""
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            a = rng.normal(size=(n, n + 1))
            out.append(a @ a.T * rng.uniform(0.2, 2.0))
        elif kind == 1:
            out.append(np.diag(rng.choice([0.5, 1.0, 2.0, 4.0], size=n)))
        elif kind == 2:
            base = rng.normal(size=(max(1, n // 2), 3))
            items = base[rng.integers(0, len(base), n)]
            r = rng.choice([1.0, 2.0, 3.0], size=n)
            out.append(r[:, None] * np.exp(-((items[:, None] - items[None]) ** 2).sum(axis=2)) * r[None])
        else:
            out.append(np.eye(n) * rng.choice([0.99, 1.0, 1.01]))
    return np.stack(out)


class TestBatchedGreedyMap:
    def test_equals_per_kernel_loop_on_3000_kernels(self):
        rng = np.random.default_rng(14)
        lengths = set()
        for n in range(1, 13):
            stack = _mixed_kernels(rng, n, 250)
            got = dpp._greedy_map(stack)
            assert got == [_greedy_map_ref(L) for L in stack]
            assert got[:20] == [greedy_map(kernel_from_matrix(L)) for L in stack[:20]]
            lengths.update((n, len(sel)) for sel in got)
        # rows of one stack stop at different lengths, empty and full included
        assert all({(n, 0), (n, n)} <= lengths for n in range(2, 13))
        assert len({size for n, size in lengths if n == 12}) >= 6

    def test_sets_equal_build_kernel_then_greedy_map(self, monkeypatch):
        rng = np.random.default_rng(15)
        cfg = KernelConfig(sim_scale=2.0, base_quality=3.0, rho=0.9)
        items, latents = rng.normal(size=(40, 7, 6)), rng.normal(size=(40, 7, 2)) * 1.5
        items[3, 4] = items[3, 1]  # a duplicated item
        latents[3, 4] = latents[3, 1]
        expected = [greedy_map(build_kernel(GroundSet(items=x, latents=z), cfg)) for x, z in zip(items, latents)]
        assert dpp._greedy_map_sets(items, latents, cfg) == expected
        kernel_bytes = 7 * 7 * 8  # one set's (N, N) kernel
        monkeypatch.setattr(dpp, "_KERNEL_BLOCK_BYTES", 3 * kernel_bytes)  # 3 sets a block
        assert dpp._greedy_map_sets(items, latents, cfg) == expected
        monkeypatch.setattr(dpp, "_KERNEL_BLOCK_BYTES", 2 * items[0].nbytes)  # 1 set a block, 2 rows of differences
        assert dpp._greedy_map_sets(items, latents, cfg) == expected

    def test_sets_reject_non_finite_and_non_psd(self, monkeypatch):
        cfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        items, latents = np.zeros((3, 2, 2)), np.zeros((3, 2, 2))
        bad = items.copy()
        bad[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dpp._greedy_map_sets(bad, latents, cfg)
        broken = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {-1, 3}
        monkeypatch.setattr(dpp, "_rbf_similarity", lambda x, scale: np.broadcast_to(broken, (len(x), 2, 2)))
        with pytest.raises(ValueError, match="not PSD"):
            dpp._greedy_map_sets(items, latents, cfg)

    def test_memory_bounded_at_k100_over_1000_sets(self):
        # one (M, N, N, F) difference array would take 460 MiB here; items
        # this close keep 11-20 of 100, so the search stays short
        rng = np.random.default_rng(16)
        cfg = KernelConfig(sim_scale=8.0, base_quality=10.0, rho=0.9)
        items, latents = rng.normal(scale=0.03, size=(1000, 100, 6)), rng.normal(size=(1000, 100, 4))
        tracemalloc.start()
        try:
            maps = dpp._greedy_map_sets(items, latents, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(maps) == 1000 and len({len(sel) for sel in maps}) > 5
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
