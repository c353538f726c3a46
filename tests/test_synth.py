"""Crossroad dataset generator tests."""
import numpy as np
import pytest

from divtraj import (
    CrossroadConfig,
    build_multimodal_gt,
    generate_crossroad,
    route_templates,
)
from divtraj.fileio import write_dataset


class TestGenerateCrossroad:
    def test_noise_free_forward_is_exact_template(self):
        cfg = CrossroadConfig(mode_probs=(1.0, 0.0, 0.0), n_examples=5, noise_std=0.0, seed=0)
        ds = generate_crossroad(cfg)
        template = route_templates(cfg.speed, cfg.future_steps)["forward"]
        for ex in ds.examples:
            np.testing.assert_allclose(ex.future, template, atol=1e-15)
            np.testing.assert_allclose(ex.context.past[-1], [0.0, 0.0], atol=1e-15)

    def test_noise_free_all_routes_on_template(self):
        cfg = CrossroadConfig(mode_probs=(1 / 3, 1 / 3, 1 / 3), n_examples=60, noise_std=0.0, seed=1)
        ds = generate_crossroad(cfg)
        templates = route_templates(cfg.speed, cfg.future_steps)
        for ex in ds.examples:
            np.testing.assert_allclose(ex.future, templates[ex.meta["route"]], atol=1e-15)

    def test_route_counts_within_binomial_bands(self):
        n = 10_000
        cfg = CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=n, seed=7)
        ds = generate_crossroad(cfg)
        counts = {"forward": 0, "left": 0, "right": 0}
        for ex in ds.examples:
            counts[ex.meta["route"]] += 1
        for route, p in zip(("forward", "left", "right"), (0.8, 0.1, 0.1)):
            band = 3.0 * np.sqrt(n * p * (1 - p))
            assert abs(counts[route] - n * p) <= band

    def test_same_seed_byte_identical_file(self, tmp_path):
        cfg = CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=50, seed=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(p1, generate_crossroad(cfg))
        write_dataset(p2, generate_crossroad(cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CrossroadConfig(mode_probs=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            CrossroadConfig(n_examples=0)
        with pytest.raises(ValueError):
            CrossroadConfig(noise_std=-0.1)

    @pytest.mark.parametrize("field, value, message", [
        ("mode_probs", (0.5, np.nan, 0.5), r"mode_probs must be 3 finite values >= 0 summing to 1, got \[0.5, nan, 0.5\]"),
        ("speed", np.nan, r"speed must be finite and > 0, got nan"),
        ("speed", np.inf, r"speed must be finite and > 0, got inf"),
        ("noise_std", np.nan, r"noise_std must be finite and >= 0, got nan"),
        ("noise_std", np.inf, r"noise_std must be finite and >= 0, got inf"),
    ])
    def test_nonfinite_config_rejected(self, field, value, message):
        # rejected when built, not later inside generation with numpy's message
        with pytest.raises(ValueError, match=f"^{message}$"):
            CrossroadConfig(**{field: value})

    def test_default_shapes(self):
        ds = generate_crossroad(CrossroadConfig(n_examples=3, seed=0))
        assert ds.meta["T"] == 3 and ds.meta["H"] == 2 and ds.meta["D"] == 2


class TestMultimodalPremise:
    def test_small_noise_groups_all_routes(self):
        # the experiment's premise: similar contexts share futures across routes
        cfg = CrossroadConfig(mode_probs=(1 / 3, 1 / 3, 1 / 3), n_examples=30, seed=5)
        ds = generate_crossroad(cfg)
        groups = build_multimodal_gt(ds, eps=1.0)
        routes = {ex.id: ex.meta["route"] for ex in ds.examples}
        by_future = {tuple(np.round(ex.future[-1], 9)): routes[ex.id] for ex in ds.examples}
        for ex in ds.examples:
            got_routes = {by_future[tuple(np.round(f[-1], 9))] for f in groups[ex.id]}
            assert got_routes == {"forward", "left", "right"}

    def test_contexts_identical_up_to_noise(self):
        cfg = CrossroadConfig(mode_probs=(1 / 3, 1 / 3, 1 / 3), n_examples=40, seed=6)
        ds = generate_crossroad(cfg)
        ctx = np.stack([ex.context.flat() for ex in ds.examples])
        spread = np.linalg.norm(ctx - ctx.mean(axis=0), axis=1).max()
        assert spread < 10 * cfg.noise_std * np.sqrt(ctx.shape[1]) + 1e-9
