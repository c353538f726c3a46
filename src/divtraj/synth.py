"""Synthetic 2-d crossroad trajectory data.

Each example is a vehicle approaching a junction in a straight line for H
steps and then taking one of three routes (forward, left, right) for T
steps, with route frequencies set by ``mode_probs``. I.i.d. Gaussian noise
is added to every per-step velocity before integration, so noise-free
futures lie exactly on the route templates defined in
:mod:`divtraj.decoders`. The absolute scene scale is arbitrary but fixed by
``speed``.

Example generation is seeded per example (generator seeded with
``[seed, index]``), so datasets are reproducible and order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoders import ROUTE_NAMES, _checked_mode_probs, route_templates
from .trajectory import Context, Dataset, Example, _check_fields

__all__ = ["CrossroadConfig", "generate_crossroad"]


@dataclass(frozen=True)
class CrossroadConfig:
    mode_probs: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    n_examples: int = 1000
    past_steps: int = 2
    future_steps: int = 3
    speed: float = 1.0
    noise_std: float | None = None  # defaults to 0.02 * speed
    seed: int = 0

    def __post_init__(self):
        optional = {} if self.noise_std is None else {"noise_std": "nonnegative"}
        _check_fields(
            self, n_examples="count", past_steps="count", future_steps="count", seed="seed", speed="positive",
            **optional,
        )
        probs = _checked_mode_probs(self.mode_probs)
        noise = 0.02 * self.speed if self.noise_std is None else float(self.noise_std)
        object.__setattr__(self, "mode_probs", probs)
        object.__setattr__(self, "noise_std", noise)


def generate_crossroad(cfg: CrossroadConfig) -> Dataset:
    """Generate a crossroad dataset; the route label is kept in example meta."""
    templates = route_templates(cfg.speed, cfg.future_steps)
    template_vels = {
        name: np.diff(np.vstack([np.zeros(2), tpl]), axis=0) for name, tpl in templates.items()
    }
    h, t = cfg.past_steps, cfg.future_steps
    examples = []
    for i in range(cfg.n_examples):
        rng = np.random.default_rng([cfg.seed, i])
        route = int(rng.choice(3, p=cfg.mode_probs))
        noise = rng.normal(0.0, cfg.noise_std, size=(h + t, 2))
        vels = np.vstack(
            [np.tile([cfg.speed, 0.0], (h, 1)), template_vels[ROUTE_NAMES[route]]]
        )
        positions = np.array([-h * cfg.speed, 0.0]) + np.cumsum(vels + noise, axis=0)
        examples.append(
            Example(
                context=Context(past=positions[:h]),
                future=positions[h:],
                id=i,
                meta={"route": ROUTE_NAMES[route]},
            )
        )
    meta = {
        "T": t,
        "H": h,
        "D": 2,
        "description": "synthetic crossroad, mode_probs=%s, speed=%s, noise_std=%s"
        % (list(cfg.mode_probs), cfg.speed, cfg.noise_std),
    }
    return Dataset(examples=tuple(examples), meta=meta)
