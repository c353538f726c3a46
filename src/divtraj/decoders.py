"""Deterministic latent-to-trajectory decoders.

``LinearDecoder`` is an affine analytic decoder used for gradient-checked
optimization. ``CrossroadDecoder`` emits one of three fixed route templates
(forward / left / right from the context endpoint) selected purely by the
angle of a 2-d latent code; the angular fraction of each sector equals the
configured mode probability, so decoding standard-normal latents reproduces
the configured route frequencies. Smooth bounded within-mode variation is
added from the angular offset inside the sector and the latent radius; the
variation vanishes on the sector bisector at unit radius. ``TabulatedDecoder``
interpolates a grid of precomputed trajectories so externally produced
models can be evaluated without linking them in. ``jacobian_batch`` gives
each decoder's per-code derivative. ``linearize`` returns the decode and that
derivative together, from one pass over the codes (one sector search, one
clamp), and both trainers chain through it; the two single-output methods are
built from the same code, so each formula is written once.

All decoders here are additive in the context:
``decode_batch(z, ctx) == decode_batch(z, None) + context_offset(ctx)``
(reshaped), a property the trainers and the CLI rely on to batch latent
codes across contexts. ``decode_batch``, ``jacobian_batch`` and ``linearize``
take codes with any leading axes, (..., n_z) to (..., T, D) and
(..., T*D, n_z). The crossroad and tabulated decoders treat each code as they
would alone; the linear decoder's matmul can differ in the last bit between
stacks of different shapes.

Route template geometry (speed s, T future steps): forward continues the +x
heading at s per step; left/right are quarter-circle arcs of radius
2*s*T/pi (arc length s*T) traversed in T equal angular increments.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import _reject_unknown
from .trajectory import Context, _check_fields, _check_value

__all__ = [
    "route_templates",
    "LinearDecoder",
    "CrossroadDecoder",
    "TabulatedDecoder",
    "decoder_from_config",
]

ROUTE_NAMES = ("forward", "left", "right")

# Unit endpoint headings of the three routes and their left-normals; the
# within-mode variation displaces along these directions.
_ROUTE_HEADINGS = {
    "forward": np.array([1.0, 0.0]),
    "left": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "right": np.array([1.0, -1.0]) / np.sqrt(2.0),
}


def route_templates(speed: float, t_steps: int) -> dict[str, np.ndarray]:
    """Exact T x 2 route offsets relative to the junction for the three routes."""
    _check_value("speed", speed, "positive")
    _check_value("t_steps", t_steps, "count")
    t = np.arange(1, t_steps + 1, dtype=float)
    forward = np.stack([speed * t, np.zeros(t_steps)], axis=1)
    radius = 2.0 * speed * t_steps / np.pi
    phi = (np.pi / 2.0) * t / t_steps
    left = np.stack([radius * np.sin(phi), radius * (1.0 - np.cos(phi))], axis=1)
    right = left * np.array([1.0, -1.0])
    return {"forward": forward, "left": left, "right": right}


def _over_leading_axes(linearize_codes, Z, jac: bool = True) -> tuple:
    """Apply ``linearize_codes``, which maps (N, n_z) codes to their (N, T, D)
    decode and, with ``jac``, their (N, T*D, n_z) Jacobian (else None), to
    (..., n_z) codes; a single (n_z,) code gives single outputs, without a
    leading axis."""
    Z = np.atleast_1d(np.asarray(Z, dtype=float))
    lead, outs = Z.shape[:-1], linearize_codes(Z.reshape(-1, Z.shape[-1]), jac)
    return tuple(None if out is None else out.reshape(*lead, *out.shape[1:]) for out in outs)


def _checked_mode_probs(mode_probs) -> tuple:
    """The three route probabilities, a list of numbers, as floats: each >= 0,
    summing to 1."""
    if not isinstance(mode_probs, (list, tuple, np.ndarray)):
        raise ValueError(f"mode_probs must be a list of 3 numbers, got {mode_probs!r}")
    for p in mode_probs:
        _check_value("mode_probs entry", p, "number")
    probs = tuple(float(p) for p in mode_probs)
    if len(probs) != 3 or not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-12:
        raise ValueError(f"mode_probs must be 3 finite values >= 0 summing to 1, got {list(probs)}")
    return probs


def _wrap_angle(theta):
    """Wrap to [-pi, pi)."""
    return np.mod(theta + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class LinearDecoder:
    """Affine decoder: reshape(W @ z + c0 + M @ ctx.features) to T x D."""

    W: np.ndarray  # (T*D, n_z)
    c0: np.ndarray  # (T*D,)
    t_steps: int
    state_dim: int
    ctx_proj: np.ndarray | None = None  # (T*D, ctx_feature_dim)

    def __post_init__(self):
        _check_fields(self, t_steps="count", state_dim="count")
        W = np.asarray(self.W, dtype=float)
        c0 = np.asarray(self.c0, dtype=float)
        if W.shape[0] != self.t_steps * self.state_dim or c0.shape != (W.shape[0],):
            raise ValueError("W/c0 shapes inconsistent with t_steps * state_dim")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(c0))):
            raise ValueError("decoder parameters contain non-finite entries")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c0", c0)
        if self.ctx_proj is not None:
            m = np.asarray(self.ctx_proj, dtype=float)
            if m.shape[0] != W.shape[0] or not np.all(np.isfinite(m)):
                raise ValueError("ctx_proj has wrong shape or non-finite entries")
            object.__setattr__(self, "ctx_proj", m)

    @property
    def n_z(self) -> int:
        return self.W.shape[1]

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        """Flattened additive contribution of the context (zero without one)."""
        if ctx is None or self.ctx_proj is None:
            return np.zeros(self.W.shape[0])
        return self.ctx_proj @ ctx.features

    def decode_batch(self, Z, ctx: Context | None = None) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.shape[-1] != self.n_z:
            raise ValueError(f"latent dim mismatch: got {Z.shape[-1]}, decoder has {self.n_z}")
        # over leading axes, matmul runs each (K, n_z) stack through the BLAS
        # call that the stack alone gets, so stacking never changes a bit
        flat = Z @ self.W.T + self.c0 + self.context_offset(ctx)
        return flat.reshape(*Z.shape[:-1], self.t_steps, self.state_dim)

    def jacobian_batch(self, Z) -> np.ndarray:
        """(..., T*D, n_z) derivative of the flattened decode at each of the
        (..., n_z) codes: W."""
        shape = np.shape(Z)
        if shape[-1] != self.n_z:
            raise ValueError(f"latent dim mismatch: got {shape[-1]}, decoder has {self.n_z}")
        return np.broadcast_to(self.W, shape[:-1] + self.W.shape)

    def linearize(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """``(decode_batch(Z), jacobian_batch(Z))``."""
        return self.decode_batch(Z), self.jacobian_batch(Z)

    def to_config(self) -> dict:
        cfg = {
            "kind": "linear",
            "W": self.W.tolist(),
            "c0": self.c0.tolist(),
            "t_steps": self.t_steps,
            "state_dim": self.state_dim,
        }
        if self.ctx_proj is not None:
            cfg["ctx_proj"] = self.ctx_proj.tolist()
        return cfg


@dataclass(frozen=True)
class CrossroadDecoder:
    """Three-route decoder over a 2-d latent plane partitioned by angle.

    The forward sector is centered at angle 0 with angular fraction
    mode_probs[0]; left and right sectors follow counterclockwise. Sector
    boundaries are half-open (lower angle inclusive). Mode selection depends
    only on the angle of z; radius and within-sector angular offset add the
    bounded smooth variation.
    """

    mode_probs: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    speed: float = 1.0
    t_steps: int = 3
    within_mode_scale: float = 0.3

    def __post_init__(self):
        _check_fields(self, t_steps="count", speed="positive", within_mode_scale="positive")
        probs = _checked_mode_probs(self.mode_probs)
        object.__setattr__(self, "mode_probs", probs)
        p_f, p_l, p_r = probs
        object.__setattr__(
            self,
            "_centers",
            np.array([0.0, np.pi * p_f + np.pi * p_l, np.pi * p_f + 2.0 * np.pi * p_l + np.pi * p_r]),
        )
        object.__setattr__(self, "_half", np.pi * np.array([p_f, p_l, p_r]))
        object.__setattr__(self, "_widest", int(np.argmax(self._half)))
        tpl = route_templates(self.speed, self.t_steps)
        object.__setattr__(self, "_templates", np.stack([tpl[name] for name in ROUTE_NAMES]))
        heading = np.stack([_ROUTE_HEADINGS[name] for name in ROUTE_NAMES])
        object.__setattr__(self, "_heading", heading)
        object.__setattr__(self, "_lateral", np.stack([-heading[:, 1], heading[:, 0]], axis=1))
        object.__setattr__(
            self, "_ramp", np.arange(1, self.t_steps + 1, dtype=float) / self.t_steps
        )

    n_z = 2
    state_dim = 2

    @property
    def templates(self) -> dict[str, np.ndarray]:
        return route_templates(self.speed, self.t_steps)

    def sector_of(self, Z) -> np.ndarray:
        """Route index (0 forward, 1 left, 2 right) for each 2-d latent code."""
        return self._polar(Z)[1]

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        """Flattened junction-anchor translation (the context's last pose)."""
        if ctx is None:
            return np.zeros(self.t_steps * 2)
        return np.tile(ctx.past[-1], self.t_steps)

    def _polar(self, Z):
        """Checked (N, 2) codes, their sectors, the sectors' half widths, the
        in-sector offsets rel / half, and the radii."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != 2:
            raise ValueError("crossroad decoder expects 2-d latent codes")
        rel = _wrap_angle(np.arctan2(Z[:, 1], Z[:, 0])[:, None] - self._centers)  # (n, 3)
        hit = (rel >= -self._half) & (rel < self._half)
        # the first sector that holds the angle; the widest if rounding leaves a gap.
        # Nested where, not argmax: argmax over rows of 3 is 10x slower at N = 3000.
        sectors = np.where(
            hit[:, 0], 0, np.where(hit[:, 1], 1, np.where(hit[:, 2], 2, self._widest))
        )
        half = self._half[sectors]
        own_rel = rel[np.arange(Z.shape[0]), sectors]
        offset = np.divide(own_rel, half, out=np.zeros_like(own_rel), where=half > 0)
        return Z, sectors, half, offset, np.sqrt(np.einsum("ij,ij->i", Z, Z))

    def decode_batch(self, Z, ctx: Context | None = None) -> np.ndarray:
        out = _over_leading_axes(self._linearize_codes, Z, jac=False)[0]
        return out if ctx is None else out + ctx.past[-1]

    def jacobian_batch(self, Z) -> np.ndarray:
        """(..., T*2, 2) derivative of the flattened decode at each of the
        (..., 2) codes: inside a sector, d offset/dz = (-z_1, z_0) / (|z|^2
        half) and d radial/dz = (1 - radial^2) z / |z|; zero at z = 0, where
        the angle is undefined."""
        return _over_leading_axes(self._linearize_codes, Z)[1]

    def linearize(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """``(decode_batch(Z), jacobian_batch(Z))`` from one pass that finds
        each code's sector."""
        return _over_leading_axes(self._linearize_codes, Z)

    def _linearize_codes(self, Z, jac: bool):
        Z, sectors, half, offset, radius = self._polar(Z)
        lateral, heading = self._lateral[sectors], self._heading[sectors]
        radial = np.tanh(radius - 1.0)
        wobble_dir = offset[:, None] * lateral + radial[:, None] * heading  # (n, 2)
        out = self._templates[sectors] + self.within_mode_scale * (
            self._ramp[None, :, None] * wobble_dir[:, None, :]
        )
        if not jac:
            return out, None
        safe = np.where(radius > 0, radius, 1.0)
        d_offset = np.stack([-Z[:, 1], Z[:, 0]], axis=1) / (safe**2 * half)[:, None]
        d_radial = ((1.0 - radial**2) / safe)[:, None] * Z
        # (n, 2, 2): output coordinate by latent coordinate
        d_dir = lateral[:, :, None] * d_offset[:, None] + heading[:, :, None] * d_radial[:, None]
        d_out = self.within_mode_scale * self._ramp[None, :, None, None] * d_dir[:, None]
        return out, d_out.reshape(Z.shape[0], -1, 2)

    def to_config(self) -> dict:
        return {
            "kind": "crossroad",
            "mode_probs": list(self.mode_probs),
            "speed": self.speed,
            "t_steps": self.t_steps,
            "within_mode_scale": self.within_mode_scale,
        }


@dataclass(frozen=True)
class TabulatedDecoder:
    """Grid of (latent -> trajectory) values with multilinear interpolation.

    Latents outside the grid are clamped to the boundary so decoding stays
    total on finite inputs.
    """

    z_grid: tuple  # one ascending axis array per latent dimension
    table: np.ndarray  # grid shape + (T, D), row-major
    t_steps: int
    state_dim: int
    _interp: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy.interpolate import RegularGridInterpolator  # lazy: see trajectory._cdist

        _check_fields(self, t_steps="count", state_dim="count")
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.z_grid)
        table = np.asarray(self.table, dtype=float)
        expected = tuple(len(ax) for ax in axes) + (self.t_steps, self.state_dim)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match grid {expected}")
        if not np.all(np.isfinite(table)):
            raise ValueError("table contains non-finite entries")
        object.__setattr__(self, "z_grid", axes)
        object.__setattr__(self, "table", table)
        flat = table.reshape(table.shape[: len(axes)] + (-1,))
        object.__setattr__(
            self, "_interp", RegularGridInterpolator(axes, flat, method="linear")
        )

    @property
    def n_z(self) -> int:
        return len(self.z_grid)

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        return np.zeros(self.t_steps * self.state_dim)

    def decode_batch(self, Z, ctx: Context | None = None) -> np.ndarray:
        return _over_leading_axes(self._linearize_codes, Z, jac=False)[0]

    def jacobian_batch(self, Z) -> np.ndarray:
        """(..., T*D, n_z) cell slopes of the multilinear interpolant at the
        clamped (..., n_z) codes; zero along a dimension where the code is off
        the grid. The interpolant is linear along each axis inside a cell, so a
        slope is the difference across the cell's two faces over its width."""
        return _over_leading_axes(self._linearize_codes, Z)[1]

    def linearize(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """``(decode_batch(Z), jacobian_batch(Z))``, clamping the codes once."""
        return _over_leading_axes(self._linearize_codes, Z)

    def _linearize_codes(self, Z, jac: bool):
        if Z.shape[1] != self.n_z:
            raise ValueError(f"latent dim mismatch: got {Z.shape[1]}, grid has {self.n_z}")
        z = np.column_stack([np.clip(Z[:, i], ax[0], ax[-1]) for i, ax in enumerate(self.z_grid)])
        out = self._interp(z).reshape(Z.shape[0], self.t_steps, self.state_dim)
        if not jac:
            return out, None
        slopes = []
        for i, ax in enumerate(self.z_grid):
            j = np.clip(np.searchsorted(ax, z[:, i], side="right") - 1, 0, len(ax) - 2)
            lo, hi = z.copy(), z.copy()
            lo[:, i], hi[:, i] = ax[j], ax[j + 1]
            inv_width = (Z[:, i] == z[:, i]) / (ax[j + 1] - ax[j])  # zero off the grid
            slopes.append((self._interp(hi) - self._interp(lo)) * inv_width[:, None])
        return out, np.stack(slopes, axis=2)

    def to_config(self) -> dict:
        return {
            "kind": "tabulated",
            "z_grid": [ax.tolist() for ax in self.z_grid],
            "T": self.t_steps,
            "D": self.state_dim,
            "table": self.table.tolist(),
        }


_CONFIG_KEYS = {  # every key of a kind's block is required but the linear "ctx_proj"
    "linear": ("kind", "W", "c0", "t_steps", "state_dim", "ctx_proj"),
    "crossroad": ("kind", "mode_probs", "speed", "t_steps", "within_mode_scale"),
    "tabulated": ("kind", "z_grid", "T", "D", "table"),
}


def decoder_from_config(cfg: dict):
    """Rebuild a decoder from its serialized config block; a key its kind
    does not use, or a missing one, is rejected."""
    _reject_unknown(cfg, set().union(*_CONFIG_KEYS.values()), "decoder config")  # an object before its kind is read
    kind = cfg.get("kind")
    if kind not in _CONFIG_KEYS:
        raise ValueError(f"unknown decoder kind: {kind!r}")
    keys = _CONFIG_KEYS[kind]
    _reject_unknown(cfg, keys, "decoder config", required=[key for key in keys if key != "ctx_proj"])
    if kind == "linear":
        return LinearDecoder(
            W=cfg["W"], c0=cfg["c0"], t_steps=cfg["t_steps"], state_dim=cfg["state_dim"], ctx_proj=cfg.get("ctx_proj")
        )
    if kind == "crossroad":  # every key but "kind" names a field
        return CrossroadDecoder(**{key: cfg[key] for key in _CONFIG_KEYS[kind][1:]})
    return TabulatedDecoder(z_grid=cfg["z_grid"], table=cfg["table"], t_steps=cfg["T"], state_dim=cfg["D"])
