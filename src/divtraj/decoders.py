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
models can be evaluated without linking them in.

The three share one base, ``_PerCodeDecoder``, and keep only their per-code
math, ``_linearize_codes``: (N, n_z) codes to their (N, T, D) decode and, on
request, their (N, T*D, n_z) Jacobian. The base gives the rest once: one check
of the codes, the flattening of their leading axes, ``decode_batch``,
``jacobian_batch``, ``linearize`` (the two from one pass over the codes, which
both trainers chain through) and the config round trip, from one table of
each kind's config keys and fields.

All decoders here are additive in the context:
``decode_batch(z, ctx) == decode_batch(z, None) + context_offset(ctx)``
(reshaped), a property the trainers and the CLI rely on to batch latent
codes across contexts. ``decode_batch``, ``jacobian_batch`` and ``linearize``
take codes with any leading axes, (..., n_z) to (..., T, D) and
(..., T*D, n_z), and treat each code as they would alone.

Route template geometry (speed s, T future steps): forward continues the +x
heading at s per step; left/right are quarter-circle arcs of radius
2*s*T/pi (arc length s*T) traversed in T equal angular increments.
"""
from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass

import numpy as np

from .trajectory import Context, _check_fields, _check_value, _float_array, _reject_unknown

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


class _PerCodeDecoder:
    """Everything but a decoder's per-code math, ``_linearize_codes``: (N, n_z)
    codes to their (N, T, D) decode and, with ``jac``, (N, T*D, n_z) Jacobian
    (else None). perfbench wraps each subclass's own ``decode_batch``: each
    binds it."""

    def decode_batch(self, Z, ctx: Context | None = None) -> np.ndarray:
        out = self._over_leading_axes(Z, jac=False)[0]
        return out if ctx is None else out + self.context_offset(ctx).reshape(self.t_steps, self.state_dim)

    def jacobian_batch(self, Z) -> np.ndarray:
        """(..., T*D, n_z) derivative of the flattened decode at each (..., n_z) code."""
        return self._over_leading_axes(Z)[1]

    def linearize(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """``(decode_batch(Z), jacobian_batch(Z))`` from one pass over the codes."""
        return self._over_leading_axes(Z)

    def _codes(self, Z) -> tuple[np.ndarray, tuple]:
        """The checked (..., n_z) codes as (N, n_z) rows, and their leading axes."""
        Z = np.atleast_1d(_float_array("codes", Z))
        if Z.shape[-1] != self.n_z:
            raise ValueError(f"latent dim mismatch: got {Z.shape[-1]}, decoder has {self.n_z}")
        return Z.reshape(-1, self.n_z), Z.shape[:-1]

    def _over_leading_axes(self, Z, jac: bool = True) -> tuple:
        """``_linearize_codes`` over (..., n_z) codes; one (n_z,) code gives outputs without a leading axis."""
        Z, lead = self._codes(Z)
        outs = self._linearize_codes(Z, jac)
        return tuple(None if out is None else out.reshape(*lead, *out.shape[1:]) for out in outs)

    def to_config(self) -> dict:
        """The serialized config block: each field under its key, arrays as lists."""
        kind, fields = next((kind, fields) for kind, (cls, fields) in _KINDS.items() if isinstance(self, cls))
        values = {key: getattr(self, field) for key, field in fields.items()}
        return {"kind": kind, **{key: _plain(value) for key, value in values.items() if value is not None}}


def _plain(value):
    """A field as JSON data: arrays, and tuples of numbers or arrays, as lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True)
class LinearDecoder(_PerCodeDecoder):
    """Affine decoder: reshape(W @ z + c0 + M @ ctx.features) to T x D."""

    W: np.ndarray  # (T*D, n_z)
    c0: np.ndarray  # (T*D,)
    t_steps: int
    state_dim: int
    ctx_proj: np.ndarray | None = None  # (T*D, ctx_feature_dim)

    def __post_init__(self):
        _check_fields(self, t_steps="count", state_dim="count")
        W, c0 = _float_array("W", self.W), _float_array("c0", self.c0)
        if W.ndim != 2:
            raise ValueError(f"W must be a 2-d array, got {W.ndim}-d")
        if W.shape[0] != self.t_steps * self.state_dim or c0.shape != (W.shape[0],):
            raise ValueError("W/c0 shapes inconsistent with t_steps * state_dim")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c0", c0)
        if self.ctx_proj is not None:
            m = _float_array("ctx_proj", self.ctx_proj)
            if m.ndim != 2 or m.shape[0] != W.shape[0]:
                raise ValueError(f"ctx_proj must be a 2-d array of {W.shape[0]} rows, got shape {m.shape}")
            object.__setattr__(self, "ctx_proj", m)

    @property
    def n_z(self) -> int:
        return self.W.shape[1]

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        """Flattened additive contribution of the context (zero without one)."""
        if ctx is None or self.ctx_proj is None:
            return np.zeros(self.W.shape[0])
        return self.ctx_proj @ ctx.features

    decode_batch = _PerCodeDecoder.decode_batch

    def _linearize_codes(self, Z, jac: bool):
        # numpy sends a one-row product to BLAS gemv, whose last bit can differ
        # from gemm's; a doubled row keeps a lone code on the path of a batch
        rows = Z if len(Z) > 1 else np.concatenate([Z, Z])
        out = (rows @ self.W.T + self.c0)[: len(Z)].reshape(-1, self.t_steps, self.state_dim)
        return out, np.broadcast_to(self.W, (len(Z), *self.W.shape)) if jac else None


@dataclass(frozen=True)
class CrossroadDecoder(_PerCodeDecoder):
    """Three-route decoder over a 2-d latent plane partitioned by angle.

    The forward sector is centered at angle 0 with angular fraction
    mode_probs[0]; left and right sectors follow counterclockwise. Sector
    boundaries are half-open (lower angle inclusive). Mode selection depends
    only on the angle of z; radius and within-sector angular offset add the
    bounded smooth variation. Inside a sector, d offset/dz = (-z_1, z_0) /
    (|z|^2 half) and d radial/dz = (1 - radial^2) z / |z|; the Jacobian is zero
    at z = 0, where the angle is undefined.
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
    decode_batch = _PerCodeDecoder.decode_batch

    @property
    def templates(self) -> dict[str, np.ndarray]:
        return route_templates(self.speed, self.t_steps)

    def sector_of(self, Z) -> np.ndarray:
        """Route index (0 forward, 1 left, 2 right) for each (..., 2) latent code."""
        Z, lead = self._codes(Z)
        return self._polar(Z)[0].reshape(lead)

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        """Flattened junction-anchor translation (the context's last pose)."""
        if ctx is None:
            return np.zeros(self.t_steps * 2)
        return np.tile(ctx.past[-1], self.t_steps)

    def _polar(self, Z):
        """The sectors of (N, 2) codes, the sectors' half widths, the in-sector
        offsets rel / half, and the radii."""
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
        return sectors, half, offset, np.sqrt(np.einsum("ij,ij->i", Z, Z))

    def _linearize_codes(self, Z, jac: bool):
        sectors, half, offset, radius = self._polar(Z)
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

@dataclass(frozen=True)
class TabulatedDecoder(_PerCodeDecoder):
    """Grid of (latent -> trajectory) values with multilinear interpolation.

    Latents outside the grid are clamped to the boundary so decoding stays
    total on finite inputs. The Jacobian is the interpolant's cell slopes at the
    clamped codes, zero along a dimension where the code is off the grid.
    """

    z_grid: tuple  # one strictly ascending axis array per latent dimension
    table: np.ndarray  # grid shape + (T, D), row-major
    t_steps: int
    state_dim: int
    decode_batch = _PerCodeDecoder.decode_batch

    def __post_init__(self):
        _check_fields(self, t_steps="count", state_dim="count")
        grid, axes_of_numbers = self.z_grid, "a list of axes, each a list of numbers"
        if not isinstance(grid, (list, tuple)) or not all(isinstance(ax, (list, tuple, np.ndarray)) for ax in grid):
            raise ValueError(f"z_grid must be {axes_of_numbers}, got {grid!r}")
        axes = tuple(_float_array("z_grid", ax, axes_of_numbers) for ax in grid)
        ascending = [ax.ndim == 1 and len(ax) > 1 and (np.diff(ax) > 0).all() for ax in axes]
        if not (axes and all(ascending)):
            raise ValueError(f"z_grid must be axes of >= 2 finite, strictly ascending numbers, got {reprlib.repr(grid)}")
        table = _float_array("table", self.table)
        expected = tuple(len(ax) for ax in axes) + (self.t_steps, self.state_dim)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match grid {expected}")
        object.__setattr__(self, "z_grid", axes)
        object.__setattr__(self, "table", table)

    @property
    def n_z(self) -> int:
        return len(self.z_grid)

    def context_offset(self, ctx: Context | None) -> np.ndarray:
        return np.zeros(self.t_steps * self.state_dim)

    def _linearize_codes(self, Z, jac: bool):
        """A decode sums the corners of the code's cell: each corner's row times
        its weights, (1 - t, t) at each axis's low and high face. The interpolant
        is linear along an axis in a cell, so the slope along axis i is the sum with
        axis i's weights (0, 1) minus the sum with (1, 0), over the cell width.
        Weights multiply in axis order; corners add to a zero in ``itertools.product`` order."""
        corners = np.array(list(itertools.product((0, 1), repeat=self.n_z)))  # (C, n_z): 0 low face, 1 high
        n_sets = 1 + 2 * self.n_z if jac else 1
        weights, cell, corner, inv_widths = 1.0, 0, 0, []
        for i, ax in enumerate(self.z_grid):
            z = np.clip(Z[:, i], ax[0], ax[-1])
            j = np.minimum(np.searchsorted(ax, z, side="right") - 1, len(ax) - 2)  # the top face is in the last cell
            lo, width = ax[j], ax[j + 1] - ax[j]
            t = (z - lo) / width
            w = np.repeat(np.stack([1 - t, t])[None], n_sets, axis=0)  # (sets, low/high face, N)
            if jac:
                w[1 + 2 * i], w[2 + 2 * i] = [[0.0], [1.0]], [[1.0], [0.0]]  # axis i's high face, then its low
                inv_widths.append((Z[:, i] == z) / width)  # zero off the grid
            weights = weights * w[:, corners[:, i]]  # (sets, C, N)
            cell, corner = cell * len(ax) + j, corner * len(ax) + corners[:, i]  # rows of the flat table
        values = self.table.reshape(-1, self.t_steps * self.state_dim).take(corner[:, None] + cell, axis=0)
        sums = 0.0
        for value, w in zip(values, weights.swapaxes(0, 1)):
            sums = sums + value * w[:, :, None]  # (sets, N, T*D)
        slopes = [(sums[1 + 2 * i] - sums[2 + 2 * i]) * inv_width[:, None] for i, inv_width in enumerate(inv_widths)]
        return sums[0].reshape(Z.shape[0], self.t_steps, self.state_dim), np.stack(slopes, axis=2) if jac else None


# kind: (decoder, {config key: field}); every key is required but the linear "ctx_proj"
_KINDS = {
    "linear": (LinearDecoder, {key: key for key in ("W", "c0", "t_steps", "state_dim", "ctx_proj")}),
    "crossroad": (CrossroadDecoder, {key: key for key in ("mode_probs", "speed", "t_steps", "within_mode_scale")}),
    "tabulated": (TabulatedDecoder, {"z_grid": "z_grid", "T": "t_steps", "D": "state_dim", "table": "table"}),
}


def decoder_from_config(cfg: dict):
    """Rebuild a decoder from its serialized config block; a key its kind
    does not use, or a missing one, is rejected."""
    _reject_unknown(cfg, {"kind"}.union(*(f for _, f in _KINDS.values())), "decoder config")  # an object first
    kind = cfg.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"decoder kind must be a string, got {kind!r}")
    if kind not in _KINDS:
        raise ValueError(f"unknown decoder kind: {kind!r}")
    cls, fields = _KINDS[kind]
    _reject_unknown(cfg, ("kind", *fields), "decoder config", required=[key for key in fields if key != "ctx_proj"])
    return cls(**{field: cfg[key] for key, field in fields.items() if key in cfg})
