"""Decoder unit tests: linear, crossroad, and tabulated."""
import json

import numpy as np
import pytest

from divtraj import (
    Context,
    CrossroadDecoder,
    LinearDecoder,
    TabulatedDecoder,
    decoder_from_config,
    numeric_gradient,
    route_templates,
)
from divtraj.fileio import _dumps


def fd_jacobian(dec, z, step=1e-6):
    """Central-difference Jacobian of the flattened decode, one output at a time."""
    n_out = dec.t_steps * dec.state_dim
    return np.stack(
        [numeric_gradient(lambda x: dec.decode_batch(x[None]).reshape(-1)[i], z, step) for i in range(n_out)]
    )


class TestLinearDecoder:
    def make(self, rng, n_z=3, t=2, d=2, with_ctx=False):
        return LinearDecoder(
            W=rng.normal(size=(t * d, n_z)),
            c0=rng.normal(size=t * d),
            t_steps=t,
            state_dim=d,
            ctx_proj=rng.normal(size=(t * d, 2)) if with_ctx else None,
        )

    def test_zero_latent_returns_offset(self):
        rng = np.random.default_rng(0)
        dec = self.make(rng)
        np.testing.assert_allclose(dec.decode_batch(np.zeros(3)), dec.c0.reshape(2, 2))

    def test_identity_weights_reshape(self):
        dec = LinearDecoder(W=np.eye(6), c0=np.zeros(6), t_steps=3, state_dim=2)
        z = np.arange(6.0)
        np.testing.assert_allclose(dec.decode_batch(z), z.reshape(3, 2))

    def test_affine_identity(self):
        rng = np.random.default_rng(1)
        dec = self.make(rng)
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        decode = dec.decode_batch
        combined = decode(z1 + z2) - decode(z1) - decode(z2) + decode(np.zeros(3))
        np.testing.assert_allclose(combined, 0.0, atol=1e-12)

    def test_context_projection_additive(self):
        rng = np.random.default_rng(2)
        dec = self.make(rng, with_ctx=True)
        ctx = Context(past=rng.normal(size=(2, 2)), features=rng.normal(size=2))
        z = rng.normal(size=3)
        base = dec.decode_batch(z, None).reshape(-1)
        np.testing.assert_allclose(
            dec.decode_batch(z, ctx).reshape(-1), base + dec.context_offset(ctx), rtol=1e-12
        )

    def test_dim_mismatch(self):
        dec = LinearDecoder(W=np.eye(6), c0=np.zeros(6), t_steps=3, state_dim=2)
        with pytest.raises(ValueError):
            dec.decode_batch(np.zeros(4))
        for Z in (np.zeros((4, 3)), np.zeros(3)):
            with pytest.raises(ValueError, match="latent dim mismatch: got 3, decoder has 6"):
                dec.jacobian_batch(Z)

    def test_jacobian_is_w_at_every_code(self):
        rng = np.random.default_rng(4)
        dec = self.make(rng)
        jac = dec.jacobian_batch(rng.normal(size=(5, 3)))
        assert jac.shape == (5, 4, 3)
        for j in jac:
            np.testing.assert_array_equal(j, dec.W)

    def test_config_round_trip(self):
        rng = np.random.default_rng(3)
        dec = self.make(rng, with_ctx=True)
        clone = decoder_from_config(dec.to_config())
        z = rng.normal(size=3)
        np.testing.assert_array_equal(clone.decode_batch(z), dec.decode_batch(z))


class TestCrossroadDecoder:
    DEC = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1), speed=1.0, t_steps=3, within_mode_scale=0.3)

    def test_forward_bisector_unit_radius_is_template(self):
        # on the sector bisector at radius 1 the variation vanishes exactly
        templates = route_templates(1.0, 3)
        np.testing.assert_allclose(self.DEC.decode_batch(np.array([1.0, 0.0])), templates["forward"])

    def test_balanced_sector_frequencies(self):
        dec = CrossroadDecoder(mode_probs=(1 / 3, 1 / 3, 1 / 3))
        draws = np.random.default_rng(0).standard_normal((100_000, 2))
        freqs = np.bincount(dec.sector_of(draws), minlength=3) / 100_000
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.01)

    def test_imbalanced_sector_frequencies(self):
        draws = np.random.default_rng(1).standard_normal((100_000, 2))
        freqs = np.bincount(self.DEC.sector_of(draws), minlength=3) / 100_000
        np.testing.assert_allclose(freqs, [0.8, 0.1, 0.1], atol=0.01)

    def test_deterministic(self):
        z = np.array([0.3, 0.7])
        out1 = self.DEC.decode_batch(z)
        out2 = self.DEC.decode_batch(z)
        assert np.array_equal(out1, out2)

    def test_mode_depends_only_on_angle(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((500, 2))
        base = self.DEC.sector_of(draws)
        for scale in (0.01, 0.5, 3.0, 250.0):
            np.testing.assert_array_equal(self.DEC.sector_of(scale * draws), base)

    def test_continuity_within_open_sectors(self):
        # finite-difference continuity probe away from sector boundaries
        rng = np.random.default_rng(3)
        h = 1e-7
        count = 0
        for _ in range(200):
            z = rng.standard_normal(2) * rng.uniform(0.3, 2.0)
            zs = np.stack([z, z + [h, 0.0], z + [0.0, h]])
            if len(set(self.DEC.sector_of(zs).tolist())) > 1:
                continue  # straddles a boundary; skip
            out = self.DEC.decode_batch(zs)
            assert np.linalg.norm(out[1] - out[0]) < 1e-5
            assert np.linalg.norm(out[2] - out[0]) < 1e-5
            count += 1
        assert count > 150

    def boundaries(self):
        return np.concatenate([self.DEC._centers - self.DEC._half, self.DEC._centers + self.DEC._half])

    def test_jacobian_matches_fd_inside_sectors(self):
        # 150 codes at least 1e-3 rad from every sector boundary and 0.2 from the origin
        rng = np.random.default_rng(6)
        theta = rng.uniform(-np.pi, np.pi, size=400)
        gap = np.abs(np.mod(theta[:, None] - self.boundaries()[None] + np.pi, 2 * np.pi) - np.pi)
        theta = theta[gap.min(axis=1) > 1e-3][:150]
        assert theta.size == 150
        Z = rng.uniform(0.2, 3.0, size=(150, 1)) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        jac = self.DEC.jacobian_batch(Z)
        assert jac.shape == (150, 6, 2)
        for z, j in zip(Z, jac):
            np.testing.assert_allclose(j, fd_jacobian(self.DEC, z), rtol=0, atol=1e-7)

    def test_jacobian_matches_fd_just_inside_each_boundary(self):
        # each sector's lower and upper edge, 1e-3 rad inside, with steps that stay in the sector
        for s, (center, half) in enumerate(zip(self.DEC._centers, self.DEC._half)):
            for theta in (center - half + 1e-3, center + half - 1e-3):
                for radius in (0.5, 1.0, 2.5):
                    z = radius * np.array([np.cos(theta), np.sin(theta)])
                    h = 1e-6 * max(1.0, np.abs(z).max())
                    probes = z + h * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
                    assert np.all(self.DEC.sector_of(probes) == s)
                    np.testing.assert_allclose(
                        self.DEC.jacobian_batch(z), fd_jacobian(self.DEC, z), rtol=0, atol=1e-7
                    )

    def test_jacobian_at_origin_is_finite_zero(self):
        jac = self.DEC.jacobian_batch(np.zeros((2, 2)))
        assert np.all(np.isfinite(jac)) and np.all(jac == 0.0)

    def test_anchored_at_context_endpoint(self):
        ctx = Context(past=np.array([[0.0, 0.0], [3.0, -2.0]]))
        z = np.array([1.0, 0.0])
        shifted = self.DEC.decode_batch(z, ctx)
        np.testing.assert_allclose(shifted, self.DEC.decode_batch(z) + np.array([3.0, -2.0]))

    def test_sector_of_rejects_3d_codes(self):
        # (N, 3) codes must not be read through their first two columns
        codes = np.random.default_rng(5).standard_normal((4, 3))
        for method in (self.DEC.sector_of, self.DEC.decode_batch):
            with pytest.raises(ValueError, match="latent dim mismatch: got 3, decoder has 2"):
                method(codes)

    @pytest.mark.parametrize("field, value, message", [
        ("mode_probs", (np.nan, 0.5, 0.5), r"mode_probs must be 3 finite values >= 0 summing to 1, got \[nan, 0.5, 0.5\]"),
        ("mode_probs", (np.inf, 0.0, 0.0), r"mode_probs must be .*, got \[inf, 0.0, 0.0\]"),
        ("speed", np.nan, r"speed must be finite and > 0, got nan"),
        ("speed", np.inf, r"speed must be finite and > 0, got inf"),
        ("within_mode_scale", np.nan, r"within_mode_scale must be finite and > 0, got nan"),
        ("within_mode_scale", np.inf, r"within_mode_scale must be finite and > 0, got inf"),
    ])
    def test_nonfinite_parameters_rejected(self, field, value, message):
        # json.load reads NaN and Infinity, so a config can carry them
        with pytest.raises(ValueError, match=f"^{message}$"):
            CrossroadDecoder(**{field: value})

    def test_degenerate_probs_all_forward(self):
        dec = CrossroadDecoder(mode_probs=(1.0, 0.0, 0.0))
        draws = np.random.default_rng(4).standard_normal((1000, 2))
        assert np.all(dec.sector_of(draws) == 0)

    def test_config_round_trip(self):
        clone = decoder_from_config(self.DEC.to_config())
        z = np.array([-0.4, 1.1])
        np.testing.assert_array_equal(clone.decode_batch(z), self.DEC.decode_batch(z))


class TestTabulatedDecoder:
    def make_from_crossroad(self):
        source = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))
        ax = np.linspace(-3.0, 3.0, 41)
        grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        table = source.decode_batch(grid).reshape(41, 41, 3, 2)
        return source, TabulatedDecoder(z_grid=(ax, ax), table=table, t_steps=3, state_dim=2)

    def test_exact_on_grid_nodes(self):
        source, tab = self.make_from_crossroad()
        z = np.array([1.5, -1.5])  # a grid node
        np.testing.assert_allclose(tab.decode_batch(z), source.decode_batch(z), atol=1e-12)

    def test_interpolates_between_nodes(self):
        source, tab = self.make_from_crossroad()
        rng = np.random.default_rng(5)
        inside = rng.uniform(-2.5, 2.5, size=(50, 2))
        approx = tab.decode_batch(inside)
        exact = source.decode_batch(inside)
        # bilinear interpolation error is small away from sector boundaries
        errs = np.linalg.norm((approx - exact).reshape(50, -1), axis=1)
        assert np.median(errs) < 0.05

    def test_clamps_out_of_range(self):
        _, tab = self.make_from_crossroad()
        far = tab.decode_batch(np.array([100.0, 0.0]))
        edge = tab.decode_batch(np.array([3.0, 0.0]))
        np.testing.assert_allclose(far, edge)

    def test_config_round_trip(self):
        _, tab = self.make_from_crossroad()
        clone = decoder_from_config(tab.to_config())
        z = np.array([0.7, 0.2])
        np.testing.assert_allclose(clone.decode_batch(z), tab.decode_batch(z))

    def make_random(self, rng, n_z):
        axes = tuple(np.sort(rng.uniform(-2.0, 2.0, size=6 + i)) for i in range(n_z))
        table = rng.normal(size=tuple(len(ax) for ax in axes) + (3, 2))
        return TabulatedDecoder(z_grid=axes, table=table, t_steps=3, state_dim=2)

    def inside_cells(self, rng, tab, n):
        # a random cell per dimension, 5-95% of the way across it: FD steps stay in the cell
        cols = []
        for ax in tab.z_grid:
            j = rng.integers(0, len(ax) - 1, size=n)
            cols.append(ax[j] + rng.uniform(0.05, 0.95, size=n) * (ax[j + 1] - ax[j]))
        return np.stack(cols, axis=1)

    def test_jacobian_matches_fd_inside_cells(self):
        rng = np.random.default_rng(7)
        for n_z in (1, 2, 3):
            tab = self.make_random(rng, n_z)
            Z = self.inside_cells(rng, tab, 100)
            jac = tab.jacobian_batch(Z)
            assert jac.shape == (100, 6, n_z)
            for z, j in zip(Z, jac):
                np.testing.assert_allclose(j, fd_jacobian(tab, z), rtol=0, atol=1e-7)

    def test_jacobian_zero_along_off_grid_dimension(self):
        rng = np.random.default_rng(8)
        tab = self.make_random(rng, 2)
        for dim in (0, 1):
            Z = self.inside_cells(rng, tab, 100)
            ax = tab.z_grid[dim]
            Z[:, dim] = np.where(rng.random(100) < 0.5, ax[0] - 0.5, ax[-1] + 0.5)
            jac = tab.jacobian_batch(Z)
            assert np.all(jac[:, :, dim] == 0.0)
            assert np.all(np.abs(jac[:, :, 1 - dim]).max(axis=1) > 0)
            for z, j in zip(Z, jac):
                np.testing.assert_allclose(j, fd_jacobian(tab, z), rtol=0, atol=1e-7)

    def test_table_shape_validated(self):
        with pytest.raises(ValueError):
            TabulatedDecoder(
                z_grid=(np.linspace(0, 1, 3),), table=np.zeros((4, 2, 2)), t_steps=2, state_dim=2
            )

    AXES = r"^z_grid must be axes of >= 2 finite, strictly ascending numbers, got "
    NON_FINITE = r"^z_grid contains non-finite entries$"

    @pytest.mark.parametrize(
        "z_grid, message",
        [
            ([[1.0, 0.0]], AXES),  # descending: clamping would pin every code to one end
            ([[0.0, 1.0], [0.5]], AXES),  # one point: no cell, so no slope
            ([[0.0, 0.0, 1.0]], AXES),  # a repeated value: a cell of zero width
            ([[0.0, 1.0], [0.0, np.nan]], NON_FINITE),
            ([[0.0, np.inf]], NON_FINITE),
            ([[[0.0, 1.0], [2.0, 3.0]]], AXES),  # a 2-d axis
            ([], AXES),  # no axis
        ],
        ids=["descending", "one point", "repeated", "nan", "inf", "2-d", "empty"],
    )
    def test_bad_grid_axes_rejected(self, z_grid, message):
        shape = tuple(np.shape(ax)[0] for ax in z_grid) + (2, 2)
        with pytest.raises(ValueError, match=message):
            TabulatedDecoder(z_grid=z_grid, table=np.zeros(shape), t_steps=2, state_dim=2)

    @pytest.mark.parametrize("n_z", [1, 2, 3])
    def test_decode_and_jacobian_equal_grid_interpolator(self, n_z):
        # the reference: scipy's multilinear interpolant of the clamped codes,
        # and its difference across each cell's two faces over the cell width
        # (zero along a dimension where the code is off the grid)
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(60 + n_z)
        tab = self.make_random(rng, n_z)
        axes = tab.z_grid
        interp = RegularGridInterpolator(axes, tab.table.reshape(tab.table.shape[:n_z] + (-1,)))
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_z)
        faces = self.inside_cells(rng, tab, 300)
        one_off = self.inside_cells(rng, tab, 300)
        for i, ax in enumerate(axes):
            faces[i::n_z, i] = rng.choice(ax, size=len(faces[i::n_z]))
            one_off[i::n_z, i] = rng.choice([ax[0] - 0.5, ax[-1] + 0.5, -1e9, 1e9], size=len(one_off[i::n_z]))
        all_off = np.where(rng.random((50, n_z)) < 0.5, -9.0, 9.0)
        Z = np.concatenate([rng.normal(scale=2.0, size=(300, n_z)), nodes, faces, one_off, all_off])
        z = np.column_stack([np.clip(Z[:, i], ax[0], ax[-1]) for i, ax in enumerate(axes)])
        slopes = []
        for i, ax in enumerate(axes):
            j = np.clip(np.searchsorted(ax, z[:, i], side="right") - 1, 0, len(ax) - 2)
            lo, hi = z.copy(), z.copy()
            lo[:, i], hi[:, i] = ax[j], ax[j + 1]
            slopes.append((interp(hi) - interp(lo)) * ((Z[:, i] == z[:, i]) / (ax[j + 1] - ax[j]))[:, None])
        value, jac = tab.linearize(Z)
        assert np.array_equal(value, interp(z).reshape(-1, 3, 2))
        assert np.array_equal(jac, np.stack(slopes, axis=2))


def _decoders(rng):
    ax = np.linspace(-3.0, 3.0, 7)
    return {
        "linear": LinearDecoder(W=rng.normal(size=(6, 3)), c0=rng.normal(size=6), t_steps=3, state_dim=2),
        "linear ctx_proj": LinearDecoder(
            W=rng.normal(size=(6, 3)), c0=rng.normal(size=6), t_steps=3, state_dim=2,
            ctx_proj=rng.normal(size=(6, 2)),
        ),
        "crossroad": CrossroadDecoder(mode_probs=(0.6, 0.3, 0.1)),
        "tabulated": TabulatedDecoder(z_grid=(ax, ax), table=rng.normal(size=(7, 7, 3, 2)), t_steps=3, state_dim=2),
    }


@pytest.mark.parametrize("name", ["linear", "linear ctx_proj", "crossroad", "tabulated"])
@pytest.mark.parametrize("k", [1, 4])
def test_leading_axes_decode_each_code_as_alone(name, k):
    # the sampler decodes (M, K, n_z) codes at once and adds each example's
    # context offset: that must equal decoding each example's codes alone
    rng = np.random.default_rng(50)
    dec = _decoders(rng)[name]
    Z = rng.normal(scale=2.0, size=(5, k, dec.n_z))
    ctxs = [Context(past=rng.normal(size=(2, 2)), features=rng.normal(size=2)) for _ in range(5)]
    batched = dec.decode_batch(Z)
    assert batched.shape == (5, k, 3, 2)
    jac = dec.jacobian_batch(Z)
    assert jac.shape == (5, k, 6, dec.n_z)
    for z, ctx, out, j in zip(Z, ctxs, batched, jac):
        assert np.array_equal(out, dec.decode_batch(z))
        with_ctx = dec.decode_batch(z, ctx)
        assert np.array_equal(with_ctx, out + dec.context_offset(ctx).reshape(3, 2))
        assert np.array_equal(j, dec.jacobian_batch(z))
        # a single (n_z,) code has no leading axis: it gives what a batch of
        # one gives, (T, D) and (T*D, n_z)
        for code in z:
            alone = dec.decode_batch(code[None])[0]
            assert dec.decode_batch(code).shape == (3, 2)
            assert np.array_equal(dec.decode_batch(code), alone)
            assert np.array_equal(dec.decode_batch(code, ctx), dec.decode_batch(code[None], ctx)[0])
            assert dec.jacobian_batch(code).shape == (6, dec.n_z)
            assert np.array_equal(dec.jacobian_batch(code), dec.jacobian_batch(code[None])[0])


def _edge_codes(name, dec, rng):
    """24 random codes, z = 0 and each decoder's edge cases, (N, n_z)."""
    codes = [rng.normal(scale=2.0, size=(24, dec.n_z)), np.zeros((1, dec.n_z))]
    if name.startswith("crossroad"):
        # every sector boundary, and the angles just either side of it
        edges = np.concatenate([dec._centers - dec._half, dec._centers + dec._half])
        theta = np.concatenate([edges, edges - 1e-12, edges + 1e-12])
        codes.append(1.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    if name == "tabulated":
        # off the grid along one dimension, then along both
        codes.append(np.array([[3.5, 0.2], [-0.7, -9.0], [4.0, -4.0], [-3.0, 3.0]]))
    return np.concatenate(codes)


@pytest.mark.parametrize(
    "name", ["linear", "linear ctx_proj", "crossroad", "crossroad (1, 0, 0)", "tabulated"]
)
def test_linearize_is_decode_and_jacobian(name):
    # mode_probs (1, 0, 0) leaves two zero-width sectors; the offset divides under half > 0
    rng = np.random.default_rng(52)
    degenerate = {"crossroad (1, 0, 0)": CrossroadDecoder(mode_probs=(1.0, 0.0, 0.0))}
    dec = dict(_decoders(rng), **degenerate)[name]
    codes = _edge_codes(name, dec, rng)
    # leading axes (1,), (N,) and (M, E, K), then each code alone, (n_z,)
    for Z in (codes[:1], codes, codes[:24].reshape(2, 3, 4, dec.n_z), *codes):
        value, jac = dec.linearize(Z)
        assert np.array_equal(value, dec.decode_batch(Z))
        assert np.array_equal(jac, dec.jacobian_batch(Z))


@pytest.mark.parametrize("name", ["linear", "crossroad", "tabulated"])
def test_unknown_config_key_rejected(name):
    # a misspelt key must not fall back to the field's default
    cfg = dict(_decoders(np.random.default_rng(51))[name].to_config(), within_mode_scal=9.0)
    with pytest.raises(ValueError, match=r"unknown keys in decoder config: \['within_mode_scal'\]"):
        decoder_from_config(cfg)


# Each kind's config block as ``fileio._dumps`` writes it, taken from the
# decoders before they shared one ``to_config``: the block keeps its bytes.
_W, _C0 = [[1.0, 0.5], [0.0, -2.0], [0.25, 3.0], [1.5, 0.0]], [0.0, 1.0, -1.0, 2.5]
CONTRACT = {
    "linear": (
        lambda: LinearDecoder(W=_W, c0=_C0, t_steps=2, state_dim=2),
        '{"W":[[1.0,0.5],[0.0,-2.0],[0.25,3.0],[1.5,0.0]],"c0":[0.0,1.0,-1.0,2.5],"kind":"linear","state_dim":2,'
        '"t_steps":2}',
    ),
    "linear ctx_proj": (
        lambda: LinearDecoder(W=_W, c0=_C0, t_steps=2, state_dim=2, ctx_proj=[[1.0], [0.0], [2.0], [-1.0]]),
        '{"W":[[1.0,0.5],[0.0,-2.0],[0.25,3.0],[1.5,0.0]],"c0":[0.0,1.0,-1.0,2.5],'
        '"ctx_proj":[[1.0],[0.0],[2.0],[-1.0]],"kind":"linear","state_dim":2,"t_steps":2}',
    ),
    "crossroad": (
        lambda: CrossroadDecoder(mode_probs=(0.6, 0.3, 0.1), speed=1.5, t_steps=3, within_mode_scale=0.25),
        '{"kind":"crossroad","mode_probs":[0.6,0.3,0.1],"speed":1.5,"t_steps":3,"within_mode_scale":0.25}',
    ),
    "tabulated": (
        lambda: TabulatedDecoder(
            z_grid=([-1, 0, 2], [0.0, 1.0]), table=np.arange(24.0).reshape(3, 2, 2, 2) / 4, t_steps=2, state_dim=2
        ),
        '{"D":2,"T":2,"kind":"tabulated","table":[[[[0.0,0.25],[0.5,0.75]],[[1.0,1.25],[1.5,1.75]]],'
        '[[[2.0,2.25],[2.5,2.75]],[[3.0,3.25],[3.5,3.75]]],[[[4.0,4.25],[4.5,4.75]],[[5.0,5.25],[5.5,5.75]]]],'
        '"z_grid":[[-1.0,0.0,2.0],[0.0,1.0]]}',
    ),
}


def _methods(dec):
    """Every public method that takes codes."""
    methods = [dec.decode_batch, dec.jacobian_batch, dec.linearize]
    return methods + [dec.sector_of] if isinstance(dec, CrossroadDecoder) else methods


@pytest.mark.parametrize("kind", CONTRACT)
class TestDecoderContract:
    """What every decoder kind does the same way, through the one base."""

    def test_linearize_over_leading_axes(self, kind):
        dec = CONTRACT[kind][0]()
        codes = np.random.default_rng(70).normal(scale=1.5, size=(12, dec.n_z))
        for lead in ((), (12,), (3, 4)):
            Z = codes[: int(np.prod(lead))].reshape(*lead, dec.n_z)
            value, jac = dec.linearize(Z)
            assert value.shape == (*lead, dec.t_steps, dec.state_dim)
            assert jac.shape == (*lead, dec.t_steps * dec.state_dim, dec.n_z)
            assert np.array_equal(value, dec.decode_batch(Z))
            assert np.array_equal(jac, dec.jacobian_batch(Z))

    def test_bad_codes_rejected(self, kind):
        dec = CONTRACT[kind][0]()
        row = [0.5] * dec.n_z
        bad = {
            "string": ([["1.5", *row[1:]]], r"^codes must be an array of numbers in rows of equal length, got "),
            "bool": ([[True, *row[1:]]], r"^codes must be an array of numbers in rows of equal length, got "),
            "nan": ([[np.nan, *row[1:]]], r"^codes contains non-finite entries$"),
            "ragged": ([row, row + [0.5]], r"^codes must be an array of numbers in rows of equal length, got "),
            "n_z": ([row + [0.5]], rf"^latent dim mismatch: got {dec.n_z + 1}, decoder has {dec.n_z}$"),
        }
        for method in _methods(dec):
            for codes, message in bad.values():
                with pytest.raises(ValueError, match=message):
                    method(codes)

    def test_config_keeps_its_bytes(self, kind):
        make, expected = CONTRACT[kind]
        assert _dumps(make().to_config()) == expected
        assert _dumps(decoder_from_config(json.loads(expected)).to_config()) == expected


@pytest.mark.parametrize("shape", [(16, 100, 4), (1, 8, 100, 4), (300, 10, 4)])
def test_flattened_linear_decode_equals_stacked(shape):
    # the base decodes every code in one (N, n_z) product; each (K, n_z) stack
    # of it must keep the bits that the stack's own product gives
    rng = np.random.default_rng(71)
    dec = LinearDecoder(W=rng.normal(size=(6, 4)), c0=rng.normal(size=6), t_steps=3, state_dim=2)
    Z = rng.normal(size=shape)
    stacked = np.stack([z @ dec.W.T + dec.c0 for z in Z.reshape(-1, *shape[-2:])])
    assert np.array_equal(dec.decode_batch(Z), stacked.reshape(*shape[:-1], 3, 2))
