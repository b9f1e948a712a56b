"""Grid construction, spectral calculus, resampling, and snapshot format.

The spectral operators are checked against second-order centered finite
differences (the oracles below) on smooth data: the finite-difference error
must shrink like h^2 while the spectral result is treated as the reference.
"""

import numpy as np
import pytest

from geoflow import (
    Field,
    GridSpec,
    SpaceTimeField,
    cyclic_shift,
    read_snapshot,
    spectral_divergence,
    spectral_gradient,
    spectral_laplacian,
    write_snapshot,
)
from geoflow.grid import (
    _restrict_cube,
    dealiased_apply,
    gradient_cube,
    resample_cube,
    slicewise,
    tensor_divergence_cube,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Finite-difference oracles (periodic, second-order centered).
# ---------------------------------------------------------------------------


def fd_gradient_cube(cube, h):
    """Centered difference gradient; output axes = spatial + (n, l)."""
    dim = cube.ndim - 1
    parts = [
        (np.roll(cube, -1, axis=i) - np.roll(cube, 1, axis=i)) / (2.0 * h)
        for i in range(dim)
    ]
    return np.stack(parts, axis=-2)


def fd_laplacian_cube(cube, h):
    out = np.zeros_like(cube)
    dim = cube.ndim - 1
    for i in range(dim):
        out += (np.roll(cube, -1, axis=i) - 2.0 * cube + np.roll(cube, 1, axis=i)) / (h * h)
    return out


def fd_divergence_cube(cube, h):
    dim = cube.ndim - 1
    out = np.zeros(cube.shape[:-1])
    for i in range(dim):
        out += (np.roll(cube[..., i], -1, axis=i) - np.roll(cube[..., i], 1, axis=i)) / (
            2.0 * h
        )
    return out


def smooth_scalar(grid):
    def fn(*xs):
        out = np.sin(xs[0]) + 0.3 * np.cos(2.0 * xs[0])
        for x in xs[1:]:
            out = out * (1.0 + 0.5 * np.sin(x))
        return out

    return Field.from_function(grid, fn)


# ---------------------------------------------------------------------------
# GridSpec and Field invariants.
# ---------------------------------------------------------------------------


def test_grid_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GridSpec(4, 16, TWO_PI)
    with pytest.raises(ValueError):
        GridSpec(2, 12, TWO_PI)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(2, 4, TWO_PI)  # below the minimum resolution
    with pytest.raises(ValueError):
        GridSpec(2, 16, 0.0)
    for period in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GridSpec(2, 16, period)


def test_grid_spec_derived_quantities(grid2d):
    assert grid2d.sites == 256
    assert grid2d.shape == (16, 16)
    assert grid2d.spacing == pytest.approx(TWO_PI / 16)
    assert grid2d.cell_volume == pytest.approx((TWO_PI / 16) ** 2)


def test_field_rejects_nonfinite(grid2d):
    bad = np.zeros((grid2d.sites, 1))
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Field(grid2d, bad)


def test_field_is_immutable(grid2d):
    f = Field.constant(grid2d, (1.0, 2.0))
    with pytest.raises(AttributeError):
        f.values = np.zeros((grid2d.sites, 2))
    with pytest.raises(ValueError):
        f.values[0, 0] = 3.0  # read-only buffer


def test_field_cube_round_trip(grid2d):
    rng = np.random.default_rng(1)
    f = Field(grid2d, rng.standard_normal((grid2d.sites, 3)))
    back = Field.from_cube(grid2d, f.cube())
    assert np.array_equal(back.values, f.values)


def test_space_time_field_needs_enough_steps(grid2d):
    with pytest.raises(ValueError):
        SpaceTimeField(grid2d, 0.1, np.zeros((3, grid2d.sites, 1)))


def test_space_time_sup_norm_covers_every_slice(grid2d):
    values = np.zeros((9, grid2d.sites, 2))
    values[7, 3] = (3.0, -4.0)
    assert SpaceTimeField(grid2d, 0.25, values).sup_norm() == 5.0


# ---------------------------------------------------------------------------
# Spectral operators against closed forms and the FD oracles.
# ---------------------------------------------------------------------------


def test_laplacian_annihilates_constants(grid2d):
    f = Field.constant(grid2d, (2.5, -1.0))
    assert spectral_laplacian(f).sup_norm() <= 1e-13


def test_laplacian_eigenmode(grid1d):
    f = Field.from_function(grid1d, lambda x: np.sin(x))
    lap = spectral_laplacian(f)
    assert np.abs(lap.values + f.values).max() <= 1e-12


def test_gradient_of_constant_vanishes(grid2d):
    f = Field.constant(grid2d, (1.0,))
    assert spectral_gradient(f).sup_norm() <= 1e-13


def test_gradient_single_mode(grid2d):
    f = Field.from_function(grid2d, lambda x, y: np.sin(x))
    g = spectral_gradient(f)  # components (d1 f, d2 f)
    expected = Field.from_function(grid2d, lambda x, y: (np.cos(x), np.zeros_like(y)))
    assert np.abs(g.values - expected.values).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_matches_fd_oracle_at_second_order(dim):
    errs = []
    for m in (16, 32):
        grid = GridSpec(dim, m, TWO_PI)
        f = smooth_scalar(grid)
        spec = spectral_laplacian(f).cube()[..., 0]
        fd = fd_laplacian_cube(f.cube(), grid.spacing)[..., 0]
        errs.append(np.abs(spec - fd).max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0  # second-order oracle: error / 4 per refinement


def test_divergence_of_gradient_matches_laplacian(grid2d):
    f = smooth_scalar(grid2d)
    div_grad = spectral_divergence(spectral_gradient(f))
    lap = spectral_laplacian(f)
    assert np.abs(div_grad.values - lap.values).max() <= 1e-11


def test_divergence_of_rotated_stream_function_vanishes(grid2d):
    psi = smooth_scalar(grid2d)
    g = spectral_gradient(psi).cube()  # (.., 2) = (d1 psi, d2 psi)
    v = Field.from_cube(grid2d, np.stack([-g[..., 1], g[..., 0]], axis=-1))
    assert spectral_divergence(v).sup_norm() <= 1e-12


def test_divergence_matches_fd_oracle(grid2d_32):
    rngf = smooth_scalar(grid2d_32)
    v = spectral_gradient(rngf)
    spec = spectral_divergence(v).cube()[..., 0]
    fd = fd_divergence_cube(v.cube(), grid2d_32.spacing)
    assert np.abs(spec - fd).max() <= 0.05 * np.abs(spec).max() + 1e-12


def test_gradient_matches_fd_oracle_at_second_order():
    errs = []
    for m in (16, 32):
        grid = GridSpec(2, m, TWO_PI)
        f = smooth_scalar(grid)
        spec = spectral_gradient(f).cube()
        n, l = grid.dim, f.components
        fd = fd_gradient_cube(f.cube(), grid.spacing).reshape(grid.shape + (n * l,))
        errs.append(np.abs(spec - fd).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0


# ---------------------------------------------------------------------------
# Fourier identities.
# ---------------------------------------------------------------------------


def test_fft_round_trip_is_identity(grid3d):
    rng = np.random.default_rng(7)
    cube = rng.standard_normal(grid3d.shape)
    back = np.fft.ifftn(np.fft.fftn(cube)).real
    assert np.abs(back - cube).max() <= 1e-12 * np.abs(cube).max()


def test_parseval(grid2d):
    rng = np.random.default_rng(8)
    cube = rng.standard_normal(grid2d.shape)
    hat = np.fft.fftn(cube)
    phys = (cube**2).sum()
    spect = (np.abs(hat) ** 2).sum() / grid2d.sites
    assert abs(phys - spect) <= 1e-12 * phys


def test_operators_commute_with_cyclic_shifts(grid2d):
    f = smooth_scalar(grid2d)
    shifts = (3, 7)
    for op in (spectral_laplacian, spectral_gradient):
        a = op(cyclic_shift(f, shifts))
        b = cyclic_shift(op(f), shifts)
        scale = max(b.sup_norm(), 1.0)
        assert np.abs(a.values - b.values).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Matrix-field kernels.
# ---------------------------------------------------------------------------


def test_tensor_divergence_of_gram(grid2d_32):
    """Row divergence of a matrix field agrees with the FD oracle on smooth data."""
    from geoflow.families import mode_field

    d = mode_field(grid2d_32, 3, seed=11, kmax=1)  # well-resolved content
    g = gradient_cube(d.cube(), grid2d_32)
    rows = np.einsum("...il,...jl->...ij", g, g)  # Gram matrix of the gradient
    td = tensor_divergence_cube(rows.reshape(grid2d_32.shape + (4,)), grid2d_32)
    h = grid2d_32.spacing
    fd = np.stack(
        [fd_divergence_cube(rows[..., i, :], h) for i in range(2)], axis=-1
    )
    scale = np.abs(td).max()
    assert np.abs(td - fd).max() <= 0.05 * scale


# ---------------------------------------------------------------------------
# Resampling (dealiasing backbone).
# ---------------------------------------------------------------------------


def test_resample_round_trip_is_identity(grid2d):
    rng = np.random.default_rng(5)
    cube = rng.standard_normal(grid2d.shape + (2,))
    up = resample_cube(cube, grid2d, 24)
    assert up.shape == (24, 24, 2)
    down_grid = GridSpec(2, 16, TWO_PI)
    # restrict back through the private helper used by dealiased_apply
    from geoflow.grid import _restrict_cube

    back = _restrict_cube(up, down_grid, 24)
    assert np.abs(back - cube).max() <= 1e-12


def test_resample_preserves_resolved_modes(grid1d):
    f = Field.from_function(grid1d, lambda x: np.sin(3.0 * x))
    up = resample_cube(f.cube(), grid1d, 96)
    x_fine = np.arange(96) * (TWO_PI / 96)
    assert np.abs(up[:, 0] - np.sin(3.0 * x_fine)).max() <= 1e-12


def band_limited_stack(rng, grid, slices, comps):
    """Random (slices, sites, comps) stack with the Nyquist modes removed."""
    axes = tuple(range(1, 1 + grid.dim))
    hat = np.fft.fftn(rng.standard_normal((slices,) + grid.shape + (comps,)), axes=axes)
    k = np.fft.fftfreq(grid.points_per_axis, 1.0 / grid.points_per_axis)
    keep = np.abs(k) < grid.points_per_axis // 2
    hat *= np.multiply.outer(keep, keep)[None, :, :, None]
    return np.fft.ifftn(hat, axes=axes).real.reshape(slices, grid.sites, comps)


def test_dealiased_apply_is_exact_for_quadratic_products(grid2d):
    # 37 slices: two full 16-slice blocks and a ragged one
    rng = np.random.default_rng(7)
    a, b = (band_limited_stack(rng, grid2d, 37, 2) for _ in range(2))
    product = dealiased_apply(grid2d, lambda x, y: x * y, a, b)
    # reference: multiply on the 2M grid, where the product is resolved
    fine = [resample_cube(s.reshape((37,) + grid2d.shape + (2,)), grid2d, 32) for s in (a, b)]
    exact = _restrict_cube(fine[0] * fine[1], grid2d, 32).reshape(37, grid2d.sites, 2)
    assert product.shape == (37, grid2d.sites, 2)
    assert np.abs(product - exact).max() <= 1e-12
    assert np.abs(a * b - exact).max() > 1e-3  # the unpadded product aliases


def test_slicewise_restacks_kernel_output(grid2d):
    a = band_limited_stack(np.random.default_rng(8), grid2d, 37, 3)
    out = slicewise(grid2d, lambda cube: (cube**2).sum(axis=-1), a)
    assert np.array_equal(out, (a**2).sum(axis=-1))


# ---------------------------------------------------------------------------
# Snapshot format.
# ---------------------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path, grid3d):
    rng = np.random.default_rng(6)
    f = Field(grid3d, rng.standard_normal((grid3d.sites, 2)))
    path = tmp_path / "field.dat"
    write_snapshot(f, path)
    g = read_snapshot(path)
    assert g.grid == grid3d
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize(
    "header, payload",
    [
        (b"GEOFLOW1 2 16 6.0 1\n", bytes(8 * 256 - 1)),  # truncated payload
        (b"GEOFLOW1 2 16 6.0 1\n", bytes(8 * 256 + 1)),  # one trailing byte
        (b"GEOFLOW1 2 16 6.0 0\n", b""),  # zero components
        (b"GEOFLOW2 2 16 6.0 1\n", bytes(8 * 256)),  # bad magic
        (b"GEOFLOW1 3 1099511627776 6.28 1\n", bytes(16)),  # 2^120 sites
        (b"GEOFLOW1 2 16 6.0 99999999999999999999\n", bytes(16)),  # huge component count
    ],
    ids=[
        "truncated", "trailing-byte", "zero-components", "bad-magic",
        "huge-grid", "huge-components",
    ],
)
def test_snapshot_reader_fails_closed(tmp_path, header, payload):
    path = tmp_path / "field.dat"
    path.write_bytes(header + payload)
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_snapshot_header_is_ascii(tmp_path, grid2d):
    f = Field.constant(grid2d, (1.0,))
    path = tmp_path / "field.dat"
    write_snapshot(f, path)
    header = path.read_bytes().split(b"\n", 1)[0]
    parts = header.decode("ascii").split()
    assert parts[0] == "GEOFLOW1"
    assert parts[1:3] == ["2", "16"]
    assert parts[4] == "1"
