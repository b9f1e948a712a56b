"""Initial-data families: constraints, determinism, resolution stability."""

import numpy as np
import pytest

from geoflow import (
    Field,
    GridSpec,
    TimeLadder,
    leray_project,
    spectral_divergence,
    spectral_gradient,
    unit_deviation,
)
from geoflow.families import (
    forcing_family,
    hedgehog_data,
    mode_field,
    mode_lattice,
    oscillatory_angle,
    random_angle,
    stream_velocity,
    taylor_green,
)


def test_mode_lattice_picks_one_of_each_pair():
    for dim, kmax in ((1, 3), (2, 2), (3, 1)):
        modes = mode_lattice(dim, kmax)
        assert len(modes) == ((2 * kmax + 1) ** dim - 1) // 2
        as_set = set(modes)
        assert all(tuple(-c for c in k) not in as_set for k in modes)
        assert (0,) * dim not in as_set


def test_oscillatory_angle_is_sphere_valued(grid2d):
    f = oscillatory_angle(grid2d, 0.7, 2, 4)
    assert f.components == 4
    assert unit_deviation(f) <= 1e-15
    assert np.abs(f.values[:, 2:]).max() == 0.0
    with pytest.raises(ValueError):
        oscillatory_angle(grid2d, 0.5, 0)
    with pytest.raises(ValueError):
        oscillatory_angle(grid2d, 0.5, 1, 1)


def test_random_angle_and_hedgehog_are_unit(grid2d):
    assert unit_deviation(random_angle(grid2d, 0.5, seed=3)) <= 1e-15
    assert unit_deviation(hedgehog_data(grid2d, 0.4, seed=4)) <= 1e-12


def test_stream_velocity_is_divergence_free(grid2d, grid3d):
    for g in (grid2d, grid3d):
        v = stream_velocity(g, 1.3, seed=5)
        assert v.components == g.dim
        assert spectral_divergence(v).sup_norm() <= 1e-12
    with pytest.raises(ValueError):
        stream_velocity(GridSpec(1, 16, 2 * np.pi), 1.0, seed=5)


def test_cellular_flow_structure(grid2d):
    u = taylor_green(grid2d, 1.5)
    assert spectral_divergence(u).sup_norm() <= 1e-13
    # the nonlinearity u . grad u is a pure gradient: the projection kills it
    grad = spectral_gradient(u).values.reshape(grid2d.sites, 2, 2)  # [site, i, a] = d_i u_a
    convective = Field(grid2d, np.einsum("si,sia->sa", u.values, grad))
    assert leray_project(convective).sup_norm() <= 1e-12
    with pytest.raises(ValueError):
        taylor_green(GridSpec(3, 8, 2 * np.pi))


def test_mode_field_determinism(grid2d):
    a = mode_field(grid2d, 2, seed=6)
    b = mode_field(grid2d, 2, seed=6)
    c = mode_field(grid2d, 2, seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.abs(a.values - c.values).max() > 1e-3


def test_families_are_resolution_stable():
    """The same (family, seed) on a refined grid samples the same continuum
    function: coarse values reappear bitwise at the even sites."""
    coarse = GridSpec(2, 16, 2.0 * np.pi)
    fine = GridSpec(2, 32, 2.0 * np.pi)
    fc = mode_field(coarse, 2, seed=8).cube()
    ff = mode_field(fine, 2, seed=8).cube()
    assert np.array_equal(ff[::2, ::2], fc)
    hc = hedgehog_data(coarse, 0.3, seed=9).cube()
    hf = hedgehog_data(fine, 0.3, seed=9).cube()
    assert np.array_equal(hf[::2, ::2], hc)


def test_forcing_family_shape_and_scaling(grid2d):
    lad = TimeLadder(0.25, 16)
    f = forcing_family(grid2d, lad, 2, seed=10)
    assert f.values.shape == (17, grid2d.sites, 2)
    assert np.array_equal(f.values, forcing_family(grid2d, lad, 2, seed=10).values)
    # time profiles genuinely vary along the ladder
    assert np.abs(f.values[0] - f.values[-1]).max() > 1e-3
    doubled = forcing_family(grid2d, lad, 2, seed=10, amplitude=2.0)
    assert np.array_equal(doubled.values, 2.0 * f.values)
