"""Heat semigroup, caloric extension, Duhamel response, Leray projection.

The Duhamel operator freezes the forcing at the left endpoint of each ladder
cell and integrates the semigroup exactly; for a single decaying mode the
resulting recursion has the closed form checked below, and the distance to
the continuum response shrinks at first order in the step size.
"""

import math

import numpy as np
import pytest

from geoflow import (
    Field,
    GridSpec,
    SpaceTimeField,
    TimeLadder,
    caloric_extension,
    duhamel_heat,
    duhamel_leray_div,
    heat_semigroup,
    leray_project,
    recover_pressure,
    spectral_divergence,
    spectral_gradient,
    spectral_laplacian,
)
from geoflow.families import mode_field, stream_velocity, taylor_green
from geoflow.heat import heat_residual, projected_divergence

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Semigroup.
# ---------------------------------------------------------------------------


def test_ladder_properties():
    lad = TimeLadder(0.5, 10)
    assert lad.dt == pytest.approx(0.05)
    assert lad.times[0] == 0.0
    assert lad.times[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        TimeLadder(0.0, 10)
    with pytest.raises(ValueError):
        TimeLadder(math.inf, 10)
    with pytest.raises(ValueError):
        TimeLadder(0.5, 3)


def test_semigroup_rejects_negative_time(grid2d):
    with pytest.raises(ValueError):
        heat_semigroup(Field.constant(grid2d, (1.0,)), -0.1)


def test_semigroup_identity_at_zero(grid2d):
    rng = np.random.default_rng(0)
    f = Field(grid2d, rng.standard_normal((grid2d.sites, 2)))
    out = heat_semigroup(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_semigroup_fixes_constants(grid2d):
    f = Field.constant(grid2d, (3.0, -1.0))
    out = heat_semigroup(f, 1.7)
    assert np.abs(out.values - f.values).max() <= 1e-13


def test_semigroup_eigenmode_decay(grid1d):
    f = Field.from_function(grid1d, lambda x: np.sin(x))
    out = heat_semigroup(f, 1.0)
    assert np.abs(out.values - math.exp(-1.0) * f.values).max() <= 1e-12


def test_semigroup_law(grid2d):
    f = mode_field(grid2d, 2, seed=1)
    once = heat_semigroup(heat_semigroup(f, 0.1), 0.1)
    twice = heat_semigroup(f, 0.2)
    assert np.abs(once.values - twice.values).max() <= 1e-12 * f.sup_norm()


def test_semigroup_max_principle_and_mean(grid2d):
    f = mode_field(grid2d, 1, seed=2)
    out = heat_semigroup(f, 0.3)
    assert out.sup_norm() <= f.sup_norm() + 1e-13
    assert np.abs(out.mean() - f.mean()).max() <= 1e-13


# ---------------------------------------------------------------------------
# Caloric extension.
# ---------------------------------------------------------------------------


def test_extension_slice_zero_is_data(grid2d, ladder):
    f = mode_field(grid2d, 2, seed=3)
    ext = caloric_extension(f, ladder)
    assert np.array_equal(ext.values[0], f.values)


def test_extension_matches_semigroup_slices(grid2d, ladder):
    f = mode_field(grid2d, 2, seed=4)
    ext = caloric_extension(f, ladder)
    for j in (1, 7, 32):
        direct = heat_semigroup(f, ladder.times[j])
        assert np.abs(ext.values[j] - direct.values).max() <= 1e-12


def test_extension_sup_norm_nonincreasing(grid2d, ladder):
    f = mode_field(grid2d, 3, seed=5)
    ext = caloric_extension(f, ladder)
    sups = np.sqrt((ext.values**2).sum(axis=2)).max(axis=1)
    assert (np.diff(sups) <= 1e-13).all()


def test_extension_of_constant_is_constant(grid2d, ladder):
    f = Field.constant(grid2d, (0.5, 0.5))
    ext = caloric_extension(f, ladder)
    assert np.abs(ext.values - f.values[None]).max() <= 1e-13


# ---------------------------------------------------------------------------
# Duhamel response.
# ---------------------------------------------------------------------------


def test_duhamel_constant_forcing_is_linear_in_time(grid2d, ladder):
    c = np.array([0.75, -0.25])
    forcing = SpaceTimeField(
        grid2d, ladder.t_final, np.tile(c, (ladder.steps + 1, grid2d.sites, 1))
    )
    out = duhamel_heat(forcing)
    expected = ladder.times[:, None, None] * c[None, None, :]
    assert np.abs(out.values - expected).max() <= 1e-13


def test_duhamel_vanishes_at_time_zero(grid2d, ladder):
    rng = np.random.default_rng(6)
    forcing = SpaceTimeField(
        grid2d, ladder.t_final, rng.standard_normal((ladder.steps + 1, grid2d.sites, 2))
    )
    out = duhamel_heat(forcing)
    assert np.abs(out.values[0]).max() == 0.0


def test_duhamel_is_linear(grid2d, ladder):
    rng = np.random.default_rng(7)
    shape = (ladder.steps + 1, grid2d.sites, 2)
    f = SpaceTimeField(grid2d, ladder.t_final, rng.standard_normal(shape))
    g = SpaceTimeField(grid2d, ladder.t_final, rng.standard_normal(shape))
    combo = duhamel_heat(SpaceTimeField(grid2d, ladder.t_final, 2.0 * f.values - 3.0 * g.values))
    parts = 2.0 * duhamel_heat(f).values - 3.0 * duhamel_heat(g).values
    scale = np.abs(parts).max()
    assert np.abs(combo.values - parts).max() <= 1e-12 * scale


def test_duhamel_single_decaying_mode_closed_form(grid1d):
    """Left-endpoint rule on f = e^{-t} sin x has solution
    t e^{-t} (e^{dt} - 1)/dt * sin x at ladder points (unit eigenvalue)."""
    lad = TimeLadder(0.25, 64)
    x = grid1d.coordinates()[0].ravel()
    vals = np.exp(-lad.times)[:, None, None] * np.sin(x)[None, :, None]
    out = duhamel_heat(SpaceTimeField(grid1d, lad.t_final, vals))
    factor = math.expm1(lad.dt) / lad.dt
    expected = (lad.times * np.exp(-lad.times) * factor)[:, None] * np.sin(x)[None, :]
    assert np.abs(out.values[:, :, 0] - expected).max() <= 1e-13


def test_duhamel_converges_to_continuum_at_first_order(grid1d):
    """Against the exact response t e^{-t} sin x the error is O(dt)."""
    x = grid1d.coordinates()[0].ravel()
    errs = []
    for steps in (64, 128):
        lad = TimeLadder(0.25, steps)
        vals = np.exp(-lad.times)[:, None, None] * np.sin(x)[None, :, None]
        out = duhamel_heat(SpaceTimeField(grid1d, lad.t_final, vals))
        continuum = (lad.times * np.exp(-lad.times))[:, None] * np.sin(x)[None, :]
        errs.append(np.abs(out.values[:, :, 0] - continuum).max())
    assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_duhamel_residual_refines_at_first_order(grid2d):
    """(d_t - Lap) applied to the response recovers the forcing up to O(dt)."""
    from geoflow.families import forcing_family

    errs = []
    for steps in (32, 64):
        lad = TimeLadder(0.25, steps)
        f = forcing_family(grid2d, lad, 2, seed=10)
        w = duhamel_heat(f)
        dwdt = np.gradient(w.values, lad.dt, axis=0, edge_order=1)
        lap = np.stack(
            [spectral_laplacian(Field(grid2d, w.values[j])).values for j in range(steps + 1)]
        )
        resid = dwdt - lap - f.values
        errs.append(np.abs(resid[1:-1]).max())  # centered-difference interior
    assert errs[0] / errs[1] >= 1.5


# ---------------------------------------------------------------------------
# Leray projection.
# ---------------------------------------------------------------------------


def test_leray_requires_velocity_components(grid2d):
    with pytest.raises(ValueError):
        leray_project(Field.constant(grid2d, (1.0, 2.0, 3.0)))


def test_leray_kills_gradients(grid2d):
    phi = mode_field(grid2d, 1, seed=11)
    g = spectral_gradient(phi)
    assert leray_project(g).sup_norm() <= 1e-12


def test_leray_fixes_divergence_free_fields(grid2d):
    v = stream_velocity(grid2d, 1.0, seed=12)
    out = leray_project(v)
    assert np.abs(out.values - v.values).max() <= 1e-12


def test_leray_projector_properties_on_rough_input(grid3d):
    """Idempotence, output divergence, and self-adjointness for arbitrary
    input, including content at the Nyquist bins."""
    rng = np.random.default_rng(13)
    w = Field(grid3d, rng.standard_normal((grid3d.sites, 3)))
    v = Field(grid3d, rng.standard_normal((grid3d.sites, 3)))
    pw = leray_project(w)
    assert spectral_divergence(pw).sup_norm() <= 1e-12
    assert np.abs(leray_project(pw).values - pw.values).max() <= 1e-12
    lhs = float((pw.values * v.values).sum())
    rhs = float((w.values * leray_project(v).values).sum())
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_leray_keeps_mean_flow(grid2d):
    v = Field.constant(grid2d, (1.0, -2.0))
    out = leray_project(v)
    assert np.abs(out.values - v.values).max() <= 1e-13


# ---------------------------------------------------------------------------
# Projected tensor Duhamel operator.
# ---------------------------------------------------------------------------


def _matrix_forcing(grid, lad, seed):
    rng = np.random.default_rng(seed)
    n2 = grid.dim * grid.dim
    return SpaceTimeField(
        grid, lad.t_final, rng.standard_normal((lad.steps + 1, grid.sites, n2))
    )


def test_tensor_duhamel_zero_forcing(grid2d, ladder):
    zero = SpaceTimeField(
        grid2d, ladder.t_final, np.zeros((ladder.steps + 1, grid2d.sites, 4))
    )
    assert np.abs(duhamel_leray_div(zero).values).max() == 0.0


def test_tensor_duhamel_kills_pressure_like_forcing(grid2d, ladder):
    """phi * Id has row divergence grad(phi), annihilated by the projection."""
    phi = mode_field(grid2d, 1, seed=14)
    eye = np.array([1.0, 0.0, 0.0, 1.0])
    vals = np.tile(phi.values[None] * eye[None, None, :], (ladder.steps + 1, 1, 1))
    decay = np.exp(-0.5 * ladder.times)[:, None, None]
    forcing = SpaceTimeField(grid2d, ladder.t_final, vals * decay)
    out = duhamel_leray_div(forcing)
    assert np.abs(out.values).max() <= 1e-10


def test_tensor_duhamel_output_divergence_free(grid2d, ladder):
    out = duhamel_leray_div(_matrix_forcing(grid2d, ladder, 15))
    worst = max(
        spectral_divergence(Field(grid2d, out.values[j])).sup_norm()
        for j in range(ladder.steps + 1)
    )
    assert worst <= 1e-10
    assert np.abs(out.values[0]).max() == 0.0


def test_tensor_duhamel_output_divergence_free_3d(grid3d):
    lad = TimeLadder(0.1, 8)
    out = duhamel_leray_div(_matrix_forcing(grid3d, lad, 16))
    worst = max(
        spectral_divergence(Field(grid3d, out.values[j])).sup_norm()
        for j in range(lad.steps + 1)
    )
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# Parabolic residual and projected divergence on stacks.
# ---------------------------------------------------------------------------


def test_heat_residual_of_mode_linear_in_time(grid2d, ladder):
    """u = t sin x: the difference quotient is exact, so (d_t - Lap)u = (1 + t) sin x."""
    x = grid2d.coordinates()[0].reshape(grid2d.sites)
    t = ladder.times[:, None, None]
    u = t * np.sin(x)[None, :, None]
    residual = heat_residual(u, grid2d, ladder.dt)
    assert np.abs(residual - (1.0 + t) * np.sin(x)[None, :, None]).max() <= 1e-12


def test_projected_divergence_kills_gradient_stress(grid2d, ladder):
    """p * Id has row divergence grad(p), which the projection annihilates;
    any stress comes out divergence-free.  33 slices cross the block edge."""
    rng = np.random.default_rng(21)
    steps1 = ladder.steps + 1
    p = rng.standard_normal((steps1, grid2d.sites, 1))
    assert np.abs(projected_divergence(p * np.array([1.0, 0.0, 0.0, 1.0]), grid2d)).max() <= 1e-12
    out = projected_divergence(rng.standard_normal((steps1, grid2d.sites, 4)), grid2d)
    assert out.shape == (steps1, grid2d.sites, 2)
    worst = max(spectral_divergence(Field(grid2d, out[j])).sup_norm() for j in range(steps1))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Pressure recovery.
# ---------------------------------------------------------------------------


def test_pressure_zero_for_rest_state(grid2d):
    u = Field.constant(grid2d, (0.0, 0.0))
    d = Field.constant(grid2d, (0.0, 0.0, 1.0))
    p = recover_pressure(u, d)
    assert p.sup_norm() <= 1e-13
    assert abs(p.mean()[0]) <= 1e-14


def test_pressure_for_cellular_flow(grid2d):
    """For u = (sin x1 cos x2, -cos x1 sin x2) the convective term is the
    gradient of -(cos 2x1 + cos 2x2)/4, so the recovered pressure is
    +(cos 2x1 + cos 2x2)/4; verified against the defining equation too."""
    u = taylor_green(grid2d, 1.0)
    d = Field.constant(grid2d, (0.0, 0.0, 1.0))
    p = recover_pressure(u, d)
    expected = Field.from_function(
        grid2d, lambda x, y: 0.25 * (np.cos(2.0 * x) + np.cos(2.0 * y))
    )
    assert np.abs(p.values - expected.values).max() <= 1e-12


def test_pressure_defining_equation_residual(grid2d):
    """Lap P + div(u . grad u + div(grad d gram)) = 0 spectrally."""
    u = stream_velocity(grid2d, 0.8, seed=17, kmax=1)
    d = mode_field(grid2d, 3, seed=18, kmax=1, amplitude=0.3)
    d = Field(grid2d, d.values + np.array([0.0, 0.0, 1.0]))
    p = recover_pressure(u, d)
    # gradient stacks [site, i, a] = d_i f_a
    grad_u = spectral_gradient(u).values.reshape(grid2d.sites, 2, 2)
    grad_d = spectral_gradient(d).values.reshape(grid2d.sites, 2, 3)
    gram = np.einsum("sil,sjl->sij", grad_d, grad_d)
    stress = [spectral_divergence(Field(grid2d, gram[:, i])).values[:, 0] for i in range(2)]
    force = Field(grid2d, np.einsum("si,sia->sa", u.values, grad_u) + np.stack(stress, axis=1))
    resid = spectral_laplacian(p).values + spectral_divergence(force).values
    assert np.abs(resid).max() <= 1e-10 * max(np.abs(force.values).max(), 1.0)
    assert abs(p.mean()[0]) <= 1e-13
