"""Oscillation seminorms and parabolic Carleson functionals.

The dyadic scan in the library is checked against a brute-force oracle that
visits every center and every radius that is a whole multiple of the grid
spacing, written independently below.  The pruned scan is also checked
against ``exhaustive_bmo``, which evaluates the whole (center, radius)
table and must report exactly the same ball and value.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geoflow import (
    BallSpec,
    Field,
    GridSpec,
    NormReport,
    SpaceTimeField,
    TimeLadder,
    ball_oscillation,
    bmo_inverse_norm,
    bmo_seminorm,
    caloric_extension,
    carleson_bmo,
    cylinder_gradient_square,
    forcing_norm,
    solution_norm,
    spectral_gradient,
    velocity_norm,
    vmo_profile,
)
from geoflow import norms
from geoflow.families import hedgehog_data, mode_field, stream_velocity
from geoflow.norms import _time_index, ball_offsets, dyadic_radii, unit_ball_volume

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Oracle: exhaustive normalized mean oscillation.
# ---------------------------------------------------------------------------


def brute_ball_members(grid, center, radius):
    """Site indices within periodic distance radius of the center site."""
    m = grid.points_per_axis
    h = grid.spacing
    reach = int(radius / h + 1e-9)
    members = []
    for off in itertools.product(range(-reach, reach + 1), repeat=grid.dim):
        d2 = 0.0
        for o in off:
            a = abs(o) % m
            d2 += (min(a, m - a) * h) ** 2
        if d2 <= radius * radius * (1.0 + 1e-9):
            site = tuple((c + o) % m for c, o in zip(center, off))
            members.append(np.ravel_multi_index(site, grid.shape))
    return np.asarray(sorted(set(members)), dtype=np.intp)


def brute_oscillation(f, center, radius):
    idx = brute_ball_members(f.grid, center, radius)
    vals = f.values[idx]
    dev = np.sqrt(((vals - vals.mean(axis=0)) ** 2).sum(axis=1))
    return dev.sum() * f.grid.cell_volume / radius**f.grid.dim


def brute_bmo(f, radii):
    """Max oscillation over every center and the given radii."""
    grid = f.grid
    best = -1.0
    arg = None
    for center in itertools.product(range(grid.points_per_axis), repeat=grid.dim):
        for r in radii:
            val = brute_oscillation(f, center, r)
            if val > best:
                best, arg = val, (center, r)
    return best, arg


def exhaustive_bmo(f, big_radius):
    """Reference scan: the whole (center, radius-descending) table, first maximum wins."""
    grid = f.grid
    radii = dyadic_radii(grid, big_radius)
    centers = norms._all_centers(grid)
    columns = [
        norms._ball_oscillation_values(f.values, grid, ball_offsets(grid, r), r, centers)
        for r in radii
    ]
    table = np.stack(columns, axis=1)  # (centers, radii desc): row-major scan order
    ci, ri = divmod(int(np.argmax(table)), len(radii))
    ball = BallSpec(tuple(int(v) for v in centers[ci]), radii[ri])
    value = ball_oscillation(f, ball)
    vol = unit_ball_volume(grid.dim)
    terms = (("radius_power_normalized", value), ("ball_volume_normalized", value / vol))
    return NormReport(value, terms, ball)


def all_step_radii(grid):
    h = grid.spacing
    kmax = grid.points_per_axis // 4
    return [k * h for k in range(1, kmax + 1)]


# ---------------------------------------------------------------------------
# Oscillation seminorm.
# ---------------------------------------------------------------------------


def test_bmo_rejects_out_of_range_radius(grid2d):
    f = mode_field(grid2d, 1, seed=0)
    with pytest.raises(ValueError):
        bmo_seminorm(f, grid2d.period / 2.0)
    with pytest.raises(ValueError):
        bmo_seminorm(f, 0.0)


def test_bmo_matches_exhaustive_oracle_on_sine(grid1d):
    """For sin x the exhaustive maximizer sits at a dyadic radius, so the
    dyadic scan must reproduce the exhaustive value exactly."""
    f = Field.from_function(grid1d, lambda x: np.sin(x)[:, None].reshape(x.shape))
    rep = bmo_seminorm(f, grid1d.period / 4.0)
    best, (center, radius) = brute_bmo(f, all_step_radii(grid1d))
    assert radius == pytest.approx(grid1d.period / 4.0)
    assert rep.value == best
    assert rep.maximizer.radius == pytest.approx(radius)


def test_bmo_dyadic_scan_brackets_exhaustive(grid2d):
    """Dyadic radii are a subset of all step radii, and halving a radius
    changes the normalized oscillation by a bounded factor."""
    rng = np.random.default_rng(21)
    f = Field(grid2d, rng.standard_normal((grid2d.sites, 2)))
    rep = bmo_seminorm(f, grid2d.period / 4.0)
    best, _ = brute_bmo(f, all_step_radii(grid2d))
    assert rep.value <= best * (1.0 + 1e-12)
    assert best <= 2.0**grid2d.dim * rep.value


def test_bmo_constant_is_zero(grid2d):
    f = Field.constant(grid2d, (4.0, -1.0))
    assert bmo_seminorm(f, grid2d.period / 4.0).value == 0.0


def test_bmo_translation_invariance(grid2d_32):
    f = mode_field(grid2d_32, 2, seed=22)
    rolled = Field.from_cube(grid2d_32, np.roll(f.cube(), (3, 7), axis=(0, 1)))
    a = bmo_seminorm(f, grid2d_32.period / 4.0).value
    b = bmo_seminorm(rolled, grid2d_32.period / 4.0).value
    assert a == b


def test_bmo_homogeneity(grid2d):
    f = mode_field(grid2d, 2, seed=23)
    base = bmo_seminorm(f, grid2d.period / 4.0).value
    doubled = bmo_seminorm(Field(grid2d, 2.0 * f.values), grid2d.period / 4.0).value
    assert doubled == 2.0 * base  # power-of-two scaling is exact
    scaled = bmo_seminorm(Field(grid2d, 0.3 * f.values), grid2d.period / 4.0).value
    assert abs(scaled - 0.3 * base) <= 1e-12 * base


def test_bmo_triangle_inequality(grid2d):
    rng = np.random.default_rng(24)
    f = Field(grid2d, rng.standard_normal((grid2d.sites, 2)))
    g = Field(grid2d, rng.standard_normal((grid2d.sites, 2)))
    r = grid2d.period / 4.0
    lhs = bmo_seminorm(Field(grid2d, f.values + g.values), r).value
    assert lhs <= bmo_seminorm(f, r).value + bmo_seminorm(g, r).value + 1e-12


def test_bmo_reported_value_is_direct_reevaluation(grid2d_32):
    f = mode_field(grid2d_32, 3, seed=25)
    rep = bmo_seminorm(f, grid2d_32.period / 4.0)
    assert ball_oscillation(f, rep.maximizer) == rep.value
    assert rep.term("radius_power_normalized") == rep.value
    vol = unit_ball_volume(grid2d_32.dim)
    assert rep.term("ball_volume_normalized") == rep.value / vol


def test_ball_oscillation_agrees_with_brute_force(grid2d):
    rng = np.random.default_rng(26)
    f = Field(grid2d, rng.standard_normal((grid2d.sites, 3)))
    for center, k in (((0, 0), 2), ((3, 11), 4), ((9, 5), 3)):
        r = k * grid2d.spacing
        lib = ball_oscillation(f, BallSpec(center, r))
        assert lib == pytest.approx(brute_oscillation(f, center, r), rel=1e-12)


def test_vmo_profile_detects_gradient_scale(grid1d):
    """Profile is nondecreasing in radius and, for a smooth unit-slope field,
    the oscillation at radius r is comparable to r."""
    f = Field.from_function(grid1d, lambda x: np.sin(x))
    prof = vmo_profile(f)
    vals = [v for _, v in prof]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for r, v in prof[:3]:
        assert 0.5 * r <= v <= 2.0 * r


def _x0_only(grid):
    x0 = grid.coordinates()[0]
    return Field.from_cube(grid, np.stack([np.sin(x0), np.cos(2.0 * x0)], axis=-1))


def _checkerboard(grid):
    parity = sum(np.indices(grid.shape)) % 2
    return Field.from_cube(grid, (1.0 - 2.0 * parity)[..., None])


def _three_phase(grid):
    """Unit vectors at 0, 120 and 240 degrees repeating along x_0: a ball of
    3j consecutive sites away from the seam at x_0 = 0 has mean zero, where
    Cauchy-Schwarz is tight."""
    phase = 2.0 * np.pi / 3.0 * np.indices(grid.shape)[0]
    return Field.from_cube(grid, np.stack([np.cos(phase), np.sin(phase)], axis=-1))


def _noise(grid):
    return Field(grid, np.random.default_rng(40).standard_normal((grid.sites, 3)))


SCAN_CASES = {
    "modes-1d": lambda: mode_field(GridSpec(1, 64, TWO_PI), 2, seed=41),
    "modes-2d": lambda: mode_field(GridSpec(2, 32, TWO_PI), 3, seed=42),
    "modes-3d": lambda: mode_field(GridSpec(3, 8, TWO_PI), 2, seed=43),
    "hedgehog-3d": lambda: hedgehog_data(GridSpec(3, 16, TWO_PI), 0.3, seed=44),
    "noise-2d": lambda: _noise(GridSpec(2, 16, TWO_PI)),
    "noise-3d": lambda: _noise(GridSpec(3, 8, TWO_PI)),
    "constant": lambda: Field.constant(GridSpec(2, 16, TWO_PI), (4.0, -1.0)),
    "x0-only-2d": lambda: _x0_only(GridSpec(2, 16, TWO_PI)),
    "x0-only-3d": lambda: _x0_only(GridSpec(3, 8, TWO_PI)),
    "checkerboard-2d": lambda: _checkerboard(GridSpec(2, 16, TWO_PI)),
    "checkerboard-3d": lambda: _checkerboard(GridSpec(3, 8, TWO_PI)),
    "three-phase-1d": lambda: _three_phase(GridSpec(1, 64, TWO_PI)),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_pruned_scan_equals_exhaustive_table(case):
    """The pruned scan reports exactly what the whole table reports, ties
    included, at every radius of the profile."""
    f = SCAN_CASES[case]()
    big_r = f.grid.period / 4.0
    assert bmo_seminorm(f, big_r).to_json() == exhaustive_bmo(f, big_r).to_json()
    profile = vmo_profile(f)
    assert profile == [(r, exhaustive_bmo(f, r).value) for r, _ in profile]
    centers = norms._all_centers(f.grid)
    for r, _ in profile:
        offsets = ball_offsets(f.grid, r)
        column = norms._ball_oscillation_values(f.values, f.grid, offsets, r, centers)
        first = int(np.argmax(column))
        assert norms._column_max(f, r, centers) == (column[first], first)


@pytest.mark.parametrize("case", ["modes-1d", "hedgehog-3d", "checkerboard-2d"])
def test_vmo_profile_is_per_radius_bmo(case):
    f = SCAN_CASES[case]()
    profile = vmo_profile(f)
    assert len(profile) >= 2
    assert profile == [(r, bmo_seminorm(f, r).value) for r, _ in profile]


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, "offset"])
def test_oscillation_bound_dominates_every_ball(dim, points, scale):
    """The FFT bound is at least the exact oscillation at every center and
    radius, including a field whose variance cancels against a 1e6 mean.
    It also dominates the Cauchy-Schwarz value sqrt(K * V) with V summed
    directly, so its slack covers the roundoff of the FFT ball sums."""
    grid = GridSpec(dim, points, TWO_PI)
    if scale == "offset":
        noise = np.random.default_rng(45).standard_normal((grid.sites, 3))
        f = Field(grid, 1e6 + noise)
    else:
        f = Field(grid, scale * mode_field(grid, 3, seed=46).values)
    centers = norms._all_centers(grid)
    for r in dyadic_radii(grid, grid.period / 4.0):
        offsets = ball_offsets(grid, r)
        bound = norms._oscillation_bound(f, offsets, r)
        exact = norms._ball_oscillation_values(f.values, grid, offsets, r, centers)
        assert (bound >= exact).all()
        members = f.values[norms._gather_indices(grid, centers, offsets)]
        spread = ((members - members.mean(axis=1, keepdims=True)) ** 2).sum(axis=(1, 2))
        weight = grid.cell_volume / r**grid.dim
        assert (bound >= np.sqrt(len(offsets) * spread) * weight).all()


def test_ball_values_do_not_depend_on_chunk_size(monkeypatch):
    grid = GridSpec(3, 8, TWO_PI)
    f = _noise(grid)
    r = grid.period / 4.0
    offsets = ball_offsets(grid, r)
    centers = norms._all_centers(grid)
    whole = norms._ball_oscillation_values(f.values, grid, offsets, r, centers)
    monkeypatch.setattr(norms, "_GATHER_VALUES", 5 * len(offsets) * 3)
    order = np.random.default_rng(47).permutation(len(centers))
    chunked = norms._ball_oscillation_values(f.values, grid, offsets, r, centers[order])
    assert (chunked == whole[order]).all()


# Peaks (MB) of this test on a scan that gathered 2048 centers per chunk
# and evaluated every ball.
_CHUNK_2048_PEAK_MB = {1: 32.3, 3: 40.3}


@pytest.mark.parametrize("components", sorted(_CHUNK_2048_PEAK_MB))
def test_scan_memory_is_bounded_on_noise(components):
    """On noise nothing can be pruned; the gather cap still bounds the peak."""
    grid = GridSpec(3, 16, TWO_PI)
    f = Field(grid, np.random.default_rng(48).standard_normal((grid.sites, components)))
    tracemalloc.start()
    try:
        bmo_seminorm(f, grid.period / 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < _CHUNK_2048_PEAK_MB[components]


@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    components=st.integers(1, 3),
    integral=st.booleans(),
    data=st.data(),
)
def test_pruned_scan_equals_exhaustive_property(dim, components, integral, data):
    """Random fields, and small-integer fields whose balls tie exactly."""
    grid = GridSpec(dim, 8, TWO_PI)
    shape = (grid.sites, components)
    if integral:
        values = data.draw(arrays(np.int64, shape, elements=st.integers(-2, 2))).astype(float)
    else:
        values = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    f = Field(grid, values)
    big_r = grid.period / 4.0
    assert bmo_seminorm(f, big_r).to_json() == exhaustive_bmo(f, big_r).to_json()


# ---------------------------------------------------------------------------
# Carleson functionals of the heat extension.
# ---------------------------------------------------------------------------


def test_carleson_constant_data_is_zero(grid2d, ladder):
    f = Field.constant(grid2d, (1.0, 2.0))
    rep = carleson_bmo(f, grid2d.period / 4.0, ladder)
    assert rep.value == 0.0


def test_carleson_homogeneity(grid2d, ladder):
    f = mode_field(grid2d, 2, seed=27)
    r = grid2d.period / 4.0
    base = carleson_bmo(f, r, ladder).value
    scaled = carleson_bmo(Field(grid2d, 0.7 * f.values), r, ladder).value
    assert abs(scaled - 0.7 * base) <= 1e-12 * base


def test_carleson_maximizer_reevaluates_to_value(grid2d, ladder):
    f = mode_field(grid2d, 2, seed=28)
    rep = carleson_bmo(f, grid2d.period / 4.0, ladder)
    ext = caloric_extension(f, ladder)
    assert cylinder_gradient_square(ext, rep.maximizer) == rep.value


def test_carleson_controlled_by_oscillation(grid2d_32, ladder_fine):
    """Square-gradient Carleson functional of the extension sits below the
    oscillation seminorm of the data on this family."""
    r = grid2d_32.period / 4.0
    for seed in range(200, 203):
        f = mode_field(grid2d_32, 2, seed=seed)
        ratio = carleson_bmo(f, r, ladder_fine).value / bmo_seminorm(f, r).value
        assert ratio <= 1.0


def test_bmo_inverse_requires_velocity_components(grid2d, ladder):
    f = Field.constant(grid2d, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        bmo_inverse_norm(f, grid2d.period / 4.0, ladder)


def test_extension_gradient_sup_controlled_by_oscillation(grid2d_32, ladder_fine):
    """sqrt(t) |grad e^{tLap} f|_inf stays below half the oscillation
    seminorm of the data across a random sample."""
    r = grid2d_32.period / 4.0
    for seed in range(300, 305):
        f = mode_field(grid2d_32, 2, seed=seed)
        ext = caloric_extension(f, ladder_fine)
        ratio = solution_norm(ext).term("gradient_sup") / bmo_seminorm(f, r).value
        assert ratio <= 0.5


def test_velocity_norm_controlled_by_square_carleson_of_data(grid2d_32, ladder_fine):
    """Extension of divergence-free data: full velocity norm within a fixed
    factor of the square Carleson functional of the data."""
    r = grid2d_32.period / 4.0
    for seed in range(400, 405):
        v = stream_velocity(grid2d_32, 1.0, seed=seed)
        z = velocity_norm(caloric_extension(v, ladder_fine)).value
        assert z <= 1.5 * bmo_inverse_norm(v, r, ladder_fine).value


def test_derivative_data_square_carleson_below_oscillation(grid2d_32, ladder_fine):
    """(d_1 g, 0) as velocity data: its square Carleson functional is
    controlled by the oscillation seminorm of g itself."""
    r = grid2d_32.period / 4.0
    for seed in range(500, 505):
        g = mode_field(grid2d_32, 1, seed=seed)
        dg = spectral_gradient(g).values  # (sites, dim): column i is d_i g
        w = Field(grid2d_32, np.stack([dg[:, 0], np.zeros(grid2d_32.sites)], axis=1))
        assert bmo_inverse_norm(w, r, ladder_fine).value <= bmo_seminorm(g, r).value


# ---------------------------------------------------------------------------
# Space-time norms.
# ---------------------------------------------------------------------------


def test_solution_norm_of_constant(grid2d, ladder):
    vals = np.tile(np.array([3.0, -4.0]), (ladder.steps + 1, grid2d.sites, 1))
    rep = solution_norm(SpaceTimeField(grid2d, ladder.t_final, vals))
    assert rep.term("amplitude_sup") == pytest.approx(5.0, abs=1e-13)
    assert rep.term("gradient_sup") <= 1e-12
    assert rep.term("gradient_carleson") <= 1e-12
    assert rep.value == pytest.approx(5.0, abs=1e-11)


def test_solution_norm_value_is_sum_of_terms(grid2d, ladder):
    rng = np.random.default_rng(29)
    f = SpaceTimeField(
        grid2d, ladder.t_final, rng.standard_normal((ladder.steps + 1, grid2d.sites, 2))
    )
    rep = solution_norm(f)
    assert rep.value == pytest.approx(
        rep.term("amplitude_sup") + rep.term("seminorm"), rel=1e-14
    )
    assert rep.term("seminorm") == rep.term("gradient_sup") + rep.term("gradient_carleson")


def test_solution_norm_gradient_sup_closed_form(grid1d):
    """Extension of sin x: sqrt(t) |grad|_inf maximized on the ladder is
    max_j sqrt(t_j) e^{-t_j}."""
    lad = TimeLadder(0.25, 64)
    f = Field.from_function(grid1d, lambda x: np.sin(x))
    rep = solution_norm(caloric_extension(f, lad))
    expected = (np.sqrt(lad.times[1:]) * np.exp(-lad.times[1:])).max()
    assert abs(rep.term("gradient_sup") - expected) <= 1e-12 * expected


def test_forcing_norm_constant_discrete_oracle(grid2d, ladder):
    """Constant forcing: both terms have closed discrete forms built from
    the ball cardinalities and the rounded-up cylinder heights."""
    c = np.array([0.6, -0.8])
    mag = float(np.hypot(*c))
    vals = np.tile(c, (ladder.steps + 1, grid2d.sites, 1))
    rep = forcing_norm(SpaceTimeField(grid2d, ladder.t_final, vals))
    assert rep.term("weighted_amplitude_sup") == pytest.approx(
        ladder.t_final * mag, rel=1e-13
    )
    r_cap = min(grid2d.period / 4.0, math.sqrt(ladder.t_final))
    expected = max(
        mag
        * (_time_index(r, ladder.dt, ladder.steps) * ladder.dt)
        * len(ball_offsets(grid2d, r))
        * grid2d.cell_volume
        / r**grid2d.dim
        for r in dyadic_radii(grid2d, r_cap)
    )
    assert rep.term("mass_carleson") == pytest.approx(expected, rel=1e-12)
    assert rep.value == rep.term("weighted_amplitude_sup") + rep.term("mass_carleson")


def test_gradient_square_forcing_norm_below_seminorm_square(grid2d, ladder):
    """|grad W|^2 measured in the forcing norm equals the square of each
    gradient term of the solution norm, hence sits below seminorm^2."""
    f = mode_field(grid2d, 2, seed=30)
    ext = caloric_extension(f, ladder)
    dens = np.stack(
        [
            (spectral_gradient(Field(grid2d, ext.values[j])).values ** 2).sum(axis=1)
            for j in range(ladder.steps + 1)
        ]
    )
    sol = solution_norm(ext)
    rep = forcing_norm(SpaceTimeField(grid2d, ladder.t_final, dens[:, :, None]))
    assert rep.term("weighted_amplitude_sup") == pytest.approx(
        sol.term("gradient_sup") ** 2, rel=1e-10
    )
    assert rep.term("mass_carleson") == pytest.approx(
        sol.term("gradient_carleson") ** 2, rel=1e-10
    )
    assert rep.value <= sol.term("seminorm") ** 2 + 1e-12


def test_velocity_norm_terms(grid2d, ladder):
    v = stream_velocity(grid2d, 1.0, seed=31)
    rep = velocity_norm(caloric_extension(v, ladder))
    assert rep.value == rep.term("weighted_amplitude_sup") + rep.term("square_carleson")
    assert rep.term("square_carleson") > 0.0
    assert rep.maximizer is not None


def test_norm_reports_serialize(grid2d, ladder):
    f = mode_field(grid2d, 2, seed=32)
    blob = bmo_seminorm(f, grid2d.period / 4.0).to_json()
    assert set(blob) == {"value", "terms", "maximizer"}
    assert blob["maximizer"]["kind"] == "ball"
    blob2 = velocity_norm(caloric_extension(stream_velocity(grid2d, 1.0, seed=33), ladder)).to_json()
    assert blob2["maximizer"]["kind"] == "cylinder"
