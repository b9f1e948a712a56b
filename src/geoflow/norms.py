"""Mean-oscillation and Carleson-type functionals on torus grids.

Provides the discrete counterparts of the function-space machinery used by
the small-data solvers:

* ``bmo_seminorm``: largest normalized mean oscillation over grid-centered
  periodic balls, with the radius-power normalization ``r**-n`` as the
  primary value and the ball-volume normalization as a secondary value.
* ``carleson_bmo`` / ``bmo_inverse_norm``: square Carleson functionals of
  the heat extension over parabolic cylinders B_r x [0, r^2].
* ``solution_norm`` / ``forcing_norm`` / ``velocity_norm``: the space-time
  norms controlling solutions, forcings, and advecting velocities.  Each is
  a sum of weighted amplitude suprema and a cylinder supremum.

Conventions shared by every sup-type functional:

* Candidate radii are dyadic, ``r_max, r_max/2, ...``, stopping at ``2h``
  (grid spacing h); if ``r_max < 2h`` the single radius ``r_max`` is used.
* Ball membership: a site belongs to B_r(c) iff its periodic Euclidean
  distance to c satisfies ``dist**2 <= r**2`` (this exact float comparison
  is part of the contract so independent reimplementations match).
* Spatial integrals weight every member site by h**n; cylinder time
  integrals use the trapezoid rule on ladder slices 0..k with
  k = ceil(r^2/dt), capped at the last slice.
* Reports carry the maximizing ball or cylinder, and the reported value is
  the direct re-evaluation of the integrand there, so re-evaluating a
  report's maximizer reproduces its value.
* Scans run in lexicographic (center, radius-descending) order; the first
  maximum wins.  The ball scan reaches the same winner without evaluating
  every ball: an FFT bound on each center's oscillation lets it skip the
  centers whose bound is strictly below the best exact value, and a ball
  that attains the maximum always has a bound at least that large.  The
  bound's variance sum carries an absolute slack of ``1e-8 * K * max|f|^2``
  (K sites per ball), which covers the roundoff of the FFT sums and of the
  exact evaluation (see ``_oscillation_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, SpaceTimeField, gradient_cube, slicewise
from .heat import TimeLadder, caloric_extension

__all__ = [
    "BallSpec",
    "ParabolicCylinder",
    "NormReport",
    "unit_ball_volume",
    "dyadic_radii",
    "ball_offsets",
    "ball_oscillation",
    "cylinder_mean_square",
    "cylinder_gradient_square",
    "bmo_seminorm",
    "vmo_profile",
    "carleson_bmo",
    "bmo_inverse_norm",
    "solution_norm",
    "forcing_norm",
    "velocity_norm",
]

# Largest number of field values one chunk of the ball scan gathers (8 MB).
_GATHER_VALUES = 2**20
# Slack added to a ball's variance sum in the oscillation bound, relative to K * max|f|^2.
_BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class BallSpec:
    """Periodic ball: all sites within distance radius of the center site."""

    center: tuple
    radius: float

    def to_json(self):
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class ParabolicCylinder:
    """B_radius(center) x [0, t_k] with t_k the rounded-up ladder time for radius^2."""

    center: tuple
    radius: float
    time_index: int

    def to_json(self):
        return {
            "kind": "cylinder",
            "center": list(self.center),
            "radius": self.radius,
            "time_index": self.time_index,
        }


@dataclass(frozen=True)
class NormReport:
    """Value of a functional, its term breakdown, and the maximizing region.

    ``value`` is the stated combination of the breakdown terms (a sum for
    the space-time norms).  ``maximizer`` refers to the cylinder or ball
    supremum term.
    """

    value: float
    terms: tuple
    maximizer: object = None

    def term(self, name: str) -> float:
        for key, val in self.terms:
            if key == name:
                return val
        raise KeyError(name)

    def to_json(self):
        return {
            "value": self.value,
            "terms": {k: v for k, v in self.terms},
            "maximizer": None if self.maximizer is None else self.maximizer.to_json(),
        }


def unit_ball_volume(dim: int) -> float:
    return {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[dim]


def dyadic_radii(grid: GridSpec, r_max: float):
    """Dyadic radius ladder r_max, r_max/2, ... >= 2h (descending)."""
    radii = []
    r = float(r_max)
    while r >= 2.0 * grid.spacing:
        radii.append(r)
        r /= 2.0
    return radii or [float(r_max)]


def ball_offsets(grid: GridSpec, radius: float):
    """Integer site offsets of the periodic ball, in fixed scan order."""
    h = grid.spacing
    reach = int(radius / h + 1e-9)  # radius <= L/4 keeps this below M/2
    rng = np.arange(-reach, reach + 1)
    mesh = np.meshgrid(*([rng] * grid.dim), indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=1)
    dist2 = (offs.astype(float) ** 2).sum(axis=1) * (h * h)
    return offs[dist2 <= radius * radius]


def _offset_mask(grid: GridSpec, offsets):
    mask = np.zeros(grid.shape)
    idx = tuple((offsets[:, i] % grid.points_per_axis) for i in range(grid.dim))
    mask[idx] = 1.0
    return mask


def _ball_sums(cubes, grid: GridSpec, offsets):
    """Sum of each cube over the periodic ball of the given offsets around every site.

    ``cubes`` has shape (..., *grid.shape); one circular FFT convolution
    with the ball mask serves every leading index.
    """
    axes = tuple(range(-grid.dim, 0))
    kernel = np.fft.fftn(_offset_mask(grid, offsets))
    return np.fft.ifftn(np.fft.fftn(cubes, axes=axes) * kernel, axes=axes).real


def _gather_indices(grid: GridSpec, centers_multi, offsets):
    """Flat site index of every (center, offset) pair, row-major."""
    m = grid.points_per_axis
    flat = np.zeros((len(centers_multi), len(offsets)), dtype=np.intp)
    for i in range(grid.dim):
        axis = np.add.outer(centers_multi[:, i], offsets[:, i])
        axis %= m
        flat *= m
        flat += axis
    return flat


def _all_centers(grid: GridSpec):
    return np.stack(
        np.unravel_index(np.arange(grid.sites), grid.shape), axis=1
    )


def _ball_oscillation_values(values, grid: GridSpec, offsets, radius, centers_multi):
    """Radius-power-normalized L1 mean oscillation for the given centers.

    Centers are taken in chunks of at most ``_GATHER_VALUES`` gathered
    values; a center's value does not depend on the chunk it falls in.
    """
    out = np.empty(len(centers_multi))
    weight = grid.cell_volume / radius**grid.dim
    chunk = max(1, _GATHER_VALUES // (len(offsets) * values.shape[1]))
    for start in range(0, len(centers_multi), chunk):
        block = centers_multi[start : start + chunk]
        members = values[_gather_indices(grid, block, offsets)]  # (c, K, l)
        mean = members.mean(axis=1, keepdims=True)
        members -= mean
        np.square(members, out=members)
        osc = np.sqrt(members.sum(axis=2))
        out[start : start + chunk] = osc.sum(axis=1) * weight
    return out


def _oscillation_bound(f: Field, offsets, radius):
    """Upper bound on the radius-power-normalized oscillation at every center (row-major).

    With K = len(offsets) sites per ball, Cauchy-Schwarz gives
    sum_B |f - mean| <= sqrt(K * V), V = sum_B |f|^2 - |sum_B f|^2 / K.
    The ball sums come from ``_ball_sums``.  The computed V is widened by
    the absolute slack ``_BOUND_SLACK * K * max|f|^2``, which scales with
    the sums, not with V: where V cancels (10**6 + O(1) noise) a slack
    relative to V would not cover the roundoff.  Relative to K * max|f|^2,
    the FFT sums err by at most about eps * log2(N) * sqrt(N / K) (N sites)
    and the gathered exact value by about (K + l) * eps; on grids of up to
    2**20 sites both stay near 1e-10 or below, a hundredth of the slack.
    Sums that overflow, or a V below minus the slack, give an infinite bound.
    """
    grid = f.grid
    k = len(offsets)
    square = (f.values**2).sum(axis=1)
    cubes = np.concatenate([f.values.T, square[None]]).reshape((-1,) + grid.shape)
    sums = _ball_sums(cubes, grid, offsets).reshape(len(cubes), grid.sites)
    spread = sums[-1] - (sums[:-1] ** 2).sum(axis=0) / k
    total = k * (spread + _BOUND_SLACK * k * square.max())
    total = np.where(total >= 0.0, total, np.inf)
    return np.sqrt(total) * (grid.cell_volume / radius**grid.dim)


def _column_max(f: Field, radius, centers):
    """(value, center index) of the first maximum over all centers at one radius.

    Exact pruned search: centers are evaluated in order of decreasing
    bound, in doubling chunks, until the next bound is strictly below the
    best exact value; no skipped center can reach that value.  Among equal
    values the lowest center index wins.
    """
    offsets = ball_offsets(f.grid, radius)
    bound = _oscillation_bound(f, offsets, radius)
    order = np.argsort(-bound, kind="stable")
    best, arg = -np.inf, -1
    start, size = 0, 16
    while start < len(order) and bound[order[start]] >= best:
        idx = order[start : start + size]
        vals = _ball_oscillation_values(f.values, f.grid, offsets, radius, centers[idx])
        top = vals.max()
        if top >= best:
            first = int(idx[vals == top].min())
            arg = first if top > best else min(arg, first)
            best = top
        start, size = start + size, 2 * size
    return best, arg


def _column_maxima(f: Field, radii):
    centers = _all_centers(f.grid)
    return [_column_max(f, r, centers) for r in radii]


def _first_max_ball(grid: GridSpec, radii, maxima):
    """Ball of the first maximum in (center row-major, radius-descending) order."""
    i = min(range(len(radii)), key=lambda j: (-maxima[j][0], maxima[j][1], -radii[j]))
    center = np.unravel_index(maxima[i][1], grid.shape)
    return BallSpec(tuple(int(v) for v in center), radii[i])


def ball_oscillation(f: Field, ball: BallSpec) -> float:
    """Direct evaluation of r^{-n} * integral over the ball of |f - mean|."""
    offsets = ball_offsets(f.grid, ball.radius)
    centers = np.asarray([ball.center], dtype=np.intp)
    return float(
        _ball_oscillation_values(f.values, f.grid, offsets, ball.radius, centers)[0]
    )


def bmo_seminorm(f: Field, big_radius: float) -> NormReport:
    """Largest normalized mean oscillation over balls of dyadic radius <= big_radius."""
    grid = f.grid
    if not (0 < big_radius <= grid.period / 4.0 * (1 + 1e-12)):
        raise ValueError(f"radius must lie in (0, L/4], got {big_radius}")
    radii = dyadic_radii(grid, big_radius)
    ball = _first_max_ball(grid, radii, _column_maxima(f, radii))
    value = ball_oscillation(f, ball)
    vol = unit_ball_volume(grid.dim)
    terms = (
        ("radius_power_normalized", value),
        ("ball_volume_normalized", value / vol),
    )
    return NormReport(value, terms, ball)


def vmo_profile(f: Field):
    """(r, oscillation) pairs on the dyadic ladder 2h, 4h, ... <= L/4, ascending.

    Radius sets are nested, so the profile is nondecreasing; decay as
    r -> 0 diagnoses vanishing mean oscillation at the grid scale.  Each
    value equals ``bmo_seminorm(f, r).value``, whose dyadic radii are the
    ladder up to r; the column maxima are computed once for all of them.
    """
    grid = f.grid
    ladder = []
    r = 2.0 * grid.spacing
    while r <= grid.period / 4.0 * (1 + 1e-12):
        ladder.append(r)
        r *= 2.0
    maxima = _column_maxima(f, ladder)
    return [
        (r, ball_oscillation(f, _first_max_ball(grid, ladder[: j + 1], maxima[: j + 1])))
        for j, r in enumerate(ladder)
    ]


# ---------------------------------------------------------------------------
# Cylinder machinery.
# ---------------------------------------------------------------------------


def _time_index(radius: float, dt: float, steps: int) -> int:
    k = math.ceil(radius * radius / dt - 1e-12)
    return max(1, min(steps, k))


def _trapezoid_weights(k: int, dt: float):
    w = np.full(k + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _time_integrated(density, k: int, dt: float):
    w = _trapezoid_weights(k, dt)
    return w @ density[: k + 1]


def _cylinder_value(density, grid: GridSpec, dt: float, cyl: ParabolicCylinder, take_sqrt):
    """Direct gather evaluation of r^{-n} * cylinder integral of the density."""
    profile = _time_integrated(density, cyl.time_index, dt)  # (sites,)
    offsets = ball_offsets(grid, cyl.radius)
    center = np.asarray([cyl.center], dtype=np.intp)
    members = profile[_gather_indices(grid, center, offsets)[0]]
    val = members.sum() * grid.cell_volume / cyl.radius**grid.dim
    return float(np.sqrt(val)) if take_sqrt else float(val)


def _cylinder_sup(density, grid: GridSpec, t_final: float, radii, take_sqrt):
    """Supremum of the normalized cylinder integral over centers and radii.

    An FFT convolution per radius locates the maximizing center; the
    reported value is the direct gather re-evaluation there.  Ties among
    per-radius candidates break toward the lexicographically first center,
    then the larger radius.
    """
    steps = density.shape[0] - 1
    dt = t_final / steps
    best = None
    for r in radii:
        k = _time_index(r, dt, steps)
        profile = _time_integrated(density, k, dt).reshape(grid.shape)
        sums = _ball_sums(profile, grid, ball_offsets(grid, r))
        ci = int(np.argmax(sums))  # first max in row-major = lexicographic
        center = tuple(int(v) for v in np.unravel_index(ci, grid.shape))
        cyl = ParabolicCylinder(center, r, k)
        val = _cylinder_value(density, grid, dt, cyl, take_sqrt)
        key = (-val, center, -r)
        if best is None or key < best[0]:
            best = (key, val, cyl)
    return best[1], best[2]


def _magnitude_density(f: SpaceTimeField):
    return np.sqrt((f.values**2).sum(axis=2))


def _square_density(f: SpaceTimeField):
    return (f.values**2).sum(axis=2)


def _gradient_square_density(f: SpaceTimeField):
    """|grad f|^2 per slice and site, computed in time blocks to bound memory."""
    return slicewise(
        f.grid, lambda cube: (gradient_cube(cube, f.grid) ** 2).sum(axis=(-2, -1)), f.values
    )


def _weighted_sup(density, times, weight):
    """max over slices j >= 1 of weight(t_j) * max_x density[j]."""
    slice_sup = density[1:].max(axis=1)
    return float((weight(times[1:]) * slice_sup).max())


def _cylinder_radius_cap(grid: GridSpec, t_final: float) -> float:
    return min(grid.period / 4.0, math.sqrt(t_final))


def cylinder_mean_square(f: SpaceTimeField, cyl: ParabolicCylinder) -> float:
    """(r^{-n} * integral over the cylinder of |f|^2)^{1/2}."""
    return _cylinder_value(_square_density(f), f.grid, f.dt, cyl, take_sqrt=True)


def cylinder_gradient_square(f: SpaceTimeField, cyl: ParabolicCylinder) -> float:
    """(r^{-n} * integral over the cylinder of |grad f|^2)^{1/2}."""
    return _cylinder_value(_gradient_square_density(f), f.grid, f.dt, cyl, take_sqrt=True)


def _extension_carleson(u0: Field, big_radius: float, ladder: TimeLadder, density, term):
    """Square Carleson functional of ``density`` of the heat extension, radii <= big_radius."""
    grid = u0.grid
    if not (0 < big_radius <= grid.period / 4.0 * (1 + 1e-12)):
        raise ValueError(f"radius must lie in (0, L/4], got {big_radius}")
    ext = caloric_extension(u0, ladder)
    r_cap = min(big_radius, math.sqrt(ladder.t_final))
    value, cyl = _cylinder_sup(density(ext), grid, ladder.t_final, dyadic_radii(grid, r_cap), True)
    return NormReport(value, ((term, value),), cyl)


def carleson_bmo(u0: Field, big_radius: float, ladder: TimeLadder) -> NormReport:
    """Square Carleson functional of the heat extension's gradient.

    sup over cylinders of radius <= big_radius of
    (r^{-n} * int_{B_r x [0, r^2]} |grad u~|^2)^{1/2}, u~ the heat extension.
    """
    return _extension_carleson(
        u0, big_radius, ladder, _gradient_square_density, "gradient_carleson"
    )


def bmo_inverse_norm(u0: Field, big_radius: float, ladder: TimeLadder) -> NormReport:
    """Square Carleson functional of the heat extension itself (velocity data).

    sup over cylinders of radius <= big_radius of
    (r^{-n} * int_{B_r x [0, r^2]} |u~|^2)^{1/2}.
    """
    if u0.components != u0.grid.dim:
        raise ValueError("expected a velocity field with n components")
    return _extension_carleson(u0, big_radius, ladder, _square_density, "square_carleson")


def solution_norm(f: SpaceTimeField) -> NormReport:
    """Solution-class norm: amplitude sup + weighted gradient sup + gradient Carleson.

    terms:
      amplitude_sup      sup_{j>=1} |f(t_j)|_inf
      gradient_sup       sup_{j>=1} sqrt(t_j) |grad f(t_j)|_inf
      gradient_carleson  sup over cylinders (r^{-n} int |grad f|^2)^{1/2}
      seminorm           gradient_sup + gradient_carleson
    value = amplitude_sup + seminorm.
    """
    grid = f.grid
    amp = _weighted_sup(_magnitude_density(f), f.times, lambda t: np.ones_like(t))
    gdens = _gradient_square_density(f)
    gsup = _weighted_sup(np.sqrt(gdens), f.times, np.sqrt)
    radii = dyadic_radii(grid, _cylinder_radius_cap(grid, f.t_final))
    carl, cyl = _cylinder_sup(gdens, grid, f.t_final, radii, take_sqrt=True)
    terms = (
        ("amplitude_sup", amp),
        ("gradient_sup", gsup),
        ("gradient_carleson", carl),
        ("seminorm", gsup + carl),
    )
    return NormReport(amp + gsup + carl, terms, cyl)


def forcing_norm(f: SpaceTimeField) -> NormReport:
    """Forcing-class norm: sup_j t_j |f|_inf + sup over cylinders r^{-n} int |f|."""
    grid = f.grid
    dens = _magnitude_density(f)
    amp = _weighted_sup(dens, f.times, lambda t: t)
    radii = dyadic_radii(grid, _cylinder_radius_cap(grid, f.t_final))
    carl, cyl = _cylinder_sup(dens, grid, f.t_final, radii, take_sqrt=False)
    terms = (("weighted_amplitude_sup", amp), ("mass_carleson", carl))
    return NormReport(amp + carl, terms, cyl)


def velocity_norm(f: SpaceTimeField) -> NormReport:
    """Velocity-class norm: sup_j sqrt(t_j) |f|_inf + square Carleson term."""
    grid = f.grid
    dens = _magnitude_density(f)
    amp = _weighted_sup(dens, f.times, np.sqrt)
    radii = dyadic_radii(grid, _cylinder_radius_cap(grid, f.t_final))
    carl, cyl = _cylinder_sup(_square_density(f), grid, f.t_final, radii, take_sqrt=True)
    terms = (("weighted_amplitude_sup", amp), ("square_carleson", carl))
    return NormReport(amp + carl, terms, cyl)
