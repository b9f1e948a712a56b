"""Deterministic initial-data and forcing families for experiments.

Every family is a closed-form function of the continuum coordinates with
seeded random coefficients, evaluated by sampling.  The coefficients are
drawn before any grid is consulted, so the same (family, seed) on two
different resolutions represents the same continuum object; refinement and
resolution-stability studies compare like with like.

Families:

* ``oscillatory_angle`` - great-circle maps (cos th, sin th, 0, ...) with
  th = amplitude * sin(2 pi K x_1 / L).  Raising K adds oscillation while
  the mean-oscillation size stays controlled: the regime where smallness
  is measured by oscillation, not amplitude.
* ``random_angle``      - same shape with th a random low-mode sum.
* ``hedgehog_data``     - unit-sphere data tilting a pole by a random
  low-mode vector field, normalized exactly.
* ``stream_velocity``   - divergence-free velocities from a stream
  function (n = 2) or vector potential (n = 3).
* ``taylor_green``      - the classical decaying cellular flow (n = 2).
* ``forcing_family``    - space-time forcings: random low-mode spatial
  patterns times fixed smooth time profiles.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import Field, GridSpec, SpaceTimeField, gradient_cube
from .heat import TimeLadder

__all__ = [
    "mode_lattice",
    "scalar_modes",
    "mode_field",
    "oscillatory_angle",
    "random_angle",
    "hedgehog_data",
    "stream_velocity",
    "taylor_green",
    "forcing_family",
]


def mode_lattice(dim: int, kmax: int):
    """Integer modes with max-norm <= kmax, one representative per +-k pair."""
    out = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=dim):
        if all(c == 0 for c in k):
            continue
        first = next(c for c in k if c != 0)
        if first < 0:
            continue
        out.append(k)
    return out


def scalar_modes(grid: GridSpec, rng, kmax: int = 3, decay: float = 2.0):
    """Seeded band-limited scalar sample: sum of cosines with random phases.

    Coefficient draws depend only on (rng state, kmax, dim), never on the
    grid, so refining the grid resamples the same function.
    """
    coords = grid.coordinates()
    total = np.zeros(grid.shape)
    tau = 2.0 * np.pi / grid.period
    for k in mode_lattice(grid.dim, kmax):
        weight = (1.0 + sum(c * c for c in k)) ** (-decay / 2.0)
        coeff = rng.normal() * weight
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(tau * c * x for c, x in zip(k, coords)) + phase
        total += coeff * np.cos(arg)
    return total


def mode_field(grid: GridSpec, components: int = 1, seed: int = 0, kmax: int = 3,
               amplitude: float = 1.0) -> Field:
    """Generic smooth random field: one independent mode sum per component."""
    cubes = []
    for a in range(components):
        rng = np.random.default_rng([seed, a])
        cubes.append(amplitude * scalar_modes(grid, rng, kmax))
    return Field.from_cube(grid, np.stack(cubes, axis=-1))


def _angle_to_sphere(grid: GridSpec, theta, ambient_dim: int) -> Field:
    if ambient_dim < 2:
        raise ValueError("ambient_dim must be >= 2")
    comps = [np.cos(theta), np.sin(theta)]
    comps += [np.zeros(grid.shape)] * (ambient_dim - 2)
    return Field.from_cube(grid, np.stack(comps, axis=-1))


def oscillatory_angle(grid: GridSpec, amplitude: float, wavenumber: int = 1,
                      ambient_dim: int = 2) -> Field:
    """Great-circle map with th = amplitude * sin(2 pi K x_1 / L)."""
    if wavenumber < 1:
        raise ValueError("wavenumber must be >= 1")
    x1 = grid.coordinates()[0]
    theta = amplitude * np.sin(2.0 * np.pi * wavenumber * x1 / grid.period)
    return _angle_to_sphere(grid, theta, ambient_dim)


def random_angle(grid: GridSpec, amplitude: float, seed: int, kmax: int = 3,
                 ambient_dim: int = 3) -> Field:
    """Great-circle map with a seeded low-mode angle."""
    rng = np.random.default_rng([seed, 0])
    theta = amplitude * scalar_modes(grid, rng, kmax)
    return _angle_to_sphere(grid, theta, ambient_dim)


def hedgehog_data(grid: GridSpec, amplitude: float, seed: int = 0, kmax: int = 2) -> Field:
    """Unit S^2 data: pole plus a random low-mode tilt, normalized exactly."""
    tilt = []
    for a in range(3):
        rng = np.random.default_rng([seed, a])
        tilt.append(amplitude * scalar_modes(grid, rng, kmax))
    y = np.stack(tilt, axis=-1)
    y[..., 2] += 1.0
    norm = np.sqrt((y**2).sum(axis=-1, keepdims=True))
    if float(norm.min()) < 1e-6:
        raise ValueError("tilt amplitude too large: data passes through the origin")
    return Field.from_cube(grid, y / norm)


def stream_velocity(grid: GridSpec, amplitude: float, seed: int = 0, kmax: int = 3) -> Field:
    """Divergence-free velocity from a scalar stream function or vector potential."""
    if grid.dim == 2:
        rng = np.random.default_rng([seed, 0])
        psi = (amplitude * scalar_modes(grid, rng, kmax))[..., None]
        g = gradient_cube(psi, grid)[..., 0]  # (shape, n)
        u = np.stack([g[..., 1], -g[..., 0]], axis=-1)
        return Field.from_cube(grid, u)
    if grid.dim == 3:
        pots = []
        for a in range(3):
            rng = np.random.default_rng([seed, a])
            pots.append(amplitude * scalar_modes(grid, rng, kmax))
        pot = np.stack(pots, axis=-1)
        g = gradient_cube(pot, grid)  # (shape, i, a): d_i A_a
        curl = np.stack(
            [
                g[..., 1, 2] - g[..., 2, 1],
                g[..., 2, 0] - g[..., 0, 2],
                g[..., 0, 1] - g[..., 1, 0],
            ],
            axis=-1,
        )
        return Field.from_cube(grid, curl)
    raise ValueError("divergence-free families need spatial dimension 2 or 3")


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> Field:
    """Cellular flow (sin kx cos ky, -cos kx sin ky), k = 2 pi / L.

    An exact solution of the velocity equation with constant director:
    every mode decays by exp(-2 k^2 t) and the nonlinearity is a pure
    gradient, killed by the Leray projection.
    """
    if grid.dim != 2:
        raise ValueError("the cellular flow family is two-dimensional")
    x, y = grid.coordinates()
    k = 2.0 * np.pi / grid.period
    u = np.stack(
        [
            amplitude * np.sin(k * x) * np.cos(k * y),
            -amplitude * np.cos(k * x) * np.sin(k * y),
        ],
        axis=-1,
    )
    return Field.from_cube(grid, u)


_TIME_PROFILES = (
    lambda t: np.ones_like(t),
    lambda t: np.exp(-2.0 * t),
    lambda t: t * np.exp(-t),
    lambda t: 1.0 / (1.0 + t),
)


def forcing_family(grid: GridSpec, ladder: TimeLadder, components: int, seed: int,
                   kmax: int = 3, amplitude: float = 1.0) -> SpaceTimeField:
    """Space-time forcing: per component, random patterns times fixed profiles."""
    times = ladder.times
    values = np.zeros((ladder.steps + 1, grid.sites, components))
    for a in range(components):
        rng = np.random.default_rng([seed, a])
        for profile in _TIME_PROFILES:
            pattern = amplitude * scalar_modes(grid, rng, kmax).reshape(grid.sites)
            values[:, :, a] += profile(times)[:, None] * pattern[None, :]
    return SpaceTimeField(grid, ladder.t_final, values)
