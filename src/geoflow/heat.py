"""Heat semigroup, caloric extensions, and Duhamel integral operators.

The heat semigroup acts diagonally in Fourier space: a mode with angular
wavenumber xi is damped by exp(-t*|xi|^2), which is exact in time for the
trigonometric interpolant.  The Duhamel operators discretize

    (S F)(t_k) = int_0^{t_k} e^{(t_k - s) Lap} F(s) ds

with a first-order exponential integrator: F is frozen at the left endpoint
of each ladder cell, and the cell integral of the semigroup is taken in
closed form.  Per mode the update reads

    W_{j+1} = e^{-lam dt} W_j + w(lam) F_j,   w(lam) = (1 - e^{-lam dt})/lam

with the removable limit w(0) = dt.  Spatial damping is exact; the time
quadrature error is O(dt) for smooth forcings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridSpec,
    SpaceTimeField,
    gradient_cube,
    laplacian_cube,
    slicewise,
    tensor_divergence_cube,
)

__all__ = [
    "TimeLadder",
    "heat_semigroup",
    "caloric_extension",
    "integrator_weights",
    "duhamel_heat",
    "leray_project",
    "duhamel_leray_div",
    "recover_pressure",
    "heat_residual",
    "projected_divergence",
]


@dataclass(frozen=True)
class TimeLadder:
    """Uniform time ladder t_j = j * dt covering [0, t_final]."""

    t_final: float
    steps: int

    def __post_init__(self):
        if not (0 < self.t_final < np.inf):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if self.steps < 4:
            raise ValueError(f"steps must be >= 4, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @property
    def times(self):
        return np.arange(self.steps + 1) * self.dt


def _spectrum(f):
    """Spatial FFT of a Field's or SpaceTimeField's cube, and the axes it ran over."""
    cube = f.cube()
    axes = tuple(range(cube.ndim - 1 - f.grid.dim, cube.ndim - 1))
    return np.fft.fftn(cube, axes=axes), axes


def _symbol(grid: GridSpec):
    # |xi|^2 cube broadcast against (spatial..., components)
    lam = grid.squared_wavenumbers()
    return lam.reshape(lam.shape + (1,))


def _wavevector(grid: GridSpec):
    """Odd-derivative wavevector xi (Nyquist zeroed) as a spatial + (n,) array."""
    return np.stack(np.meshgrid(*grid.derivative_wavenumbers(), indexing="ij"), axis=-1)


def heat_semigroup(f: Field, t: float) -> Field:
    """Apply e^{t Lap}; t = 0 is the exact identity."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return Field(f.grid, f.values)
    hat, axes = _spectrum(f)
    hat *= np.exp(-t * _symbol(f.grid))
    return Field.from_cube(f.grid, np.fft.ifftn(hat, axes=axes).real)


def caloric_extension(f: Field, ladder: TimeLadder) -> SpaceTimeField:
    """Heat evolution of f sampled on the ladder; slice 0 is f itself."""
    grid = f.grid
    hat, axes = _spectrum(f)
    lam = _symbol(grid)
    out = np.empty((ladder.steps + 1, grid.sites, f.components))
    out[0] = f.values
    decay = np.exp(-ladder.dt * lam)
    for j in range(1, ladder.steps + 1):
        hat = hat * decay
        out[j] = np.fft.ifftn(hat, axes=axes).real.reshape(grid.sites, f.components)
    return SpaceTimeField(grid, ladder.t_final, out)


def integrator_weights(grid: GridSpec, dt: float):
    """Per-mode decay e^{-lam dt} and weight w(lam) of one ladder cell (w(0) = dt)."""
    lam = _symbol(grid)
    decay = np.exp(-dt * lam)
    weight = np.where(lam > 0, -np.expm1(-dt * lam) / np.where(lam > 0, lam, 1.0), dt)
    return decay, weight


def _duhamel_recursion(f_hat, grid: GridSpec, dt: float):
    """Run the exponential-integrator recursion on spatially transformed slices."""
    decay, weight = integrator_weights(grid, dt)
    out = np.zeros_like(f_hat)
    for j in range(f_hat.shape[0] - 1):
        out[j + 1] = decay * out[j] + weight * f_hat[j]
    return out


def duhamel_heat(forcing: SpaceTimeField) -> SpaceTimeField:
    """Cumulative heat response int_0^t e^{(t-s) Lap} F(s) ds on the ladder."""
    grid = forcing.grid
    hat, axes = _spectrum(forcing)
    out_hat = _duhamel_recursion(hat, grid, forcing.dt)
    out = np.fft.ifftn(out_hat, axes=axes).real
    return SpaceTimeField(grid, forcing.t_final, out.reshape(forcing.values.shape))


def _project_hat(hat, grid: GridSpec):
    """Leray projection in Fourier space; the zero mode passes through.

    Built on the derivative wavenumbers (Nyquist zeroed) so the multiplier
    is even under k -> -k and real fields stay real.
    """
    n = grid.dim
    xi = _wavevector(grid)
    norm2 = (xi**2).sum(axis=-1)
    safe = np.where(norm2 > 0, norm2, 1.0)
    xi_shaped = xi.reshape((1,) * (hat.ndim - 1 - n) + xi.shape)
    dot = (hat * xi_shaped).sum(axis=-1, keepdims=True)
    correction = xi_shaped * dot / safe[..., None]
    mask = (norm2 > 0)[..., None]
    return hat - np.where(mask, correction, 0.0)


def leray_project(f: Field) -> Field:
    """Project onto divergence-free fields, keeping the mean flow."""
    if f.components != f.grid.dim:
        raise ValueError("Leray projection needs exactly n components")
    hat, axes = _spectrum(f)
    hat = _project_hat(hat, f.grid)
    return Field.from_cube(f.grid, np.fft.ifftn(hat, axes=axes).real)


def duhamel_leray_div(forcing: SpaceTimeField) -> SpaceTimeField:
    """Heat response to the projected row divergence of a matrix forcing.

    Input slices are n x n matrix fields (row-major components); each is
    mapped to P(div F) in Fourier space before the Duhamel recursion.
    """
    grid = forcing.grid
    n = grid.dim
    if forcing.components != n * n:
        raise ValueError("matrix forcing needs n*n components")
    hat, axes = _spectrum(forcing)  # (m+1, spatial..., n*n)
    rows = hat.reshape(hat.shape[:-1] + (n, n))
    xi = _wavevector(grid).reshape((1,) + grid.shape + (1, grid.dim))
    div_hat = (rows * (1j * xi)).sum(axis=-1)  # (m+1, spatial..., n)
    g_hat = _project_hat(div_hat, grid)
    out_hat = _duhamel_recursion(g_hat, grid, forcing.dt)
    out = np.fft.ifftn(out_hat, axes=axes).real
    return SpaceTimeField(grid, forcing.t_final, out.reshape(out.shape[0], grid.sites, n))


def recover_pressure(u: Field, d: Field) -> Field:
    """Mean-zero pressure with -Lap P = div(u . grad u + div(grad d x grad d))."""
    if u.components != u.grid.dim:
        raise ValueError("velocity needs n components")
    grid = u.grid
    u_cube, grad_d = u.cube(), gradient_cube(d.cube(), grid)
    gram = np.einsum("...il,...jl->...ij", grad_d, grad_d).reshape(grid.shape + (grid.dim**2,))
    force = np.einsum("...i,...il->...l", u_cube, gradient_cube(u_cube, grid))
    hat = np.fft.fftn(force + tensor_divergence_cube(gram, grid), axes=tuple(range(grid.dim)))
    xi = _wavevector(grid)
    norm2 = (xi**2).sum(axis=-1)
    safe = np.where(norm2 > 0, norm2, 1.0)
    p_hat = (1j * xi * hat).sum(axis=-1) / safe
    p_hat = np.where(norm2 > 0, p_hat, 0.0)
    pressure = np.fft.ifftn(p_hat, axes=tuple(range(grid.dim))).real
    return Field.from_cube(grid, pressure[..., None])


def heat_residual(values, grid: GridSpec, dt: float):
    """(d_t - Lap) of a (steps+1, sites, l) stack; centered d_t inside, one-sided at the ends."""
    dvdt = np.gradient(values, dt, axis=0, edge_order=1)
    return dvdt - slicewise(grid, lambda cube: laplacian_cube(cube, grid), values)


def projected_divergence(values, grid: GridSpec):
    """P div F of a (steps+1, sites, n*n) matrix stack: row divergence, then Leray projection."""

    def project(cube):
        div = tensor_divergence_cube(cube, grid)
        axes = tuple(range(1, 1 + grid.dim))
        hat = np.fft.fftn(div, axes=axes)
        return np.fft.ifftn(_project_hat(hat, grid), axes=axes).real

    return slicewise(grid, project, values)
