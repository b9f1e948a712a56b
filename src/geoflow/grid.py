"""Periodic n-torus grids with spectral differential calculus.

Fields are real-valued, vector-valued functions sampled on a uniform grid
over the torus [0, L)^n.  All spatial calculus (gradient, divergence,
Laplacian) is exact on the trigonometric interpolant, implemented through
FFT multipliers with angular wavenumbers xi = 2*pi*k/L.

Layout conventions
------------------
* ``Field.values`` has shape ``(sites, l)`` with sites enumerated in
  row-major (C) order over the axes; ``Field.cube()`` is the reshaped
  ``(M, ..., M, l)`` view.
* Gradients stack the derivative direction outside the component index:
  component ``i*l + a`` of ``spectral_gradient(f)`` is ``d_i f_a``.
* ``n x n`` matrix fields are stored row-major: component ``i*n + j`` is
  entry ``(i, j)``.

Nonlinear terms are evaluated on a 3/2 zero-padded grid
(`dealiased_apply`).  That de-aliases quadratic products exactly; cubic
and rational terms such as the curvature kernel A(u)(grad u, grad u),
which divides by |u|^3 and |u|^5, are only approximately de-aliased.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "SpaceTimeField",
    "spectral_laplacian",
    "spectral_gradient",
    "spectral_divergence",
    "tensor_divergence",
    "multiply",
    "tensor_product",
    "gradient_gram",
    "advect",
    "pointwise_norm",
    "NonFiniteValues",
    "slicewise",
    "dealiased_apply",
    "cyclic_shift",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = "GEOFLOW1"

# time slices per batched kernel call in `slicewise`; bounds the memory of
# padded and gradient cubes
_TIME_BLOCK = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L)^n with M points per axis."""

    dim: int
    points_per_axis: int
    period: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {m}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def sites(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def coordinates(self):
        """Meshgrid ('ij') coordinate arrays, one cube per axis."""
        x = np.arange(self.points_per_axis) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij")

    def wavenumbers(self):
        """Angular wavenumbers 2*pi*k/L per axis (fftfreq ordering)."""
        m = self.points_per_axis
        k = np.fft.fftfreq(m, d=self.spacing) * (2.0 * np.pi)
        return [k.copy() for _ in range(self.dim)]

    def derivative_wavenumbers(self):
        """Wavenumbers for odd-derivative multipliers: Nyquist bin zeroed.

        The Nyquist mode is self-conjugate, so an odd multiplier there would
        break conjugate symmetry and leak imaginary parts; the standard
        pseudospectral convention sets its first derivative to zero.
        """
        ks = self.wavenumbers()
        for k in ks:
            k[len(k) // 2] = 0.0
        return ks

    def squared_wavenumbers(self):
        """Cube of |xi|^2 over all modes."""
        ks = self.wavenumbers()
        cubes = np.meshgrid(*ks, indexing="ij")
        out = np.zeros(self.shape)
        for c in cubes:
            out += c * c
        return out


class NonFiniteValues(ValueError):
    """Field or space-time field values contain NaN or infinity."""


def _check_values(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValues(f"{name} contains non-finite values")
    return arr


class Field:
    """A vector-valued function sampled on a :class:`GridSpec`.

    Values are immutable once constructed.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        arr = _check_values(values, "Field values")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != grid.sites:
            raise ValueError(
                f"expected values of shape (sites={grid.sites}, l), got {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def components(self) -> int:
        return self.values.shape[1]

    def cube(self):
        """Values reshaped to (M, ..., M, l)."""
        return self.values.reshape(self.grid.shape + (self.components,))

    @classmethod
    def from_cube(cls, grid: GridSpec, cube) -> "Field":
        arr = np.asarray(cube, dtype=np.float64)
        if arr.shape[: grid.dim] != grid.shape:
            raise ValueError(f"cube shape {arr.shape} does not match grid {grid.shape}")
        if arr.ndim == grid.dim:
            arr = arr[..., None]
        return cls(grid, arr.reshape(grid.sites, arr.shape[-1]))

    @classmethod
    def constant(cls, grid: GridSpec, value) -> "Field":
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        return cls(grid, np.tile(value, (grid.sites, 1)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        """Sample ``fn(*coordinate_cubes)``; fn returns a cube or tuple of cubes."""
        out = fn(*grid.coordinates())
        if isinstance(out, (tuple, list)):
            out = np.stack([np.broadcast_to(c, grid.shape) for c in out], axis=-1)
        return cls.from_cube(grid, out)

    def sup_norm(self) -> float:
        """Largest pointwise Euclidean magnitude."""
        return float(np.sqrt((self.values**2).sum(axis=1)).max(initial=0.0))

    def mean(self):
        return self.values.mean(axis=0)

    def __add__(self, other):
        self._compatible(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._compatible(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def _compatible(self, other):
        if not isinstance(other, Field):
            raise TypeError("expected a Field")
        if other.grid != self.grid or other.components != self.components:
            raise ValueError("fields live on different grids or component counts")


class SpaceTimeField:
    """A field sampled on a uniform time ladder t_j = j*dt over [0, T]."""

    __slots__ = ("grid", "t_final", "values")

    def __init__(self, grid: GridSpec, t_final: float, values):
        arr = _check_values(values, "SpaceTimeField values")
        if arr.ndim != 3 or arr.shape[1] != grid.sites:
            raise ValueError(
                f"expected values of shape (steps+1, sites={grid.sites}, l), got {arr.shape}"
            )
        if arr.shape[0] < 5:
            raise ValueError("time ladder needs at least 4 steps")
        if not (t_final > 0):
            raise ValueError("t_final must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "t_final", float(t_final))
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SpaceTimeField is immutable")

    @property
    def components(self) -> int:
        return self.values.shape[2]

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @property
    def times(self):
        return np.arange(self.steps + 1) * self.dt

    def slice(self, j: int) -> Field:
        return Field(self.grid, self.values[j])

    def cube(self):
        """Values reshaped to (steps+1, M, ..., M, l)."""
        return self.values.reshape((self.steps + 1,) + self.grid.shape + (self.components,))

    @classmethod
    def from_slices(cls, grid: GridSpec, t_final: float, fields) -> "SpaceTimeField":
        return cls(grid, t_final, np.stack([f.values for f in fields], axis=0))

    def __add__(self, other):
        self._compatible(other)
        return SpaceTimeField(self.grid, self.t_final, self.values + other.values)

    def __sub__(self, other):
        self._compatible(other)
        return SpaceTimeField(self.grid, self.t_final, self.values - other.values)

    def __mul__(self, scalar):
        return SpaceTimeField(self.grid, self.t_final, self.values * float(scalar))

    __rmul__ = __mul__

    def _compatible(self, other):
        if not isinstance(other, SpaceTimeField):
            raise TypeError("expected a SpaceTimeField")
        if (
            other.grid != self.grid
            or other.components != self.components
            or other.steps != self.steps
            or other.t_final != self.t_final
        ):
            raise ValueError("space-time fields live on different grids or ladders")


# ---------------------------------------------------------------------------
# Array-level spectral kernels.
#
# Cubes carry their spatial axes immediately before a trailing component
# axis; anything in front is batch (e.g. time slices).  All kernels accept
# batched input.
# ---------------------------------------------------------------------------


def _axes(arr, dim):
    return tuple(range(arr.ndim - 1 - dim, arr.ndim - 1))


def _axis_wavenumbers(arr, axes, period, odd=False):
    # derived from the actual axis lengths so padded cubes work too
    ks = [
        np.fft.fftfreq(arr.shape[axis], d=period / arr.shape[axis]) * (2.0 * np.pi)
        for axis in axes
    ]
    if odd:
        # odd-derivative multipliers zero the Nyquist bin: its one-sided
        # representation cannot carry an odd symbol and keep output real
        for k in ks:
            k[len(k) // 2] = 0.0
    return ks


def laplacian_cube(arr, grid: GridSpec):
    axes = _axes(arr, grid.dim)
    hat = np.fft.fftn(arr, axes=axes)
    ks = _axis_wavenumbers(arr, axes, grid.period)
    sym = np.zeros([arr.shape[a] for a in axes])
    for c in np.meshgrid(*ks, indexing="ij"):
        sym += c * c
    hat *= -sym.reshape((1,) * (arr.ndim - 1 - grid.dim) + sym.shape + (1,))
    return np.fft.ifftn(hat, axes=axes).real


def gradient_cube(arr, grid: GridSpec):
    """Gradient stack: output shape = batch + spatial + (n, l)."""
    axes = _axes(arr, grid.dim)
    hat = np.fft.fftn(arr, axes=axes)
    ks = _axis_wavenumbers(arr, axes, grid.period, odd=True)
    parts = []
    for i, axis in enumerate(axes):
        shape = [1] * arr.ndim
        shape[axis] = arr.shape[axis]
        parts.append(np.fft.ifftn(hat * (1j * ks[i]).reshape(shape), axes=axes).real)
    return np.stack(parts, axis=-2)


def divergence_cube(arr, grid: GridSpec):
    """Divergence of an n-component cube; output keeps a trailing axis of size 1."""
    if arr.shape[-1] != grid.dim:
        raise ValueError("divergence needs exactly n components")
    axes = _axes(arr, grid.dim)
    hat = np.fft.fftn(arr, axes=axes)
    ks = _axis_wavenumbers(arr, axes, grid.period, odd=True)
    out = np.zeros(hat.shape[:-1], dtype=complex)
    for i, axis in enumerate(axes):
        shape = [1] * (arr.ndim - 1)
        shape[axis] = arr.shape[axis]
        out += hat[..., i] * (1j * ks[i]).reshape(shape)
    return np.fft.ifftn(out, axes=axes).real[..., None]


def tensor_divergence_cube(arr, grid: GridSpec):
    """Row divergence of an n*n matrix cube: out_i = sum_j d_j F_ij."""
    n = grid.dim
    if arr.shape[-1] != n * n:
        raise ValueError("tensor divergence needs n*n components")
    rows = arr.reshape(arr.shape[:-1] + (n, n))
    out = [divergence_cube(rows[..., i, :], grid)[..., 0] for i in range(n)]
    return np.stack(out, axis=-1)


def _resample_axis(hat, m_new, axis):
    """Spectral pad/truncate of one fftfreq-ordered axis, splitting Nyquist."""
    m_old = hat.shape[axis]
    if m_new == m_old:
        return hat
    half = min(m_old, m_new) // 2
    shape = list(hat.shape)
    shape[axis] = m_new
    out = np.zeros(shape, dtype=complex)

    def sl(start, stop):
        idx = [slice(None)] * hat.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    out[sl(0, half)] = hat[sl(0, half)]
    out[sl(m_new - half + 1, m_new)] = hat[sl(m_old - half + 1, m_old)]
    if m_new > m_old:
        # old Nyquist splits evenly onto +-half bins of the finer axis
        out[sl(half, half + 1)] = 0.5 * hat[sl(half, half + 1)]
        out[sl(m_new - half, m_new - half + 1)] = 0.5 * hat[sl(half, half + 1)]
    else:
        # the +-half bins of the finer axis fold onto the coarse Nyquist
        out[sl(half, half + 1)] = hat[sl(half, half + 1)] + hat[sl(m_old - half, m_old - half + 1)]
    return out


def resample_cube(arr, grid: GridSpec, m_new: int):
    """Spectrally interpolate a cube to m_new points per axis."""
    axes = _axes(arr, grid.dim)
    hat = np.fft.fftn(arr, axes=axes)
    for axis in axes:
        hat = _resample_axis(hat, m_new, axis)
    scale = (m_new / grid.points_per_axis) ** grid.dim
    return np.fft.ifftn(hat * scale, axes=axes).real


def _restrict_cube(arr, grid: GridSpec, m_from: int):
    axes = _axes(arr, grid.dim)
    hat = np.fft.fftn(arr, axes=axes)
    for axis in axes:
        hat = _resample_axis(hat, grid.points_per_axis, axis)
    scale = (grid.points_per_axis / m_from) ** grid.dim
    return np.fft.ifftn(hat * scale, axes=axes).real


def slicewise(grid: GridSpec, fn, *stacks):
    """Map ``(steps+1, sites, l)`` stacks through a batched cube kernel.

    ``fn`` gets blocks of 16 slices as ``(b, M, ..., M, l)`` cubes and
    returns ``(b, M, ..., M) + tail``; the result is ``(steps+1, sites) + tail``.
    """
    steps1 = stacks[0].shape[0]
    out = None
    for start in range(0, steps1, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        res = fn(*[s[block].reshape((-1,) + grid.shape + s.shape[-1:]) for s in stacks])
        res = res.reshape((res.shape[0], grid.sites) + res.shape[1 + grid.dim :])
        if out is None:
            out = np.empty((steps1,) + res.shape[1:])
        out[block] = res
    return out


def dealiased_apply(grid: GridSpec, fn, *stacks):
    """Evaluate a pointwise nonlinearity slicewise on the 3/2 zero-padded grid.

    Each stack is spectrally refined to 3M/2 points per axis, ``fn`` is
    applied to the padded cubes, and its result is truncated back to the
    resolved band.  Exact de-aliasing for quadratic products only.
    """
    m_pad = 3 * grid.points_per_axis // 2

    def padded(*cubes):
        fine = fn(*[resample_cube(c, grid, m_pad) for c in cubes])
        return _restrict_cube(fine, grid, m_pad)

    return slicewise(grid, padded, *stacks)


# ---------------------------------------------------------------------------
# Field-level operations.
# ---------------------------------------------------------------------------


def spectral_laplacian(f: Field) -> Field:
    """Exact Laplacian of the trigonometric interpolant."""
    return Field.from_cube(f.grid, laplacian_cube(f.cube(), f.grid))


def spectral_gradient(f: Field) -> Field:
    """Gradient with components d_i f_a laid out as i*l + a."""
    g = gradient_cube(f.cube(), f.grid)
    n, l = f.grid.dim, f.components
    return Field.from_cube(f.grid, g.reshape(f.grid.shape + (n * l,)))


def spectral_divergence(f: Field) -> Field:
    return Field.from_cube(f.grid, divergence_cube(f.cube(), f.grid))


def tensor_divergence(f: Field) -> Field:
    return Field.from_cube(f.grid, tensor_divergence_cube(f.cube(), f.grid))


def multiply(a: Field, b: Field) -> Field:
    """Pointwise product; a scalar field broadcasts over vector components."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.components == b.components:
        return Field(a.grid, a.values * b.values)
    if a.components == 1:
        return Field(a.grid, a.values * b.values)
    if b.components == 1:
        return Field(a.grid, a.values * b.values[:, :1])
    raise ValueError("component counts must match or one field must be scalar")


def tensor_product(a: Field, b: Field) -> Field:
    """Outer product field: component i*q + j is a_i * b_j."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    out = a.values[:, :, None] * b.values[:, None, :]
    return Field(a.grid, out.reshape(a.grid.sites, a.components * b.components))


def gradient_gram(f: Field) -> Field:
    """Matrix field with entry (i, j) = sum_a d_i f_a * d_j f_a."""
    g = gradient_cube(f.cube(), f.grid)  # spatial + (n, l)
    gram = np.einsum("...il,...jl->...ij", g, g)
    n = f.grid.dim
    return Field.from_cube(f.grid, gram.reshape(f.grid.shape + (n * n,)))


def advect(u: Field, f: Field) -> Field:
    """Transport term (u . grad f)_a = sum_i u_i d_i f_a."""
    if u.components != u.grid.dim:
        raise ValueError("advecting velocity needs n components")
    g = gradient_cube(f.cube(), f.grid)
    out = np.einsum("...i,...il->...l", u.cube(), g)
    return Field.from_cube(f.grid, out)


def pointwise_norm(f: Field) -> Field:
    """Scalar field of pointwise Euclidean magnitudes."""
    return Field(f.grid, np.sqrt((f.values**2).sum(axis=1))[:, None])


def cyclic_shift(f: Field, shifts) -> Field:
    """Translate by whole grid cells (periodic roll); exact, no interpolation."""
    cube = np.roll(f.cube(), shifts, axis=tuple(range(f.grid.dim)))
    return Field.from_cube(f.grid, cube)


# ---------------------------------------------------------------------------
# Snapshot format: ASCII header "GEOFLOW1 dim M L components", then raw
# little-endian float64 values in row-major order.  Round-trips bit-exactly.
# ---------------------------------------------------------------------------


def write_snapshot(f: Field, path):
    header = f"{SNAPSHOT_MAGIC} {f.grid.dim} {f.grid.points_per_axis} {f.grid.period!r} {f.components}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path) -> Field:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != SNAPSHOT_MAGIC:
            raise ValueError(f"not a {SNAPSHOT_MAGIC} snapshot: {path}")
        dim, m, period, comps = int(header[1]), int(header[2]), float(header[3]), int(header[4])
        grid = GridSpec(dim, m, period)
        raw = fh.read(grid.sites * comps * 8)
        if len(raw) != grid.sites * comps * 8:
            raise ValueError("snapshot payload truncated")
        values = np.frombuffer(raw, dtype="<f8").reshape(grid.sites, comps)
    return Field(grid, values)
