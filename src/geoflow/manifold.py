"""Unit-sphere target geometry as pointwise algebraic kernels.

The target is the unit sphere S^{l-1} in R^l.  The nearest-point
projection is radial, Pi(y) = y/|y|, and everything else is derived from
it in closed form:

* defect          Q(y)   = y - Pi(y)
* distance energy rho(y) = |Q(y)|^2 / 2 = (|y| - 1)^2 / 2
* curvature term  A(y)(v, w) = -D^2 Pi(y)(v, w)
                = [v (y.w) + w (y.v) + (v.w) y] / |y|^3
                  - 3 y (y.v)(y.w) / |y|^5

For sphere-valued y and tangent gradients the curvature term reduces to
|grad|^2 * y, the familiar source term of the harmonic map flow.

All kernels are defined on the tube 1/4 <= |y|; points below |y| = 1/4
raise :class:`TubeEscape`.  No smooth extension past the tube is
attempted: an iterate leaving the tube is a detected failure of the
small-data regime, not something to integrate through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, SpaceTimeField, gradient_cube, laplacian_cube

__all__ = [
    "TubeEscape",
    "SphereTarget",
    "project_field",
    "defect_field",
    "distance_energy_field",
    "apply_second_fundamental_form",
    "unit_deviation",
    "subharmonicity_residual",
]

_TUBE_FLOOR = 0.25


class TubeEscape(RuntimeError):
    """A point left the tube around the target sphere where the kernels apply."""

    def __init__(self, min_norm: float):
        super().__init__(
            f"field magnitude dropped to {min_norm:.6g}, below the tube floor {_TUBE_FLOOR}"
        )
        self.min_norm = float(min_norm)


@dataclass(frozen=True)
class SphereTarget:
    """Unit sphere S^{l-1} in R^l; kernels apply on the tube |y| >= 1/4."""

    ambient_dim: int

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError(f"ambient_dim must be >= 2, got {self.ambient_dim}")

    def _norms(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.shape[-1] != self.ambient_dim:
            raise ValueError(f"points must have {self.ambient_dim} components")
        norm = np.sqrt((y**2).sum(axis=-1, keepdims=True))
        low = float(norm.min()) if norm.size else 1.0
        if low < _TUBE_FLOOR:
            raise TubeEscape(low)
        return y, norm

    def project(self, y):
        """Nearest point on the sphere: y/|y|."""
        y, norm = self._norms(y)
        return y / norm

    def defect(self, y):
        """Q(y) = y - Pi(y); radial, vanishes on the sphere."""
        y, norm = self._norms(y)
        return y * (1.0 - 1.0 / norm)

    def distance_energy(self, y):
        """rho(y) = (|y| - 1)^2 / 2; drops the trailing component axis."""
        y, norm = self._norms(y)
        return 0.5 * (norm[..., 0] - 1.0) ** 2

    def second_fundamental_form(self, y, v, w):
        """Bilinear curvature kernel A(y)(v, w) = -D^2 Pi(y)(v, w)."""
        y, norm = self._norms(y)
        v = np.asarray(v, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        n3 = norm**3
        n5 = norm**5
        yv = (y * v).sum(axis=-1, keepdims=True)
        yw = (y * w).sum(axis=-1, keepdims=True)
        vw = (v * w).sum(axis=-1, keepdims=True)
        return (v * yw + w * yv + vw * y) / n3 - 3.0 * y * yv * yw / n5

    def gradient_quadratic(self, y, stack):
        """sum_i A(y)(g_i, g_i) for a gradient stack of shape (..., n, l)."""
        y, norm = self._norms(y)
        stack = np.asarray(stack, dtype=np.float64)
        ydot = np.einsum("...l,...il->...i", y, stack)
        sq = (stack**2).sum(axis=(-2, -1))[..., None]
        mixed = 2.0 * np.einsum("...i,...il->...l", ydot, stack)
        radial = (ydot**2).sum(axis=-1)[..., None]
        return (mixed + sq * y) / norm**3 - 3.0 * y * radial / norm**5


def project_field(target: SphereTarget, f: Field) -> Field:
    return Field(f.grid, target.project(f.values))


def defect_field(target: SphereTarget, f: Field) -> Field:
    return Field(f.grid, target.defect(f.values))


def distance_energy_field(target: SphereTarget, f: Field) -> Field:
    return Field(f.grid, target.distance_energy(f.values)[:, None])


def apply_second_fundamental_form(target: SphereTarget, u: Field, grad_u: Field) -> Field:
    """Pointwise sum_i A(u)(d_i u, d_i u) from a precomputed gradient field.

    ``grad_u`` holds the stack with component i*l + a = d_i u_a, as produced
    by ``spectral_gradient``.
    """
    n = u.grid.dim
    l = u.components
    if grad_u.components != n * l or grad_u.grid != u.grid:
        raise ValueError("gradient field does not match u")
    stack = grad_u.values.reshape(u.grid.sites, n, l)
    return Field(u.grid, target.gradient_quadratic(u.values, stack))


def unit_deviation(f: Field) -> float:
    """Largest pointwise | |f| - 1 |: how far the field strays off the sphere."""
    norm = np.sqrt((f.values**2).sum(axis=1))
    return float(np.abs(norm - 1.0).max())


def subharmonicity_residual(target: SphereTarget, u: SpaceTimeField) -> SpaceTimeField:
    """(d_t - Lap) rho(u) + |grad Q(u)|^2, a scalar space-time field.

    For exact solutions of the flow this combination vanishes; the discrete
    residual decays like O(dt + h^2) under refinement.  Time derivative by
    centered differences inside, one-sided at the ends.
    """
    grid = u.grid
    rho = target.distance_energy(u.values)  # (m+1, sites)
    drho = np.gradient(rho, u.dt, axis=0, edge_order=1)
    lap = laplacian_cube(
        rho.reshape((u.steps + 1,) + grid.shape + (1,)), grid
    ).reshape(u.steps + 1, grid.sites)
    q = target.defect(u.values)
    gq = gradient_cube(q.reshape((u.steps + 1,) + grid.shape + (u.components,)), grid)
    gq_sq = (gq**2).sum(axis=(-2, -1)).reshape(u.steps + 1, grid.sites)
    residual = drho - lap + gq_sq
    return SpaceTimeField(grid, u.t_final, residual[:, :, None])
