"""Simplified nematic liquid crystal flow: velocity coupled to a director.

The system evolves a divergence-free velocity u and a unit director d:

    d_t u - Lap u + P div(u x u + grad d o grad d) = 0
    d_t d - Lap d + u . grad d = A(d)(grad d, grad d)

with P the Leray projection (pressure never appears) and A the sphere
curvature kernel.  Both equations are put in Duhamel form and iterated as
one simultaneous fixed-point map on the pair: each Picard step evaluates
the velocity map and the director map at the previous iterate.  Increments
are measured in velocity norm (u part) plus solution norm (d part).

The velocity stays divergence-free structurally (the projected Duhamel
operator only produces divergence-free fields); the director is never
renormalized, so |d| = 1 is a measured outcome, not an enforced one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    SpaceTimeField,
    dealiased_apply,
    divergence_cube,
    gradient_cube,
    slicewise,
    spectral_divergence,
    tensor_divergence_cube,
)
from .heat import TimeLadder, caloric_extension, duhamel_heat, duhamel_leray_div, _project_hat
from .hmflow import (
    SolverConfig,
    SweepReport,
    _curvature_forcing,
    _laplacian_slices,
    _ratios,
    _sup_magnitude,
    _constraint_defect,
    picard,
    sweep,
)
from .manifold import SphereTarget, unit_deviation
from .norms import bmo_inverse_norm, bmo_seminorm, solution_norm, velocity_norm

__all__ = [
    "LCState",
    "LCSolveResult",
    "velocity_map",
    "director_map",
    "solve",
    "lc_residuals",
    "divergence_sup",
    "amplitude_sweep",
]


@dataclass(frozen=True)
class LCState:
    """Velocity (n components) and director (3 components) trajectories."""

    u: SpaceTimeField
    d: SpaceTimeField

    def __post_init__(self):
        if self.u.grid != self.d.grid:
            raise ValueError("velocity and director live on different grids")
        if self.u.steps != self.d.steps or self.u.t_final != self.d.t_final:
            raise ValueError("velocity and director live on different ladders")
        if self.u.components != self.u.grid.dim:
            raise ValueError("velocity needs n components")
        if self.d.components != 3:
            raise ValueError("director needs 3 components")


@dataclass(frozen=True)
class LCSolveResult:
    state: LCState
    increments: tuple
    contraction_estimates: tuple
    residual_u_sup: float
    residual_d_sup: float
    constraint_defect: float
    divergence_sup: float
    converged: bool

    def to_json(self):
        return {
            "increments": list(self.increments),
            "contraction_estimates": list(self.contraction_estimates),
            "residual_u_sup": self.residual_u_sup,
            "residual_d_sup": self.residual_d_sup,
            "constraint_defect": self.constraint_defect,
            "divergence_sup": self.divergence_sup,
            "converged": self.converged,
        }


def _stress_forcing(u_values, d_values, grid):
    """Dealiased stress tensor u x u + grad d o grad d, slicewise, n*n comps."""

    def stress(up, dp):
        gd = gradient_cube(dp, grid)
        out = up[..., :, None] * up[..., None, :]
        out += np.einsum("...il,...jl->...ij", gd, gd)
        return out.reshape(out.shape[:-2] + (grid.dim * grid.dim,))

    return dealiased_apply(grid, stress, u_values, d_values)


def _advection_forcing(u_values, d_values, grid):
    """Dealiased transport term u . grad d, slicewise."""
    return dealiased_apply(
        grid,
        lambda up, dp: np.einsum("...i,...il->...l", up, gradient_cube(dp, grid)),
        u_values,
        d_values,
    )


def velocity_map(state: LCState, u0: Field) -> SpaceTimeField:
    """Heat extension of u0 minus the projected response to the stress tensor."""
    grid = state.u.grid
    if u0.grid != grid or u0.components != grid.dim:
        raise ValueError("velocity data does not match the state")
    ladder = TimeLadder(state.u.t_final, state.u.steps)
    ext = caloric_extension(u0, ladder)
    stress = SpaceTimeField(
        grid, state.u.t_final, _stress_forcing(state.u.values, state.d.values, grid)
    )
    return ext - duhamel_leray_div(stress)


def director_map(state: LCState, d0: Field) -> SpaceTimeField:
    """Heat extension of d0 plus response to curvature minus transport forcing."""
    grid = state.d.grid
    if d0.grid != grid or d0.components != 3:
        raise ValueError("director data does not match the state")
    target = SphereTarget(3)
    ladder = TimeLadder(state.d.t_final, state.d.steps)
    ext = caloric_extension(d0, ladder)
    curvature = _curvature_forcing(state.d.values, grid, target)
    transport = _advection_forcing(state.u.values, state.d.values, grid)
    forcing = SpaceTimeField(grid, state.d.t_final, curvature - transport)
    return ext + duhamel_heat(forcing)


def divergence_sup(u: SpaceTimeField) -> float:
    """Largest pointwise |div u| over all slices."""
    div = slicewise(u.grid, lambda cube: divergence_cube(cube, u.grid), u.values)
    return float(np.abs(div).max())


def lc_residuals(state: LCState):
    """PDE residuals of both equations as space-time fields (u part, d part)."""
    grid = state.u.grid
    target = SphereTarget(3)
    dt = state.u.dt
    dudt = np.gradient(state.u.values, dt, axis=0, edge_order=1)
    dddt = np.gradient(state.d.values, dt, axis=0, edge_order=1)
    lap_u = _laplacian_slices(state.u.values, grid)
    lap_d = _laplacian_slices(state.d.values, grid)
    stress = _stress_forcing(state.u.values, state.d.values, grid)
    n = grid.dim
    cube = stress.reshape((-1,) + grid.shape + (n * n,))
    div_stress = tensor_divergence_cube(cube, grid)
    axes = tuple(range(1, 1 + grid.dim))
    hat = np.fft.fftn(div_stress, axes=axes)
    projected = np.fft.ifftn(_project_hat(hat, grid), axes=axes).real
    r_u = dudt - lap_u + projected.reshape(-1, grid.sites, n)
    curvature = _curvature_forcing(state.d.values, grid, target)
    transport = _advection_forcing(state.u.values, state.d.values, grid)
    r_d = dddt - lap_d - curvature + transport
    return (
        SpaceTimeField(grid, state.u.t_final, r_u),
        SpaceTimeField(grid, state.d.t_final, r_d),
    )


def solve(u0: Field, d0: Field, cfg: SolverConfig) -> LCSolveResult:
    """Simultaneous Picard iteration for the coupled system.

    Preconditions: u0 divergence-free and d0 unit-length, both to 1e-12;
    spatial dimension 2 or 3.  Raises NoConvergence with the partial result
    attached when the pair map fails to contract.
    """
    grid = cfg.grid
    if grid.dim not in (2, 3):
        raise ValueError("liquid crystal flow needs spatial dimension 2 or 3")
    if u0.grid != grid or d0.grid != grid:
        raise ValueError("data grid does not match config grid")
    div0 = float(np.abs(spectral_divergence(u0).values).max())
    if div0 > 1e-12:
        raise ValueError(f"velocity data must be divergence-free; |div u0| reaches {div0:.3g}")
    dev = unit_deviation(d0)
    if dev > 1e-12:
        raise ValueError(f"director data must be unit-length; | |d0|-1 | reaches {dev:.3g}")
    ext_u = caloric_extension(u0, cfg.ladder)
    ext_d = caloric_extension(d0, cfg.ladder)
    return picard(
        LCState(ext_u, ext_d),
        lambda state: LCState(velocity_map(state, u0), director_map(state, d0)),
        lambda nxt, state: velocity_norm(nxt.u - state.u).value
        + solution_norm(nxt.d - state.d).value,
        _result,
        cfg,
    )


def _result(state: LCState, increments, converged) -> LCSolveResult:
    if converged:
        r_u, r_d = lc_residuals(state)
        res_u = _sup_magnitude(r_u.values)
        res_d = _sup_magnitude(r_d.values)
    else:
        res_u = res_d = math.inf
    return LCSolveResult(
        state=state,
        increments=tuple(increments),
        contraction_estimates=_ratios(increments),
        residual_u_sup=res_u,
        residual_d_sup=res_d,
        constraint_defect=_constraint_defect(state.d.values),
        divergence_sup=divergence_sup(state.u),
        converged=converged,
    )


def amplitude_sweep(make_data, amplitudes, cfg: SolverConfig) -> SweepReport:
    """Sweep a joint (velocity, director) family over ascending amplitudes.

    make_data(amplitude) returns the pair (u0, d0).  The data size combines
    the Carleson norm of the velocity's heat extension with the director's
    ball oscillation; the solution size combines velocity norm and solution
    seminorm.
    """
    big_r = cfg.grid.period / 4.0
    return sweep(
        make_data,
        amplitudes,
        lambda data: bmo_inverse_norm(data[0], big_r, cfg.ladder).value
        + bmo_seminorm(data[1], big_r).value,
        lambda data: solve(*data, cfg),
        lambda res: velocity_norm(res.state.u).value
        + solution_norm(res.state.d).term("seminorm"),
    )
