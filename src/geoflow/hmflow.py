"""Harmonic map heat flow into the unit sphere, solved two independent ways.

The primary solver runs Picard iteration of the integral (Duhamel) map

    T u = u0~ + S[ A(u)(grad u, grad u) ]

on the whole space-time ladder, where u0~ is the heat extension of the
data and S the cumulative heat response.  The iteration starts from u0~
and is declared converged when the increment, measured in the solution
norm (amplitude sup + weighted gradient sup + gradient Carleson), drops
below ``picard_tol``.  Iterates are never renormalized onto the sphere:
staying near the sphere is a property the scheme must earn, and the
reported ``constraint_defect`` measures how well it does.

``time_march`` is an independent cross-check: a per-step exponential
integrator for the same equation.  Both discretizations share the
left-endpoint forcing rule, so their trajectories agree to the tolerance
of the fixed point plus O(dt).

Failure to contract (large data) raises :class:`NoConvergence` carrying
the partial result; an iterate wandering below the admissible tube around
the sphere raises :class:`~geoflow.manifold.TubeEscape`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import (
    Field,
    GridSpec,
    NonFiniteValues,
    SpaceTimeField,
    dealiased_apply,
    gradient_cube,
    laplacian_cube,
    slicewise,
)
from .heat import TimeLadder, caloric_extension, duhamel_heat
from .manifold import SphereTarget, TubeEscape, unit_deviation
from .norms import bmo_seminorm, solution_norm

__all__ = [
    "NoConvergence",
    "SolverConfig",
    "SolveResult",
    "SweepRecord",
    "SweepReport",
    "picard",
    "picard_map",
    "solve",
    "sweep",
    "time_march",
    "flow_residual",
    "amplitude_sweep",
]


class NoConvergence(RuntimeError):
    """Picard iteration failed to contract; carries the partial result."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    ladder: TimeLadder
    picard_tol: float = 1e-10
    max_iters: int = 60

    def __post_init__(self):
        if not (self.picard_tol > 0):
            raise ValueError("picard_tol must be positive")
        if self.max_iters < 2:
            raise ValueError("max_iters must be >= 2")


@dataclass(frozen=True)
class SolveResult:
    """Solution plus the convergence record of the fixed-point iteration.

    increments[k] is the solution-norm distance between iterates k+1 and k;
    contraction_estimates are the successive ratios.  residual_sup is the
    sup magnitude of (d_t - Lap)u - A(u)(grad u, grad u) on the returned
    trajectory; constraint_defect is sup over slices of | |u| - 1 |.
    """

    solution: SpaceTimeField
    increments: tuple
    contraction_estimates: tuple
    residual_sup: float
    constraint_defect: float
    converged: bool

    def to_json(self):
        return {
            "increments": list(self.increments),
            "contraction_estimates": list(self.contraction_estimates),
            "residual_sup": self.residual_sup,
            "constraint_defect": self.constraint_defect,
            "converged": self.converged,
        }


def _curvature_forcing(values, grid: GridSpec, target: SphereTarget):
    """Dealiased A(u)(grad u, grad u) per slice: pad, evaluate, truncate."""
    return dealiased_apply(
        grid, lambda padded: target.gradient_quadratic(padded, gradient_cube(padded, grid)), values
    )


def _laplacian_slices(values, grid: GridSpec):
    return slicewise(grid, lambda cube: laplacian_cube(cube, grid), values)


def picard_map(u: SpaceTimeField, u0: Field) -> SpaceTimeField:
    """One application of the Duhamel fixed-point map; slice 0 stays u0."""
    if u0.grid != u.grid or u0.components != u.components:
        raise ValueError("data does not match the iterate")
    target = SphereTarget(u.components)
    ladder = TimeLadder(u.t_final, u.steps)
    ext = caloric_extension(u0, ladder)
    forcing = SpaceTimeField(u.grid, u.t_final, _curvature_forcing(u.values, u.grid, target))
    return ext + duhamel_heat(forcing)


def flow_residual(u: SpaceTimeField) -> SpaceTimeField:
    """(d_t - Lap)u - A(u)(grad u, grad u), centered d_t inside, one-sided ends."""
    target = SphereTarget(u.components)
    dudt = np.gradient(u.values, u.dt, axis=0, edge_order=1)
    lap = _laplacian_slices(u.values, u.grid)
    forcing = _curvature_forcing(u.values, u.grid, target)
    return SpaceTimeField(u.grid, u.t_final, dudt - lap - forcing)


def _sup_magnitude(values) -> float:
    return float(np.sqrt((values**2).sum(axis=-1)).max())


def _constraint_defect(values) -> float:
    norms = np.sqrt((values**2).sum(axis=-1))
    return float(np.abs(norms - 1.0).max())


def _ratios(increments):
    out = []
    for prev, nxt in zip(increments, increments[1:]):
        out.append(nxt / prev if prev > 0 else 0.0)
    return tuple(out)


def picard(start, step, increment, finish, cfg: SolverConfig):
    """Iterate ``step`` from ``start`` until the increment drops below picard_tol.

    ``increment(nxt, current)`` measures each step; ``finish(current,
    increments, converged)`` assembles the result.  Non-finite values
    anywhere in a step or its increment count as divergence.  Either way
    of failing raises NoConvergence carrying the finished partial result.
    """
    current = start
    increments = []
    converged = False
    for _ in range(cfg.max_iters):
        try:
            nxt = step(current)
            inc = increment(nxt, current)
        except NonFiniteValues as err:
            partial = finish(current, increments, False)
            raise NoConvergence("iteration diverged (non-finite values)", partial) from err
        increments.append(inc)
        current = nxt
        if inc <= cfg.picard_tol:
            converged = True
            break
    result = finish(current, increments, converged)
    if not converged:
        raise NoConvergence(
            f"no contraction below {cfg.picard_tol:g} within {cfg.max_iters} iterations",
            result,
        )
    return result


def solve(u0: Field, cfg: SolverConfig) -> SolveResult:
    """Picard-iterate the Duhamel map from the heat extension of u0.

    u0 must be sphere-valued to 1e-12.  Raises NoConvergence (with the
    partial result attached) if increments fail to drop below picard_tol
    within max_iters, and TubeEscape if an iterate leaves the tube.
    """
    if u0.grid != cfg.grid:
        raise ValueError("data grid does not match config grid")
    dev = unit_deviation(u0)
    if dev > 1e-12:
        raise ValueError(f"data must be sphere-valued; | |u0|-1 | reaches {dev:.3g}")
    target = SphereTarget(u0.components)
    ext = caloric_extension(u0, cfg.ladder)

    def step(current):
        forcing = _curvature_forcing(current.values, cfg.grid, target)
        return ext + duhamel_heat(SpaceTimeField(cfg.grid, cfg.ladder.t_final, forcing))

    return picard(ext, step, lambda nxt, current: solution_norm(nxt - current).value, _result, cfg)


def _result(current, increments, converged) -> SolveResult:
    residual = _sup_magnitude(flow_residual(current).values) if converged else math.inf
    return SolveResult(
        solution=current,
        increments=tuple(increments),
        contraction_estimates=_ratios(increments),
        residual_sup=residual,
        constraint_defect=_constraint_defect(current.values),
        converged=converged,
    )


def time_march(u0: Field, cfg: SolverConfig, renormalize: bool = False) -> SpaceTimeField:
    """Independent per-step exponential integrator for the same flow.

    u_{j+1} = e^{dt Lap} u_j + w(Lap) A(u_j)(grad u_j, grad u_j), the same
    left-endpoint weight the Duhamel operator uses.  With renormalize=True
    every step is projected back onto the sphere (diagnostic mode only).
    """
    if u0.grid != cfg.grid:
        raise ValueError("data grid does not match config grid")
    grid, ladder = cfg.grid, cfg.ladder
    target = SphereTarget(u0.components)
    lam = grid.squared_wavenumbers().reshape(grid.shape + (1,))
    decay = np.exp(-ladder.dt * lam)
    weight = np.where(lam > 0, -np.expm1(-ladder.dt * lam) / np.where(lam > 0, lam, 1.0), ladder.dt)
    axes = tuple(range(grid.dim))
    values = np.empty((ladder.steps + 1, grid.sites, u0.components))
    values[0] = u0.values
    cur = u0.values
    for j in range(ladder.steps):
        forcing = _curvature_forcing(cur[None], grid, target)[0]
        cur_hat = np.fft.fftn(cur.reshape(grid.shape + (-1,)), axes=axes)
        f_hat = np.fft.fftn(forcing.reshape(grid.shape + (-1,)), axes=axes)
        nxt = np.fft.ifftn(decay * cur_hat + weight * f_hat, axes=axes).real
        cur = nxt.reshape(grid.sites, -1)
        if renormalize:
            cur = target.project(cur)
        values[j + 1] = cur
    return SpaceTimeField(grid, ladder.t_final, values)


@dataclass(frozen=True)
class SweepRecord:
    amplitude: float
    data_oscillation: float
    converged: bool
    iterations: int
    contraction: float
    solution_size: float
    amplification: float

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class SweepReport:
    """Per-amplitude convergence records plus the observed threshold.

    threshold is the largest amplitude of the initial run of converged
    records (amplitudes are scanned in ascending order); NaN when even the
    smallest fails.
    """

    records: tuple
    threshold: float

    def to_json(self):
        return {"threshold": self.threshold, "records": [r.to_json() for r in self.records]}


def _measured_contraction(ratios) -> float:
    # skip the first ratio: it compares against the raw starting increment
    tail = ratios[1:] if len(ratios) > 1 else ratios
    return max(tail) if tail else 0.0


def sweep(make_data, amplitudes, data_size, solve_one, solution_size) -> SweepReport:
    """Solve across an ascending amplitude ladder, recording convergence.

    For each amplitude, ``data = make_data(amplitude)`` is measured by
    ``data_size(data)`` and solved by ``solve_one(data)``; a solved or
    partial result is measured by ``solution_size(result)``.  NoConvergence
    records the partial result; TubeEscape is reported, not fatal, as a
    record with no iterations and NaN sizes.
    """
    amps = [float(a) for a in amplitudes]
    if amps != sorted(amps):
        raise ValueError("amplitudes must be ascending")
    records = []
    for a in amps:
        data = make_data(a)
        oscillation = data_size(data)
        try:
            res = solve_one(data)
            converged = True
        except NoConvergence as err:
            res = err.result
            converged = False
        except TubeEscape:
            # the iterate left the admissible tube: reported, not fatal
            res = None
            converged = False
        if res is None:
            size, iters, theta = math.nan, 0, math.nan
        else:
            size = solution_size(res)
            iters = len(res.increments)
            theta = _measured_contraction(res.contraction_estimates)
        records.append(
            SweepRecord(
                amplitude=a,
                data_oscillation=oscillation,
                converged=converged,
                iterations=iters,
                contraction=theta,
                solution_size=size,
                amplification=size / oscillation if oscillation > 0 else 0.0,
            )
        )
    threshold = math.nan
    for rec in records:
        if not rec.converged:
            break
        threshold = rec.amplitude
    return SweepReport(tuple(records), threshold)


def amplitude_sweep(make_data, amplitudes, cfg: SolverConfig) -> SweepReport:
    """Solve across an ascending amplitude ladder, recording convergence.

    make_data(amplitude) must return sphere-valued data on cfg.grid.  For
    each amplitude the record holds the data oscillation (its largest
    normalized ball mean oscillation), the measured contraction factor,
    the solution-norm seminorm, and amplification = solution / data size.
    """
    return sweep(
        make_data,
        amplitudes,
        lambda u0: bmo_seminorm(u0, cfg.grid.period / 4.0).value,
        lambda u0: solve(u0, cfg),
        lambda res: solution_norm(res.solution).term("seminorm"),
    )
