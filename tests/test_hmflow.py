"""Harmonic map heat flow: fixed-point solver, time marcher, sweeps.

Two independent oracles anchor these tests.  The circle reduction turns
the flow into the scalar heat equation, giving exact trajectories for
great-circle data.  And the Duhamel composition is re-derived per Fourier
mode with a scalar Python recursion, so the full-field operator is checked
against arithmetic that never touches the array code.
"""

import math

import numpy as np
import pytest

from geoflow import (
    Field,
    GridSpec,
    NoConvergence,
    ParabolicCylinder,
    SolverConfig,
    SphereTarget,
    SpaceTimeField,
    TimeLadder,
    caloric_extension,
    cylinder_gradient_square,
    duhamel_heat,
    hmflow,
    solution_norm,
    unit_deviation,
)
from geoflow.families import forcing_family, oscillatory_angle
from geoflow.grid import NonFiniteValues
from geoflow.hmflow import picard_map, time_march
from geoflow.norms import _time_index


def circle_data(grid, amplitude):
    """(cos th, sin th) with th = amplitude sin x1; exact flow decays th."""
    x1 = grid.coordinates()[0]
    theta = amplitude * np.sin(2.0 * np.pi * x1 / grid.period)
    return Field.from_cube(grid, np.stack([np.cos(theta), np.sin(theta)], axis=-1))


def circle_exact(grid, ladder, amplitude, ambient=2):
    x1 = grid.coordinates()[0].reshape(grid.sites)
    k = 2.0 * np.pi / grid.period
    theta = amplitude * np.exp(-k * k * ladder.times)[:, None] * np.sin(k * x1)[None, :]
    comps = [np.cos(theta), np.sin(theta)] + [np.zeros_like(theta)] * (ambient - 2)
    return np.stack(comps, axis=-1)


# ---------------------------------------------------------------------------
# Fixed-point map.
# ---------------------------------------------------------------------------


def test_picard_map_fixes_slice_zero(grid2d, ladder):
    u0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    u = caloric_extension(u0, ladder)
    out = picard_map(u, u0)
    assert np.array_equal(out.values[0], u0.values)


def test_picard_map_rejects_mismatched_data(grid2d, ladder):
    u0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    u = caloric_extension(u0, ladder)
    with pytest.raises(ValueError):
        picard_map(u, oscillatory_angle(grid2d, 0.3, 1, 2))


def test_picard_response_matches_per_mode_recursion(grid1d):
    """The map's correction term equals a scalar left-endpoint recursion
    applied to each Fourier coefficient of its own forcing."""
    from geoflow.hmflow import _curvature_forcing

    lad = TimeLadder(0.25, 32)
    u0 = circle_data(grid1d, 0.3)
    u = caloric_extension(u0, lad)
    forcing = _curvature_forcing(u.values, grid1d, SphereTarget(2))
    diff = picard_map(u, u0).values - u.values  # duhamel response to forcing

    m = grid1d.points_per_axis
    f_hat = np.fft.fft(forcing, axis=1) / m  # (steps+1, m, 2) coefficients
    d_hat = np.fft.fft(diff, axis=1) / m
    for k in (1, 2, 5):
        lam = float(k * k)
        decay = math.exp(-lam * lad.dt)
        weight = -math.expm1(-lam * lad.dt) / lam
        for comp in range(2):
            w = 0.0 + 0.0j
            for j in range(lad.steps):
                w = decay * w + weight * complex(f_hat[j, k, comp])
                assert abs(w - complex(d_hat[j + 1, k, comp])) <= 1e-13


def test_contraction_on_sampled_pairs(grid2d):
    """Ratios ||T u - T v|| / ||u - v|| stay below one near the extension."""
    lad = TimeLadder(0.25, 32)
    u0 = oscillatory_angle(grid2d, 0.2, 1, 3)
    base = caloric_extension(u0, lad)
    rng = np.random.default_rng(42)
    t_base = picard_map(base, u0)
    for _ in range(3):
        pert = SpaceTimeField(
            grid2d, lad.t_final,
            base.values + 0.02 * rng.standard_normal(base.values.shape),
        )
        num = solution_norm(picard_map(pert, u0) - t_base).value
        den = solution_norm(pert - base).value
        assert num / den < 1.0


# ---------------------------------------------------------------------------
# Solver.
# ---------------------------------------------------------------------------


def test_solve_validates_data(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder)
    with pytest.raises(ValueError):
        hmflow.solve(Field.constant(grid2d, (0.0, 0.0, 1.3)), cfg)
    other = GridSpec(2, 32, grid2d.period)
    with pytest.raises(ValueError):
        hmflow.solve(oscillatory_angle(other, 0.2, 1, 3), cfg)


def test_solver_config_validation(grid2d, ladder):
    with pytest.raises(ValueError):
        SolverConfig(grid2d, ladder, picard_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid2d, ladder, max_iters=1)


def test_constant_data_is_a_fixed_point(grid2d, ladder):
    u0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    res = hmflow.solve(u0, SolverConfig(grid2d, ladder))
    assert res.converged
    assert len(res.increments) == 1 and res.increments[0] <= 1e-14
    assert np.abs(res.solution.values - u0.values[None]).max() <= 1e-13
    assert res.constraint_defect <= 1e-13
    assert res.residual_sup <= 1e-10


def test_circle_flow_matches_exact_solution():
    grid = GridSpec(1, 64, 2.0 * np.pi)
    lad = TimeLadder(0.5, 128)
    res = hmflow.solve(circle_data(grid, 0.2), SolverConfig(grid, lad))
    assert res.converged
    err = np.abs(res.solution.values - circle_exact(grid, lad, 0.2)).max()
    assert err <= 5e-5
    assert res.constraint_defect <= 1e-4


def test_great_circle_flow_in_two_dimensions(grid2d):
    lad = TimeLadder(0.25, 64)
    res = hmflow.solve(oscillatory_angle(grid2d, 0.2, 1, 3), SolverConfig(grid2d, lad))
    assert res.converged
    err = np.abs(res.solution.values - circle_exact(grid2d, lad, 0.2, ambient=3)).max()
    assert err <= 1e-3


def test_increments_decrease_geometrically(grid2d, ladder):
    res = hmflow.solve(oscillatory_angle(grid2d, 0.3, 1, 3), SolverConfig(grid2d, ladder))
    assert res.converged
    # after the startup step every measured ratio is a genuine contraction
    assert all(r < 0.5 for r in res.contraction_estimates[1:])


def test_solution_satisfies_fixed_point_equation(grid2d, ladder):
    u0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    cfg = SolverConfig(grid2d, ladder)
    res = hmflow.solve(u0, cfg)
    gap = solution_norm(picard_map(res.solution, u0) - res.solution).value
    assert gap <= 2.0 * cfg.picard_tol


def test_no_convergence_carries_partial_result(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder, max_iters=2, picard_tol=1e-14)
    with pytest.raises(NoConvergence) as info:
        hmflow.solve(oscillatory_angle(grid2d, 0.4, 1, 3), cfg)
    partial = info.value.result
    assert not partial.converged
    assert len(partial.increments) == 2
    assert math.isinf(partial.residual_sup)


def test_non_finite_iterate_reports_divergence(grid2d, ladder, monkeypatch, nan_on_call):
    monkeypatch.setattr(hmflow, "_curvature_forcing", nan_on_call(hmflow._curvature_forcing, 3))
    cfg = SolverConfig(grid2d, ladder, picard_tol=1e-14)
    with pytest.raises(NoConvergence, match="iteration diverged") as info:
        hmflow.solve(oscillatory_angle(grid2d, 0.4, 1, 3), cfg)
    assert isinstance(info.value.__cause__, NonFiniteValues)
    partial = info.value.result
    assert not partial.converged
    assert len(partial.increments) == 2
    assert math.isinf(partial.residual_sup)


def test_other_value_errors_propagate_through_the_driver(grid2d, ladder, monkeypatch):
    def broken(*args):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(hmflow, "_curvature_forcing", broken)
    with pytest.raises(ValueError, match="shape mismatch"):
        hmflow.solve(oscillatory_angle(grid2d, 0.4, 1, 3), SolverConfig(grid2d, ladder))


# ---------------------------------------------------------------------------
# Independent time marcher.
# ---------------------------------------------------------------------------


def test_march_agrees_with_fixed_point(grid2d, ladder):
    u0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    cfg = SolverConfig(grid2d, ladder)
    res = hmflow.solve(u0, cfg)
    marched = time_march(u0, cfg)
    assert np.abs(marched.values - res.solution.values).max() <= 1e-8


def test_march_renormalized_stays_on_sphere(grid2d, ladder):
    u0 = oscillatory_angle(grid2d, 0.4, 1, 3)
    marched = time_march(u0, SolverConfig(grid2d, ladder), renormalize=True)
    worst = max(
        unit_deviation(Field(grid2d, marched.values[j])) for j in range(ladder.steps + 1)
    )
    assert worst <= 1e-14


def test_flow_residual_refines(grid2d):
    errs = []
    for steps in (32, 64):
        cfg = SolverConfig(grid2d, TimeLadder(0.25, steps))
        res = hmflow.solve(oscillatory_angle(grid2d, 0.3, 1, 3), cfg)
        r = hmflow.flow_residual(res.solution).values
        errs.append(np.sqrt((r[1:-1] ** 2).sum(axis=-1)).max())
    assert errs[0] / errs[1] >= 1.5


# ---------------------------------------------------------------------------
# Continuous dependence and energy structure.
# ---------------------------------------------------------------------------


def test_continuous_dependence_on_data(grid2d):
    cfg = SolverConfig(grid2d, TimeLadder(0.25, 32))
    sol_a = hmflow.solve(oscillatory_angle(grid2d, 0.20, 1, 3), cfg).solution
    sol_b = hmflow.solve(oscillatory_angle(grid2d, 0.25, 1, 3), cfg).solution
    gap = solution_norm(sol_b - sol_a).value
    assert gap <= 4.0 * 0.05


def test_duhamel_energy_inequality(grid2d, ladder_fine):
    """Unit-cylinder gradient energy of a forced heat response sits below
    sup|W|^2 + sup|W| * ||f||_L1, the discrete caloric energy bound."""
    lad = ladder_fine
    tw = np.full(lad.steps + 1, lad.dt)
    tw[0] = tw[-1] = 0.5 * lad.dt
    for seed in range(900, 903):
        f = forcing_family(grid2d, lad, 2, seed=seed)
        w = duhamel_heat(f)
        cyl = ParabolicCylinder(
            (0, 0), 1.0, _time_index(1.0, lad.dt, lad.steps)
        )
        lhs = cylinder_gradient_square(w, cyl) ** 2
        sup_w = float(np.sqrt((w.values**2).sum(axis=2)).max())
        f_l1 = float(
            (tw * np.sqrt((f.values**2).sum(axis=2)).sum(axis=1)).sum()
        ) * grid2d.cell_volume
        assert lhs <= sup_w**2 + sup_w * f_l1


# ---------------------------------------------------------------------------
# Amplitude sweeps.
# ---------------------------------------------------------------------------


def test_sweep_requires_ascending_amplitudes(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder)
    make = lambda a: oscillatory_angle(grid2d, a, 1, 3)
    with pytest.raises(ValueError):
        hmflow.amplitude_sweep(make, (0.2, 0.1), cfg)


def test_sweep_records_small_data_regime(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder)
    make = lambda a: oscillatory_angle(grid2d, a, 1, 3)
    report = hmflow.amplitude_sweep(make, (0.0, 0.1, 0.4), cfg)
    recs = report.records
    assert [r.amplitude for r in recs] == [0.0, 0.1, 0.4]
    assert all(r.converged for r in recs)
    assert report.threshold == 0.4
    # zero data: one trivial iteration, no oscillation, no amplification
    assert recs[0].data_oscillation == 0.0
    assert recs[0].iterations == 1
    assert recs[0].amplification == 0.0
    # contraction factors below one and increasing with amplitude
    assert recs[1].contraction < recs[2].contraction < 1.0
    assert recs[1].data_oscillation < recs[2].data_oscillation
    assert 0.0 < recs[1].amplification < 1.0


def test_sweep_reports_failures_past_threshold(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder, max_iters=6)
    make = lambda a: oscillatory_angle(grid2d, a, 1, 3)
    report = hmflow.amplitude_sweep(make, (0.05, 0.8), cfg)
    first, second = report.records
    assert first.converged and not second.converged
    assert report.threshold == 0.05
    assert second.iterations == 6
    blob = report.to_json()
    assert blob["threshold"] == 0.05
    assert [r["converged"] for r in blob["records"]] == [True, False]
