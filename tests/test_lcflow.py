"""Coupled velocity/director flow: structure, oracles, sweeps.

Two exact regimes anchor the solver.  The cellular flow with a constant
director decays mode-by-mode because its nonlinearity is a pure gradient.
And director data varying along one coordinate only sources a gradient
stress, so the velocity stays at rest and the director reduces to the
harmonic map flow, solved independently by the other module.
"""

import math

import numpy as np
import pytest

from geoflow import (
    Field,
    GridSpec,
    LCState,
    NoConvergence,
    SolverConfig,
    TimeLadder,
    caloric_extension,
    hmflow,
    lcflow,
    solution_norm,
    velocity_norm,
)
from geoflow.families import hedgehog_data, oscillatory_angle, stream_velocity, taylor_green
from geoflow.grid import NonFiniteValues
from geoflow.hmflow import picard_map
from geoflow.lcflow import director_map, divergence_sup, lc_residuals, velocity_map


def rest_state(grid, ladder):
    u0 = Field.constant(grid, (0.0,) * grid.dim)
    d0 = Field.constant(grid, (0.0, 0.0, 1.0))
    return u0, d0, LCState(caloric_extension(u0, ladder), caloric_extension(d0, ladder))


# ---------------------------------------------------------------------------
# State validation and preconditions.
# ---------------------------------------------------------------------------


def test_state_validation(grid2d, ladder):
    u0 = Field.constant(grid2d, (0.0, 0.0))
    d0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    u = caloric_extension(u0, ladder)
    d = caloric_extension(d0, ladder)
    with pytest.raises(ValueError):
        LCState(u, caloric_extension(d0, TimeLadder(0.5, ladder.steps)))
    with pytest.raises(ValueError):
        LCState(u, u)  # director needs 3 components
    with pytest.raises(ValueError):
        LCState(d, d)  # velocity needs n components


def test_solve_preconditions(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder)
    d0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    u0 = Field.constant(grid2d, (0.0, 0.0))
    with pytest.raises(ValueError):  # not divergence-free
        lcflow.solve(oscillatory_angle(grid2d, 0.3), d0, cfg)
    with pytest.raises(ValueError):  # not unit-length
        lcflow.solve(u0, Field.constant(grid2d, (0.0, 0.0, 1.2)), cfg)
    g1 = GridSpec(1, 16, grid2d.period)
    with pytest.raises(ValueError):  # dimension 1 unsupported
        lcflow.solve(
            Field.constant(g1, (0.0,)),
            Field.constant(g1, (0.0, 0.0, 1.0)),
            SolverConfig(g1, ladder),
        )


# ---------------------------------------------------------------------------
# Component maps.
# ---------------------------------------------------------------------------


def test_velocity_map_at_rest_is_zero(grid2d, ladder):
    _, _, state = rest_state(grid2d, ladder)
    out = velocity_map(state, state.u)
    assert np.abs(out.values).max() <= 1e-13


def test_velocity_map_annihilates_gradient_stress(grid2d, ladder):
    """The extended cellular flow's stress has gradient divergence at every
    time slice, so the projected response vanishes."""
    u0 = taylor_green(grid2d, 1.0)
    d0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    state = LCState(caloric_extension(u0, ladder), caloric_extension(d0, ladder))
    out = velocity_map(state, state.u)
    assert np.abs(out.values - state.u.values).max() <= 1e-9


def test_director_map_with_zero_velocity_matches_hm_map(grid2d, ladder):
    """At rest the transport term is identically zero and the director map
    is the harmonic-map fixed-point map, bit for bit."""
    _, _, state = rest_state(grid2d, ladder)
    d0 = oscillatory_angle(grid2d, 0.35, 1, 3)
    ext_d = caloric_extension(d0, ladder)
    state = LCState(state.u, ext_d)
    assert np.array_equal(
        director_map(state, ext_d).values, picard_map(ext_d, ext_d).values
    )


def test_director_map_keeps_constant_director(grid2d, ladder):
    u0 = stream_velocity(grid2d, 0.5, seed=9)
    d0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    state = LCState(caloric_extension(u0, ladder), caloric_extension(d0, ladder))
    out = director_map(state, state.d)
    assert np.abs(out.values - d0.values[None]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Solver.
# ---------------------------------------------------------------------------


def test_rest_state_is_a_fixed_point(grid2d, ladder):
    u0, d0, _ = rest_state(grid2d, ladder)
    res = lcflow.solve(u0, d0, SolverConfig(grid2d, ladder))
    assert res.converged
    assert len(res.increments) == 1
    assert np.abs(res.state.u.values).max() <= 1e-13
    assert np.abs(res.state.d.values - d0.values[None]).max() <= 1e-13
    assert res.constraint_defect <= 1e-13
    assert res.divergence_sup <= 1e-13


def test_cellular_flow_exact_decay(grid2d):
    """u = e^{-2t} (sin x cos y, -cos x sin y), d constant: exact solution."""
    lad = TimeLadder(0.25, 64)
    u0 = taylor_green(grid2d, 1.0)
    d0 = Field.constant(grid2d, (0.0, 0.0, 1.0))
    res = lcflow.solve(u0, d0, SolverConfig(grid2d, lad))
    assert res.converged
    exact = np.exp(-2.0 * lad.times)[:, None, None] * u0.values[None]
    assert np.abs(res.state.u.values - exact).max() <= 1e-12
    assert np.abs(res.state.d.values - d0.values[None]).max() <= 1e-12


def test_rest_velocity_reduces_to_harmonic_map_flow(grid2d):
    """Director varying in x1 only: the stress divergence is a gradient, the
    velocity never wakes up, and d solves the harmonic map flow."""
    lad = TimeLadder(0.25, 32)
    cfg = SolverConfig(grid2d, lad)
    u0 = Field.constant(grid2d, (0.0, 0.0))
    d0 = oscillatory_angle(grid2d, 0.35, 1, 3)
    res = lcflow.solve(u0, d0, cfg)
    assert res.converged
    assert np.abs(res.state.u.values).max() <= 1e-8
    hm = hmflow.solve(d0, cfg)
    assert np.abs(res.state.d.values - hm.solution.values).max() <= 1e-8


def test_solution_is_divergence_free_and_near_unit(grid2d):
    lad = TimeLadder(0.25, 64)
    u0 = stream_velocity(grid2d, 0.2, seed=7)
    d0 = oscillatory_angle(grid2d, 0.35, 1, 3)
    res = lcflow.solve(u0, d0, SolverConfig(grid2d, lad))
    assert res.converged
    assert res.divergence_sup <= 1e-10
    assert res.constraint_defect <= 1e-3
    assert res.residual_u_sup < math.inf
    blob = res.to_json()
    assert blob["converged"] is True
    assert blob["divergence_sup"] == res.divergence_sup


def test_solution_satisfies_both_fixed_point_equations(grid2d):
    lad = TimeLadder(0.25, 64)
    cfg = SolverConfig(grid2d, lad)
    u0 = stream_velocity(grid2d, 0.1, seed=11)
    d0 = oscillatory_angle(grid2d, 0.35, 1, 3)
    res = lcflow.solve(u0, d0, cfg)
    ext_u, ext_d = caloric_extension(u0, lad), caloric_extension(d0, lad)
    du = velocity_norm(velocity_map(res.state, ext_u) - res.state.u).value
    dd = solution_norm(director_map(res.state, ext_d) - res.state.d).value
    assert du + dd <= 2.0 * cfg.picard_tol


def test_increments_contract(grid2d, ladder):
    u0 = stream_velocity(grid2d, 0.3, seed=13)
    d0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    res = lcflow.solve(u0, d0, SolverConfig(grid2d, ladder))
    assert res.converged
    assert all(r < 1.0 for r in res.contraction_estimates)


def test_no_convergence_carries_partial_result(grid2d, ladder):
    cfg = SolverConfig(grid2d, ladder, max_iters=2, picard_tol=1e-14)
    u0 = stream_velocity(grid2d, 0.3, seed=13)
    d0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    with pytest.raises(NoConvergence) as info:
        lcflow.solve(u0, d0, cfg)
    partial = info.value.result
    assert not partial.converged
    assert math.isinf(partial.residual_u_sup)
    assert len(partial.increments) == 2


def test_non_finite_iterate_reports_divergence(grid2d, ladder, monkeypatch, nan_on_call):
    monkeypatch.setattr(lcflow, "_stress_forcing", nan_on_call(lcflow._stress_forcing, 3))
    cfg = SolverConfig(grid2d, ladder, picard_tol=1e-14)
    u0 = stream_velocity(grid2d, 0.3, seed=13)
    d0 = oscillatory_angle(grid2d, 0.3, 1, 3)
    with pytest.raises(NoConvergence, match="iteration diverged") as info:
        lcflow.solve(u0, d0, cfg)
    assert isinstance(info.value.__cause__, NonFiniteValues)
    partial = info.value.result
    assert not partial.converged
    assert len(partial.increments) == 2
    assert math.isinf(partial.residual_u_sup)
    assert math.isinf(partial.residual_d_sup)


def test_residuals_refine_with_the_ladder(grid2d):
    sups = []
    for steps in (32, 64):
        cfg = SolverConfig(grid2d, TimeLadder(0.25, steps))
        res = lcflow.solve(
            stream_velocity(grid2d, 0.2, seed=7),
            oscillatory_angle(grid2d, 0.35, 1, 3),
            cfg,
        )
        r_u, r_d = lc_residuals(res.state)
        sups.append(
            (
                np.sqrt((r_u.values[1:-1] ** 2).sum(axis=-1)).max(),
                np.sqrt((r_d.values[1:-1] ** 2).sum(axis=-1)).max(),
            )
        )
    assert sups[0][0] / sups[1][0] >= 1.5
    assert sups[0][1] / sups[1][1] >= 1.5


def test_three_dimensional_solve(grid3d):
    lad = TimeLadder(0.1, 16)
    u0 = stream_velocity(grid3d, 0.1, seed=3)
    res = lcflow.solve(u0, oscillatory_angle(grid3d, 0.2, 1, 3), SolverConfig(grid3d, lad))
    assert res.converged
    assert res.divergence_sup <= 1e-10
    assert res.constraint_defect <= 1e-3
    # fully three-dimensional director data, looser bound at this resolution
    res2 = lcflow.solve(u0, hedgehog_data(grid3d, 0.1, seed=5), SolverConfig(grid3d, lad))
    assert res2.converged
    assert res2.constraint_defect <= 1e-2


# ---------------------------------------------------------------------------
# Amplitude sweep.
# ---------------------------------------------------------------------------


def test_lc_sweep_small_data_regime(grid2d):
    lad = TimeLadder(0.25, 64)
    cfg = SolverConfig(grid2d, lad)

    def make(a):
        return stream_velocity(grid2d, 0.5 * a, seed=11), oscillatory_angle(grid2d, a, 1, 3)

    report = lcflow.amplitude_sweep(make, (0.0, 0.1, 0.4), cfg)
    recs = report.records
    assert all(r.converged for r in recs)
    assert report.threshold == 0.4
    assert recs[0].iterations == 1
    assert recs[0].amplification == 0.0
    assert 0.0 <= recs[1].contraction < recs[2].contraction < 1.0
    assert 0.0 < recs[1].amplification < 1.0
    assert 0.0 < recs[2].amplification < 1.0
    with pytest.raises(ValueError):
        lcflow.amplitude_sweep(make, (0.4, 0.1), cfg)


def test_divergence_sup_measures_violations(grid2d, ladder):
    vals = np.zeros((ladder.steps + 1, grid2d.sites, 2))
    x = grid2d.coordinates()[0].reshape(grid2d.sites)
    vals[:, :, 0] = np.sin(x)[None, :]  # div = cos x, sup 1
    from geoflow import SpaceTimeField

    u = SpaceTimeField(grid2d, ladder.t_final, vals)
    assert divergence_sup(u) == pytest.approx(1.0, abs=1e-12)
