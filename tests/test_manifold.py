"""Sphere-target kernels: radial projection, defect, curvature term.

The curvature kernel is the negated second derivative of the radial
projection.  That derivative is recomputed here by high-precision central
differences (mpmath, 40 digits), so the closed-form kernel is checked
against an implementation that shares none of its algebra.
"""

import numpy as np
import pytest
from mpmath import mp

from geoflow import (
    Field,
    GridSpec,
    SolverConfig,
    SphereTarget,
    TimeLadder,
    TubeEscape,
    apply_second_fundamental_form,
    defect_field,
    distance_energy_field,
    project_field,
    spectral_gradient,
    subharmonicity_residual,
    unit_deviation,
)
from geoflow import hmflow
from geoflow.families import oscillatory_angle


# ---------------------------------------------------------------------------
# Oracle: finite-difference Hessian of the radial projection.
# ---------------------------------------------------------------------------


def _mp_project(y):
    norm = mp.sqrt(sum(c * c for c in y))
    return [c / norm for c in y]


def fd_projection_hessian(y, v, w, eps="1e-5"):
    """D^2 Pi(y)(v, w) by 4-point central differences at 40 digits."""
    with mp.workdps(40):
        e = mp.mpf(eps)
        y = [mp.mpf(c) for c in y]
        v = [mp.mpf(c) for c in v]
        w = [mp.mpf(c) for c in w]

        def at(sv, sw):
            return _mp_project([a + sv * e * b + sw * e * c for a, b, c in zip(y, v, w)])

        pp, pm, mP, mm = at(1, 1), at(1, -1), at(-1, 1), at(-1, -1)
        return np.array(
            [float((a - b - c + d) / (4 * e * e)) for a, b, c, d in zip(pp, pm, mP, mm)]
        )


@pytest.mark.parametrize("scale", [0.6, 1.0, 1.4])
def test_curvature_kernel_matches_fd_hessian(scale):
    rng = np.random.default_rng(40)
    tgt = SphereTarget(3)
    for _ in range(4):
        y = rng.standard_normal(3)
        y *= scale / np.linalg.norm(y)
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        lib = tgt.second_fundamental_form(y, v, w)
        oracle = -fd_projection_hessian(y, v, w)
        assert np.abs(lib - oracle).max() <= 1e-7


def test_curvature_kernel_matches_fd_hessian_ambient_two():
    rng = np.random.default_rng(41)
    tgt = SphereTarget(2)
    y = rng.standard_normal(2)
    y /= np.linalg.norm(y)
    v, w = rng.standard_normal(2), rng.standard_normal(2)
    assert np.abs(tgt.second_fundamental_form(y, v, w) + fd_projection_hessian(y, v, w)).max() <= 1e-7


# ---------------------------------------------------------------------------
# Projection, defect, distance energy.
# ---------------------------------------------------------------------------


def test_target_validation():
    with pytest.raises(ValueError):
        SphereTarget(1)


def test_projection_examples():
    tgt = SphereTarget(3)
    assert np.allclose(tgt.project([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(tgt.project([0.3, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)
    u = np.array([0.6, 0.8, 0.0])
    assert np.abs(tgt.project(u) - u).max() <= 1e-15


def test_projection_idempotent_and_unit():
    rng = np.random.default_rng(42)
    tgt = SphereTarget(3)
    y = rng.standard_normal((50, 3)) + np.array([2.0, 0.0, 0.0])
    p = tgt.project(y)
    assert np.abs(np.sqrt((p**2).sum(axis=1)) - 1.0).max() <= 1e-15
    assert np.abs(tgt.project(p) - p).max() <= 1e-15


def test_tube_escape_below_floor():
    tgt = SphereTarget(3)
    with pytest.raises(TubeEscape) as info:
        tgt.project([0.1, 0.0, 0.0])
    assert info.value.min_norm == pytest.approx(0.1)
    tgt.project([0.26, 0.0, 0.0])  # just above the floor: fine


def test_wrong_component_count_rejected():
    with pytest.raises(ValueError):
        SphereTarget(3).project([1.0, 0.0])


def test_defect_and_distance_energy_closed_forms():
    rng = np.random.default_rng(43)
    tgt = SphereTarget(3)
    y = rng.standard_normal((40, 3)) * 0.3 + np.array([1.5, 0.0, 0.0])
    q = tgt.defect(y)
    norm = np.sqrt((y**2).sum(axis=1))
    assert np.abs(q - y * (1.0 - 1.0 / norm)[:, None]).max() <= 1e-15
    # defect is radial: zero cross component against y
    cross = q - ((q * y).sum(axis=1) / norm**2)[:, None] * y
    assert np.abs(cross).max() <= 1e-14
    rho = tgt.distance_energy(y)
    assert np.abs(rho - 0.5 * (norm - 1.0) ** 2).max() <= 1e-15
    assert np.abs(rho - 0.5 * (q**2).sum(axis=1)).max() <= 1e-13


# ---------------------------------------------------------------------------
# Curvature kernel algebra.
# ---------------------------------------------------------------------------


def test_curvature_kernel_symmetric_and_bilinear():
    rng = np.random.default_rng(44)
    tgt = SphereTarget(3)
    y = rng.standard_normal(3) + np.array([2.0, 0.0, 0.0])
    u, v, w = (rng.standard_normal(3) for _ in range(3))
    sym = tgt.second_fundamental_form(y, v, w) - tgt.second_fundamental_form(y, w, v)
    assert np.abs(sym).max() <= 1e-15
    combo = tgt.second_fundamental_form(y, 2.0 * v + 3.0 * u, w)
    parts = 2.0 * tgt.second_fundamental_form(y, v, w) + 3.0 * tgt.second_fundamental_form(y, u, w)
    assert np.abs(combo - parts).max() <= 1e-13 * max(np.abs(parts).max(), 1.0)


def test_curvature_kernel_on_sphere_tangents():
    """On the sphere with tangent arguments: A(y)(v, w) = (v.w) y."""
    rng = np.random.default_rng(45)
    tgt = SphereTarget(3)
    y = rng.standard_normal(3)
    y /= np.linalg.norm(y)
    v = rng.standard_normal(3)
    v -= (v @ y) * y
    w = rng.standard_normal(3)
    w -= (w @ y) * y
    out = tgt.second_fundamental_form(y, v, w)
    assert np.abs(out - (v @ w) * y).max() <= 1e-12
    out_vv = tgt.second_fundamental_form(y, v, v)
    assert np.abs(out_vv - (v @ v) * y).max() <= 1e-12


def test_gradient_quadratic_sums_the_bilinear_kernel():
    rng = np.random.default_rng(46)
    tgt = SphereTarget(3)
    y = rng.standard_normal((20, 3)) * 0.2 + np.array([1.0, 0.2, 0.0])
    stack = rng.standard_normal((20, 2, 3))
    total = tgt.gradient_quadratic(y, stack)
    by_parts = sum(
        tgt.second_fundamental_form(y, stack[:, i], stack[:, i]) for i in range(2)
    )
    assert np.abs(total - by_parts).max() <= 1e-12 * max(np.abs(by_parts).max(), 1.0)


# ---------------------------------------------------------------------------
# Field-level wrappers.
# ---------------------------------------------------------------------------


def test_apply_curvature_constant_field_vanishes(grid2d):
    u = Field.constant(grid2d, (0.0, 0.0, 1.0))
    out = apply_second_fundamental_form(SphereTarget(3), u, spectral_gradient(u))
    assert out.sup_norm() <= 1e-13


def test_apply_curvature_rejects_mismatched_gradient(grid2d):
    u = Field.constant(grid2d, (0.0, 0.0, 1.0))
    bad = Field.constant(grid2d, tuple(np.zeros(5)))
    with pytest.raises(ValueError):
        apply_second_fundamental_form(SphereTarget(3), u, bad)


def test_circle_map_curvature_reduction(grid1d):
    """u = (cos th, sin th): with the hand-built gradient stack the kernel
    returns |th'|^2 u exactly up to roundoff."""
    x = grid1d.coordinates()[0].ravel()
    theta = 0.3 * np.sin(x)
    dtheta = 0.3 * np.cos(x)
    u = Field(grid1d, np.stack([np.cos(theta), np.sin(theta)], axis=1))
    stack = np.stack([-dtheta * np.sin(theta), dtheta * np.cos(theta)], axis=1)[:, None, :]
    out = SphereTarget(2).gradient_quadratic(u.values, stack)
    assert np.abs(out - dtheta[:, None] ** 2 * u.values).max() <= 1e-12
    # same through the spectral gradient wrapper, up to spectral accuracy
    out2 = apply_second_fundamental_form(SphereTarget(2), u, spectral_gradient(u))
    assert np.abs(out2.values - dtheta[:, None] ** 2 * u.values).max() <= 1e-10


def test_field_wrappers_and_unit_deviation(grid2d):
    tgt = SphereTarget(3)
    raw = Field.constant(grid2d, (0.0, 0.0, 1.25))
    proj = project_field(tgt, raw)
    assert np.abs(proj.values - np.array([0.0, 0.0, 1.0])).max() <= 1e-15
    assert unit_deviation(raw) == pytest.approx(0.25, abs=1e-15)
    assert unit_deviation(proj) <= 1e-15
    assert defect_field(tgt, raw).sup_norm() == pytest.approx(0.25, abs=1e-15)
    rho = distance_energy_field(tgt, raw)
    assert rho.components == 1
    assert rho.sup_norm() == pytest.approx(0.03125, abs=1e-15)


# ---------------------------------------------------------------------------
# Subharmonicity of the distance energy along computed flows.
# ---------------------------------------------------------------------------


def test_subharmonicity_residual_vanishes_on_sphere_valued(grid2d, ladder):
    vals = np.tile(np.array([0.0, 0.0, 1.0]), (ladder.steps + 1, grid2d.sites, 1))
    from geoflow import SpaceTimeField

    resid = subharmonicity_residual(SphereTarget(3), SpaceTimeField(grid2d, ladder.t_final, vals))
    assert np.abs(resid.values).max() <= 1e-12


def test_subharmonicity_residual_refines_along_flow(grid2d):
    """Along computed flows the residual shrinks at second order in dt, and
    the distance-energy sup stays monotone up to roundoff."""
    tgt = SphereTarget(3)
    sups, viol = [], []
    for steps in (32, 64, 128):
        cfg = SolverConfig(grid2d, TimeLadder(0.25, steps))
        res = hmflow.solve(oscillatory_angle(grid2d, 0.35, 1, 3), cfg)
        assert res.converged
        resid = subharmonicity_residual(tgt, res.solution)
        sups.append(np.abs(resid.values).max())
        rho_sup = tgt.distance_energy(res.solution.values).max(axis=1)
        viol.append(float(np.diff(rho_sup).max()))
    assert sups[0] / sups[1] >= 3.0
    assert sups[1] / sups[2] >= 3.0
    assert max(viol) <= 1e-8
