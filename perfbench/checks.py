"""Correctness checks on the artifacts of one workload call.

Each check reads the files the CLI wrote and compares them with an
independent evaluation made here: the time-marching integrator for the
HMF solve, direct re-evaluation at the reported maximizers for the
scans.  A check fails closed: a missing or malformed artifact, or any
error while checking, is a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from geoflow import cli, hmflow
from geoflow.grid import read_snapshot
from geoflow.heat import caloric_extension
from geoflow.norms import (
    BallSpec,
    ParabolicCylinder,
    ball_oscillation,
    cylinder_gradient_square,
    dyadic_radii,
)

MARCH_TOL = 1e-8  # the verify battery's picard_vs_march bound
DIVERGENCE_TOL = 1e-10
BALL_SAMPLE = 64


def _load(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="ascii"))


def _check_hmf(cfg, out: Path, fail):
    res = _load(out, "solve_hmf.json")["result"]
    fail(res["converged"] is True, "solve did not converge")
    fail(res["increments"][-1] <= cfg.solver().picard_tol, "last increment above picard_tol")
    data = cli.generate_data(cfg.family, cfg.grid, cfg.seed)
    march = hmflow.time_march(data, cfg.solver())
    for j in cfg.options["snapshot_slices"]:
        snap = read_snapshot(out / f"solve_hmf_slice_{j:04d}.dat")
        err = float(np.abs(snap.values - march.values[j]).max())
        fail(err <= MARCH_TOL, f"slice {j} differs from time_march by {err:.3g}")
    return {
        "picard_iters": len(res["increments"]),
        "constraint_defect": res["constraint_defect"],
        "residual_sup": res["residual_sup"],
    }


def _check_lc(cfg, out: Path, fail):
    res = _load(out, "solve_lc.json")["result"]
    fail(res["converged"] is True, "solve did not converge")
    fail(res["increments"][-1] <= cfg.solver().picard_tol, "last increment above picard_tol")
    fail(res["divergence_sup"] <= DIVERGENCE_TOL,
         f"divergence_sup {res['divergence_sup']:.3g} above {DIVERGENCE_TOL:g}")
    return {
        "picard_iters": len(res["increments"]),
        "constraint_defect": res["constraint_defect"],
        "residual_sup": max(res["residual_u_sup"], res["residual_d_sup"]),
    }


def _check_sweep(cfg, out: Path, fail):
    report = _load(out, "sweep.json")["report"]
    records = report["records"]
    amps = [r["amplitude"] for r in records]
    fail(amps == [float(a) for a in cfg.options["amplitudes"]], "records do not follow the config")
    fail(all(a < b for a, b in zip(amps, amps[1:])), "records do not ascend")
    converged = [r for r in records if r["converged"]]
    fail(len(converged) >= 1, "no amplitude converged")
    fail(not records[-1]["converged"], "the top amplitude converged")
    fail(all(r["contraction"] < 1.0 for r in converged), "a converged record has contraction >= 1")
    if converged:
        fail(report["threshold"] == converged[-1]["amplitude"],
             "threshold is not the last converged amplitude")
    rows = (out / "sweep.csv").read_text(encoding="ascii").splitlines()
    fail(len(rows) == len(records) + 1, "sweep.csv rows do not match the records")
    return {"picard_iters": sum(r["iterations"] for r in records)}


def _check_extend(cfg, out: Path, fail):
    report = _load(out, "extend.json")
    data = cli.generate_data(cfg.family, cfg.grid, cfg.seed)
    big_r = cfg.grid.period / 4.0

    bmo = report["data_bmo"]
    best = BallSpec(tuple(bmo["maximizer"]["center"]), bmo["maximizer"]["radius"])
    fail(math.isclose(bmo["value"], ball_oscillation(data, best), rel_tol=1e-12),
         "BMO value is not the oscillation at its maximizer")
    rng = np.random.default_rng(cfg.seed)
    radii = dyadic_radii(cfg.grid, big_r)
    for _ in range(BALL_SAMPLE):
        center = tuple(int(c) for c in rng.integers(0, cfg.grid.points_per_axis, cfg.grid.dim))
        ball = BallSpec(center, radii[int(rng.integers(len(radii)))])
        fail(ball_oscillation(data, ball) <= bmo["value"] * (1 + 1e-12),
             f"ball {ball} oscillates more than the reported BMO value")

    profile = report["vmo_profile"]
    values = [v for _, v in profile]
    fail(all(a <= b for a, b in zip(values, values[1:])), "vmo_profile decreases")
    fail(math.isclose(profile[-1][0], big_r) and values[-1] == bmo["value"],
         "vmo_profile does not end at the BMO value")

    ext = caloric_extension(data, cfg.ladder)
    carl = report["carleson"]
    cyl = carl["maximizer"]
    cyl = ParabolicCylinder(tuple(cyl["center"]), cyl["radius"], cyl["time_index"])
    fail(math.isclose(carl["value"], cylinder_gradient_square(ext, cyl), rel_tol=1e-12),
         "Carleson value is not the cylinder integral at its maximizer")

    slices = cfg.options.get("snapshot_slices", [0, cfg.ladder.steps])
    for j in slices:
        snap = read_snapshot(out / f"extend_slice_{j:04d}.dat")
        fail(np.array_equal(snap.values, ext.values[j]), f"snapshot {j} is not the caloric slice")
    return {}


_CHECKS = {
    "solve-hmf": _check_hmf,
    "solve-lc": _check_lc,
    "sweep": _check_sweep,
    "extend": _check_extend,
}


def check(doc: dict, out: Path, seed: int):
    """Check the artifacts of one call made with ``--seed seed``.

    Returns (failure messages, facts read from the artifacts).
    """
    failures = []

    def fail(ok, message):
        if not ok:
            failures.append(message)

    try:
        cfg = cli.parse_config(doc, doc["kind"], out, seed)
        facts = _CHECKS[doc["kind"]](cfg, Path(out), fail)
    except Exception as err:  # any error while checking fails the call
        failures.append(f"check raised {type(err).__name__}: {err}")
        facts = {}
    return failures, facts
