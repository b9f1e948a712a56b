"""The benchmark's workloads: geoflow CLI experiment configs built from a seed.

Each workload is one ``geoflow <kind>`` config, run as a user runs it.
Each call's seed is derived from the benchmark seed (run.py) and passed
as the CLI's ``--seed``; the data families draw their coefficients from
it, so the same benchmark seed gives the same inputs.
Why each workload is here, and what was left out, is in README.md.
Sizes are cut from the full-size experiments (ladder steps, 3-D grid) so
that one call takes 0.5-2.5 s on a 2-core machine and a 30 s run makes
8 to 20 fresh-process calls.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def _grid(dim, points):
    return {"dim": dim, "points_per_axis": points, "period": TWO_PI}


WORKLOADS = {
    "hmf-2d": {
        "kind": "solve-hmf",
        "config": {
            "grid": _grid(2, 64),
            "ladder": {"t_final": 0.25, "steps": 16},
            "family": {"name": "angle", "amplitude": 0.3},
            "solver": {"picard_tol": 1e-10},
            "options": {"snapshot_slices": [16]},
        },
    },
    "lc-2d": {
        "kind": "solve-lc",
        "config": {
            "grid": _grid(2, 32),
            "ladder": {"t_final": 0.25, "steps": 16},
            "family": {
                "velocity": {"name": "stream", "amplitude": 0.2},
                "director": {"name": "hedgehog", "amplitude": 0.3},
            },
            "solver": {"picard_tol": 1e-10},
        },
    },
    "hmf-sweep": {
        "kind": "sweep",
        "config": {
            "grid": _grid(2, 32),
            "ladder": {"t_final": 0.25, "steps": 16},
            "family": {"name": "angle", "amplitude": 0.3},
            "solver": {"picard_tol": 1e-10},
            "options": {"flow": "hmf", "amplitudes": [0.3, 1.2, 3.2]},
        },
    },
    "scan-3d": {
        "kind": "extend",
        "config": {
            "grid": _grid(3, 16),
            "ladder": {"t_final": 0.25, "steps": 64},
            "family": {"name": "hedgehog", "amplitude": 0.3},
        },
    },
}


def config_for(name: str, seed: int) -> dict:
    """The full config document of a workload, with the seed filled in."""
    spec = WORKLOADS[name]
    doc = {"kind": spec["kind"], "seed": int(seed)}
    doc.update(spec["config"])
    return doc
