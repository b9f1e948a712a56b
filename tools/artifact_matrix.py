"""Run a fixed matrix of geoflow CLI experiments and the demos against one source tree.

Usage (from the repository root):

    python3 tools/artifact_matrix.py TREE OUT

TREE is a checkout of this repository (its ``src/`` is what runs); OUT is
an empty or missing directory.  Each run gets ``OUT/<run>/`` holding the
artifacts the CLI wrote plus ``exit_code.txt``, ``stdout.txt`` and
``stderr.txt``; the configs go to ``OUT/configs/``.  Each of TREE's
``demos/*.py`` gets ``OUT/demo-<name>/`` with the same three files.  The configs come from
this checkout's ``perfbench/workloads.py``, so two trees run the same
documents.  A refactor that claims unchanged arithmetic shows it with

    diff -r OUT_PARENT OUT_CHANGE

which must print nothing.  The runs cover the four benchmark workloads at
seeds 0 and 1, LC solves in 2-D (three snapshots) and 3-D, an LC sweep
whose top amplitude leaves the tube, an HMF solve cut off at three
iterations (exit code 2), an HMF solve of 2-D ``hedgehog`` data at
amplitude 2 that leaves the tube (exit code 1; ``stderr.txt`` holds the
smallest |u| it reports), ``norms``, four 2-D ``extend`` runs that
between them reach the ``oscillatory`` and ``taylor-green`` families and
the defaults of ``angle`` and ``modes``, a 1-D ``modes`` ``extend``, a
3-D ``oscillatory`` ``extend`` (its angle depends on x_0 alone, so many
ball centers tie), and ``verify``; the five demos follow them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from workloads import TWO_PI, WORKLOADS, config_for  # noqa: E402


def _config(dim, points, steps, t_final, family, options=None):
    doc = {
        "grid": {"dim": dim, "points_per_axis": points, "period": TWO_PI},
        "ladder": {"t_final": t_final, "steps": steps},
        "seed": 5,
        "family": family,
    }
    if options is not None:
        doc["options"] = options
    return doc


def _lc_family(amplitude):
    return {
        "velocity": {"name": "stream", "amplitude": amplitude},
        "director": {"name": "hedgehog", "amplitude": amplitude},
    }


def matrix():
    """(run name, CLI kind, config document) for every run, in order."""
    runs = []
    for name, spec in WORKLOADS.items():
        for seed in (0, 1):
            runs.append((f"{name}-seed{seed}", spec["kind"], config_for(name, seed)))
    lc_snap = config_for("lc-2d", 2)
    lc_snap["options"] = {"snapshot_slices": [0, 8, 16]}
    runs.append(("lc-snapshots", "solve-lc", lc_snap))
    runs.append(("lc-3d", "solve-lc", _config(3, 8, 16, 0.1, _lc_family(0.1))))
    lc_sweep = _config(2, 16, 16, 0.25, _lc_family(0.3), {"flow": "lc", "amplitudes": [0.3, 2.0]})
    runs.append(("lc-sweep-escape", "sweep", lc_sweep))
    capped = config_for("hmf-2d", 3)
    capped["solver"] = {"picard_tol": 1e-14, "max_iters": 3}
    runs.append(("hmf-max-iters", "solve-hmf", capped))
    escape = _config(2, 16, 16, 0.25, {"name": "hedgehog", "amplitude": 2.0})
    runs.append(("hmf-tube-escape", "solve-hmf", escape))
    norms = _config(2, 16, 32, 0.25, {"name": "modes", "amplitude": 0.5}, {"count": 3})
    runs.append(("norms", "norms", norms))
    for name, family in (
        ("oscillatory",
         {"name": "oscillatory", "amplitude": 0.4, "wavenumber": 2, "ambient_dim": 3}),
        ("taylor-green", {"name": "taylor-green", "amplitude": 0.5}),
        ("angle-defaults", {"name": "angle"}),
        ("modes-defaults", {"name": "modes"}),
    ):
        runs.append((f"extend-{name}", "extend", _config(2, 16, 16, 0.25, family)))
    runs.append(("extend-modes-1d", "extend",
                 _config(1, 64, 16, 0.25, {"name": "modes", "amplitude": 0.5, "components": 2})))
    runs.append(("extend-oscillatory-3d", "extend",
                 _config(3, 16, 16, 0.25, {"name": "oscillatory", "amplitude": 0.4,
                                           "wavenumber": 2, "ambient_dim": 3})))
    runs.append(("verify", "verify", None))
    return runs


def _record(run_dir, out, cmd, env):
    """Run one command from OUT and keep its printed output and exit code in run_dir."""
    run_dir.mkdir(exist_ok=True)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=out)
    # absolute paths differ between the two trees' outputs; name them relatively
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        (run_dir / f"{stream}.txt").write_text(text.replace(str(out), "OUT"), encoding="utf-8")
    (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="ascii")
    print(f"{run_dir.name}: exit {proc.returncode}")


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/artifact_matrix.py TREE OUT", file=sys.stderr)
        return 1
    tree, out = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    if not (tree / "src" / "geoflow" / "cli.py").is_file():
        print(f"error: no geoflow sources under {tree / 'src'}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run([sys.executable, "-c", "import geoflow; print(geoflow.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(tree / "src"):
        print(f"error: geoflow imports from {where.strip()}, not from TREE", file=sys.stderr)
        return 1
    (out / "configs").mkdir(parents=True, exist_ok=True)
    for name, kind, doc in matrix():
        cmd = [sys.executable, "-m", "geoflow.cli", kind, "--out", str(out / name / "artifacts")]
        if doc is not None:
            cfg = out / "configs" / f"{name}.json"
            cfg.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
            cmd += ["--config", str(cfg)]
        _record(out / name, out, cmd, env)
    for demo in sorted((tree / "demos").glob("*.py")):
        _record(out / f"demo-{demo.stem}", out, [sys.executable, str(demo)], env)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
