"""Command-line runner: config validation, artifacts, determinism, exit codes.

Everything drives ``main(argv)`` in process.  Configs are written to
temporary JSON files; artifacts land in per-test output directories.
"""

import inspect
import json

import numpy as np
import pytest

from geoflow import (
    families,
    Field,
    GridSpec,
    SolverConfig,
    TimeLadder,
    caloric_extension,
    hmflow,
    read_snapshot,
    spectral_divergence,
    unit_deviation,
)
from geoflow.cli import (
    _FAMILIES,
    NORMS_COLUMNS,
    VERIFY_COLUMNS,
    ConfigError,
    generate_data,
    main,
    parse_config,
)

GRID = {"dim": 2, "points_per_axis": 16, "period": 6.283185307179586}
LADDER = {"t_final": 0.25, "steps": 32}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="ascii")
    return path


def base_config(kind=None, **overrides):
    doc = {"grid": dict(GRID), "ladder": dict(LADDER), "seed": 3}
    if kind is not None:
        doc["kind"] = kind
    doc.update(overrides)
    return doc


def read_rows(path):
    header, *rows = path.read_text(encoding="ascii").strip().split("\n")
    return header.split(","), [r.split(",") for r in rows]


# ---------------------------------------------------------------------------
# Config validation (fail closed).
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = write_config(tmp_path, base_config(extra=1, family={"name": "taylor-green"}))
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_kind_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, base_config(kind="norms", family={"name": "taylor-green"}))
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_missing_required_key_rejected(tmp_path):
    doc = base_config(family={"name": "taylor-green"})
    del doc["seed"]
    cfg = write_config(tmp_path, doc)
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_unknown_family_key_rejected(tmp_path):
    cfg = write_config(
        tmp_path, base_config(family={"name": "taylor-green", "seed": 1})
    )
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_unknown_option_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(family={"name": "taylor-green"}, options={"bogus": True}),
    )
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    cfg = write_config(
        tmp_path,
        base_config(family={"name": "taylor-green"}, solver={"constraint_tol": 1e-6}),
    )
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "kind, overrides",
    [
        ("solve-hmf", {"grid": dict(GRID, points_per_axis=None)}),
        ("solve-hmf", {"solver": {"picard_tol": "x"}}),
        ("solve-hmf", {"options": {"snapshot_slices": 3}}),
        ("solve-hmf", {"family": {"name": "oscillatory", "amplitude": [1]}}),
        ("solve-hmf", {"grid": dict(GRID, points_per_axis=16.9)}),
        ("solve-hmf", {"grid": dict(GRID, dim=True)}),
        ("solve-hmf", {"family": {"name": "hedgehog", "amplitude": 0.3, "kmax": 2.5}}),
        ("solve-hmf", {"family": {"name": "modes", "components": "3"}}),
        ("solve-hmf", {"ladder": dict(LADDER, steps="1e400")}),
        ("solve-hmf", {"grid": dict(GRID, period="Infinity")}),
        ("solve-hmf", {"ladder": dict(LADDER, t_final="Infinity")}),
        ("solve-hmf", {"solver": {"picard_tol": "Infinity"}}),
        ("solve-hmf", {"solver": {"picard_tol": True}}),
        ("solve-hmf", {"solver": {"max_iters": 2.5}}),
        ("solve-hmf", {"seed": 3.5}),
        ("solve-hmf", {"options": {"snapshot_slices": [1.9]}}),
        ("norms", {"options": {"count": 2.5}}),
        ("norms", {"options": {"count": 0}}),
        ("sweep", {"options": {"amplitudes": [0.1, "x"]}}),
    ],
    ids=[
        "null-points", "string-tol", "scalar-slices", "list-amplitude",
        "fractional-points", "bool-dim", "fractional-kmax", "string-components",
        "overflowing-steps", "infinite-period", "infinite-t-final", "infinite-tol",
        "bool-tol", "fractional-max-iters", "fractional-seed", "fractional-slice",
        "fractional-count", "zero-count", "string-amplitude",
    ],
)
def test_wrongly_typed_values_exit_one_with_a_diagnostic(tmp_path, capsys, kind, overrides):
    """Each document exits 1 with one diagnostic line, before the output directory is made.

    The quoted "1e400" and "Infinity" are written as bare JSON numbers, which
    the parser reads as infinity.
    """
    doc = base_config(kind=kind, family={"name": "oscillatory", "amplitude": 0.3})
    doc.update(overrides)
    text = json.dumps(doc).replace('"1e400"', "1e400").replace('"Infinity"', "Infinity")
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="ascii")
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_snapshot_slice_outside_the_ladder_rejected_before_any_work(tmp_path):
    family = {"name": "oscillatory", "amplitude": 0.3, "ambient_dim": 3}
    cfg = write_config(
        tmp_path, base_config(kind="solve-hmf", family=family, options={"snapshot_slices": [999]})
    )
    out = tmp_path / "out"
    assert main(["solve-hmf", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists() or not any(out.iterdir())


def test_verify_takes_no_family():
    """verify builds its own grids, so no config value reaches it: every document is refused."""
    doc = base_config(
        grid=dict(GRID, dim=3), family=[], seed=12345, solver={"picard_tol": 0.5, "max_iters": 7}
    )
    for document in (doc, base_config(family={"name": "modes"})):
        with pytest.raises(ConfigError):
            parse_config(document, "verify", "out")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-hmf", "--out", "o"],
        ["bogus", "--out", "o"],
        ["verify", "--out", "o", "--seed", "3"],
        ["verify", "--out", "o", "--config", "c.json"],
        ["extend", "--config", "c.json", "--out", "o", "--seed", "abc"],
    ],
    ids=["no-config", "unknown-kind", "verify-seed", "verify-config", "string-seed"],
)
def test_usage_errors_exit_one_with_a_diagnostic(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["extend", "norms"])
@pytest.mark.parametrize(
    "solver", [{"picard_tol": 0.5}, {"max_iters": 7}, {}], ids=["picard-tol", "max-iters", "empty"]
)
def test_kinds_that_solve_nothing_reject_solver(tmp_path, capsys, kind, solver):
    cfg = write_config(tmp_path, base_config(kind=kind, family={"name": "modes"}, solver=solver))
    out = tmp_path / "o"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_family_table_names_functions_that_take_its_keys():
    for name, (function, integers, seeded) in _FAMILIES.items():
        params = inspect.signature(getattr(families, function)).parameters
        assert {"amplitude", *integers} <= set(params), name
        assert ("seed" in params) == seeded, name


def test_parse_config_round_trips():
    doc = base_config(
        kind="solve-hmf",
        family={"name": "oscillatory", "amplitude": 0.3, "ambient_dim": 3},
        solver={"max_iters": 30},
    )
    cfg = parse_config(doc, "solve-hmf", "out")
    assert cfg.grid == GridSpec(2, 16, GRID["period"])
    assert cfg.ladder == TimeLadder(0.25, 32)
    assert cfg.solver().max_iters == 30
    blob = cfg.to_json()
    assert blob["kind"] == "solve-hmf"
    assert blob["family"]["amplitude"] == 0.3
    assert parse_config(doc, "solve-hmf", "out", seed_override=9).seed == 9


def test_generate_data_postconditions(grid2d):
    u = generate_data({"name": "stream", "amplitude": 0.5}, grid2d, seed=3)
    assert spectral_divergence(u).sup_norm() <= 1e-12
    d = generate_data({"name": "hedgehog", "amplitude": 0.3}, grid2d, seed=3)
    assert unit_deviation(d) <= 1e-12
    o = generate_data({"name": "oscillatory", "amplitude": 0.4, "ambient_dim": 3}, grid2d, 0)
    assert unit_deviation(o) <= 1e-15
    m = generate_data({"name": "modes", "components": 4}, grid2d, seed=5)
    assert m.components == 4
    assert generate_data({"name": "modes"}, grid2d, seed=5).components == 1


# ---------------------------------------------------------------------------
# Experiment runs and artifacts.
# ---------------------------------------------------------------------------


def test_extend_writes_snapshots_and_report(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kind="extend",
            family={"name": "modes", "components": 2},
            options={"snapshot_slices": [0, 5]},
        ),
    )
    out = tmp_path / "out"
    assert main(["extend", "--config", str(cfg), "--out", str(out)]) == 0
    grid = GridSpec(2, 16, GRID["period"])
    data = generate_data({"name": "modes", "components": 2}, grid, seed=3)
    ext = caloric_extension(data, TimeLadder(0.25, 32))
    for j in (0, 5):
        snap = read_snapshot(out / f"extend_slice_{j:04d}.dat")
        assert np.array_equal(snap.values, ext.slice(j).values)
    report = json.loads((out / "extend.json").read_text())
    assert report["data_bmo"]["value"] > 0
    assert report["carleson"]["maximizer"]["kind"] == "cylinder"
    assert len(report["vmo_profile"]) >= 2


def test_solve_hmf_run_and_snapshot_roundtrip(tmp_path):
    family = {"name": "oscillatory", "amplitude": 0.3, "ambient_dim": 3}
    cfg = write_config(
        tmp_path,
        base_config(kind="solve-hmf", family=family, options={"snapshot_slices": [32]}),
    )
    out = tmp_path / "out"
    assert main(["solve-hmf", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "solve_hmf.json").read_text())
    assert report["result"]["converged"] is True
    assert report["result"]["constraint_defect"] < 1e-3
    grid = GridSpec(2, 16, GRID["period"])
    res = hmflow.solve(
        generate_data(family, grid, seed=3), SolverConfig(grid, TimeLadder(0.25, 32))
    )
    snap = read_snapshot(out / "solve_hmf_slice_0032.dat")
    assert np.array_equal(snap.values, res.solution.values[32])


def test_solve_hmf_reports_no_convergence_with_exit_two(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kind="solve-hmf",
            family={"name": "oscillatory", "amplitude": 0.4, "ambient_dim": 3},
            solver={"max_iters": 2},
        ),
    )
    out = tmp_path / "out"
    assert main(["solve-hmf", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "solve_hmf.json").read_text())
    assert report["result"]["converged"] is False
    assert len(report["result"]["increments"]) == 2


def test_solve_lc_run(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kind="solve-lc",
            family={
                "velocity": {"name": "stream", "amplitude": 0.2},
                "director": {"name": "oscillatory", "amplitude": 0.3, "ambient_dim": 3},
            },
        ),
    )
    out = tmp_path / "out"
    assert main(["solve-lc", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "solve_lc.json").read_text())
    assert report["result"]["converged"] is True
    assert report["result"]["divergence_sup"] <= 1e-10


def test_norms_csv_and_seed_override(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(kind="norms", family={"name": "modes", "components": 2},
                    options={"count": 3}),
    )
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["norms", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["norms", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert main(["norms", "--config", str(cfg), "--out", str(out_c), "--seed", "99"]) == 0
    # byte-identical artifacts for identical configs
    assert (out_a / "norms.csv").read_bytes() == (out_b / "norms.csv").read_bytes()
    assert (out_a / "norms.json").read_bytes() == (out_b / "norms.json").read_bytes()
    # the seed override genuinely changes the ensemble
    assert (out_a / "norms.csv").read_bytes() != (out_c / "norms.csv").read_bytes()
    header, rows = read_rows(out_a / "norms.csv")
    assert tuple(header) == NORMS_COLUMNS
    assert len(rows) == 3
    assert [r[2] for r in rows] == ["3", "4", "5"]  # member seeds
    for r in rows:
        assert float(r[3]) > 0 and float(r[5]) > 0
    summary = json.loads((out_a / "norms.json").read_text())
    assert summary["bracket_low"] <= summary["bracket_high"]


def test_sweep_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        base_config(
            kind="sweep",
            family={"name": "oscillatory", "ambient_dim": 3},
            options={"flow": "hmf", "amplitudes": [0.1, 0.3]},
        ),
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out / "sweep.csv")
    # the header README documents
    assert ",".join(header) == (
        "family,amplitude,data_oscillation,converged,iterations,contraction,"
        "solution_size,amplification"
    )
    assert [r[1] for r in rows] == ["0.1", "0.3"]
    assert all(r[3] == "true" for r in rows)
    report = json.loads((out / "sweep.json").read_text())
    assert report["report"]["threshold"] == 0.3


def test_verify_battery_passes_and_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--out", str(out_a)]) == 0
    assert main(["verify", "--out", str(out_b)]) == 0
    assert (out_a / "verify.csv").read_bytes() == (out_b / "verify.csv").read_bytes()
    assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()
    header, rows = read_rows(out_a / "verify.csv")
    assert tuple(header) == VERIFY_COLUMNS
    assert len(rows) >= 12
    assert all(r[3] == "true" for r in rows)
    report = json.loads((out_a / "verify.json").read_text())
    assert report["passed"] is True
