"""Tests of the benchmark's own machinery: tracing, checks and the FFT counter.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from geoflow import cli  # noqa: E402

# Each workload's config shrunk to test size; the kinds and families are the benchmark's.
SMALL = {
    "hmf-2d": {"grid": {"points_per_axis": 16}, "ladder": {"steps": 8},
               "options": {"snapshot_slices": [8]}},
    "lc-2d": {"grid": {"points_per_axis": 16}, "ladder": {"steps": 8}},
    "hmf-sweep": {"grid": {"points_per_axis": 16}, "ladder": {"steps": 8}},
    "scan-3d": {"grid": {"points_per_axis": 8}, "ladder": {"steps": 8}},
}


def small_config(name, seed=3):
    doc = json.loads(json.dumps(workloads.config_for(name, seed)))
    for key, changes in SMALL[name].items():
        doc[key].update(changes)
    return doc


def run_cli(doc, out):
    cfg = cli.parse_config(doc, doc["kind"], out)
    return cli.run(cfg)


def read_tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_writes_identical_artifacts(name, tmp_path):
    doc = small_config(name)
    assert run_cli(doc, tmp_path / "plain") == 0
    originals = (np.fft.fftn, cli.run, cli.write_snapshot)
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert run_cli(doc, tmp_path / "traced") == 0
    finally:
        uninstall()
    assert read_tree(tmp_path / "plain") == read_tree(tmp_path / "traced")
    names = {s[0] for s in recorder.spans}
    assert {"cli.run", "cli.artifacts", "fft", "families.data"} <= names
    assert (np.fft.fftn, cli.run, cli.write_snapshot) == originals
    plain = checks.check(doc, tmp_path / "plain", doc["seed"])
    assert plain[0] == []
    assert checks.check(doc, tmp_path / "traced", doc["seed"]) == plain


def flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


def test_check_fails_closed_on_perturbed_snapshot(tmp_path):
    doc = small_config("hmf-2d")
    assert run_cli(doc, tmp_path) == 0
    assert checks.check(doc, tmp_path, doc["seed"])[0] == []
    # a 1-ulp change in the last byte of the final slice passes the 1e-8 march
    # bound, so perturb a value by more than the bound instead
    snap = tmp_path / "solve_hmf_slice_0008.dat"
    raw = bytearray(snap.read_bytes())
    value = np.frombuffer(bytes(raw[-8:]), dtype="<f8")[0]
    raw[-8:] = np.array([value + 1e-6], dtype="<f8").tobytes()
    snap.write_bytes(bytes(raw))
    failures, _ = checks.check(doc, tmp_path, doc["seed"])
    assert any("time_march" in f for f in failures)


def test_check_fails_closed_on_perturbed_scan(tmp_path):
    doc = small_config("scan-3d")
    assert run_cli(doc, tmp_path) == 0
    assert checks.check(doc, tmp_path, doc["seed"])[0] == []
    flip_last_byte(tmp_path / "extend_slice_0008.dat")
    failures, _ = checks.check(doc, tmp_path, doc["seed"])
    assert any("caloric slice" in f for f in failures)

    report_path = tmp_path / "extend.json"
    report = json.loads(report_path.read_text())
    report["data_bmo"]["value"] *= 1.001
    report_path.write_text(json.dumps(report))
    failures, _ = checks.check(doc, tmp_path, doc["seed"])
    assert any("maximizer" in f for f in failures)


def test_check_fails_closed_on_missing_artifact(tmp_path):
    doc = small_config("hmf-sweep")
    assert run_cli(doc, tmp_path) == 0
    assert checks.check(doc, tmp_path, doc["seed"])[0] == []
    (tmp_path / "sweep.json").unlink()
    failures, facts = checks.check(doc, tmp_path, doc["seed"])
    assert failures and failures[0].startswith("check raised FileNotFoundError")
    assert facts == {}


def test_fft_counter_counts_a_known_sequence():
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        cube = np.random.default_rng(0).normal(size=(8, 8))
        np.fft.ifftn(np.fft.fftn(cube))
        np.fft.irfft(np.fft.rfft(np.arange(16.0)))
        from geoflow.grid import GridSpec, laplacian_cube

        laplacian_cube(np.ones((2, 16, 16, 1)), GridSpec(2, 16, 2 * np.pi))
    finally:
        uninstall()
    spans = recorder.spans
    fft = [s for s in spans if s[0] == "fft"]
    # fftn, ifftn (64 points each), rfft and irfft (real length 16), then the
    # Laplacian's forward and inverse transform of 2 x 16 x 16 points
    assert [s[4] for s in fft] == [64, 64, 16, 16, 512, 512]
    lap = [i for i, s in enumerate(spans) if s[0] == "grid.derivative"]
    assert len(lap) == 1
    assert [s[3] for s in fft] == [-1, -1, -1, -1, lap[0], lap[0]]
    metrics = tracing.layer_metrics(spans, picard_iters=0)
    assert metrics["fft.calls"] == (6, "count")
    assert metrics["fft.points"] == (1184, "count")
    assert metrics["grid.derivative.calls"] == (1, "count")


def test_self_time_subtracts_child_coverage():
    spans = [
        ("hmflow.solve", 0.0, 10.0, -1, 0),
        ("heat.caloric", 1.0, 2.0, 0, 0),
        ("fft", 1.5, 1.75, 1, 0),
        ("norms.space_time", 4.0, 7.0, 0, 0),
        ("hmflow.result", 8.0, 9.5, 0, 0),
    ]
    selfs, _ = tracing.self_times(spans)
    assert selfs == [4.5, 0.75, 0.25, 3.0, 1.5]
    metrics = tracing.layer_metrics(spans, picard_iters=3)
    # the loop runs from the end of the data's caloric extension to the result
    assert metrics["hmflow.iter.s"] == (2.0, "s")
    assert metrics["hmflow.self.s"] == (6.0, "s")
