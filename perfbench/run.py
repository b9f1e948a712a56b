"""geoflow benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload hmf-2d --seed 0 --seconds 30 --trace 0

Every call is one ``geoflow.cli`` experiment in a fresh interpreter
(``worker.py``), started one at a time from this process.  Calls repeat
until ``--seconds`` is used up (at least MIN_CALLS of them); the metrics
are medians over the calls, with times scaled to a reference machine
speed (REFERENCE_CALIBRATION_S).  Every call's artifacts are checked against
independent evaluations (``checks.py``) in this process, outside the
timed call.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls, prints the per-layer metrics of the traced
calls (``tracing.py``) and the tracing overhead, and keeps the spans in
``perfbench/out/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are capped at one thread in this process and every
# worker, before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

# Load from other tenants of a shared host changes how fast the same call
# runs, by up to a half, for minutes at a time: longer than a run.  After
# each untraced call the worker times a fixed kernel (worker.calibrate),
# and the times are reported scaled to the speed at which that kernel
# takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.6
MIN_CALLS = 3  # pairs when tracing
MAX_CALLS = 200  # also the stride between the data seeds of two runs
CALL_TIMEOUT_S = 60
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB"))
FACTS = (("picard_iters", "count"), ("constraint_defect", "1"), ("residual_sup", "1"))


def _git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(name, seed, doc, args):
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "config": doc,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


def _hash_tree(path: Path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir()) if p.is_file()
    }


def run_call(run_dir: Path, index: int, config_path: Path, seed: int, spans_path=None):
    """Run one call in a fresh worker; returns its measurement record."""
    call_dir = run_dir / f"call{index:03d}"
    call_dir.mkdir()
    job = {
        "config": str(config_path),
        "seed": seed,
        "out": str(call_dir / "artifacts"),
        "result": str(call_dir / "result.json"),
        "spans": str(spans_path) if spans_path else None,
    }
    job_path = call_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="ascii")
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), str(job_path), repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired as err:
        stderr = f"call timed out after {CALL_TIMEOUT_S} s: {err.stderr}"
    record = {"index": index, "seed": seed, "traced": spans_path is not None,
              "spans": job["spans"]}
    result_path = Path(job["result"])
    if result_path.is_file():
        record.update(json.loads(result_path.read_text(encoding="ascii")))
    else:
        record.update(exit_code=None, error=f"worker wrote no result: {stderr[-2000:]}")
    artifacts = Path(job["out"])
    record["hashes"] = _hash_tree(artifacts) if artifacts.is_dir() else {}
    return record, artifacts


def run_workload(name, seed, args):
    """Call the workload until the time is used up; check every call's artifacts.

    Call k (pair k when tracing) runs on data seed seed * MAX_CALLS + k, so a
    run covers many inputs and its medians do not hang on one input's
    iteration count.  When tracing, the untraced and the traced call of a
    pair share their input and must write byte-identical artifacts.
    """
    import checks
    import workloads

    doc = workloads.config_for(name, seed * MAX_CALLS)
    run_dir = OUT / f"{name}-seed{seed}-trace{args.trace}"  # removed by main
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(doc, indent=2), encoding="ascii")
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    calls = []
    step = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        index = len(calls)
        data_seed = seed * MAX_CALLS + index // step
        spans_path = None
        if index % step == 1:
            spans_path = traces / f"{name}-seed{seed}-call{index:03d}.jsonl"
        record, artifacts = run_call(run_dir, index, config_path, data_seed, spans_path)
        problems = []
        if record["exit_code"] != 0 or record.get("error"):
            problems.append(f"exit code {record['exit_code']}: {record.get('error')}")
        else:
            failures, record["facts"] = checks.check(doc, artifacts, data_seed)
            problems.extend(failures)
        if record["traced"] and record["hashes"] != calls[-1]["hashes"]:
            problems.append("traced artifacts differ from the untraced call's")
        record["problems"] = problems
        calls.append(record)
        shutil.rmtree(artifacts, ignore_errors=True)
        elapsed = time.perf_counter() - start
        done = len(calls)
        # stop before the next call would overrun; a run that is far too
        # slow for MIN_CALLS stops at twice its time
        if done % step == 0 and (
            done >= MAX_CALLS
            or elapsed >= 2 * args.seconds
            or (done >= MIN_CALLS * step and elapsed * (done + step) / done > args.seconds)
        ):
            break
    return doc, calls


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(calls, trace):
    """Metrics of a run: medians over the calls that passed (all calls if none did)."""
    good = [c for c in calls if not c["problems"]] or calls

    def med(key, rows):
        return _median([c[key] for c in rows if c.get(key) is not None])

    if not trace:
        # the mean, not the median: the kernel's speed flips between two
        # levels every second or so, and the mean weighs them by their share
        cals = [c["calibration_s"] for c in good if c.get("calibration_s")]
        speed = REFERENCE_CALIBRATION_S / statistics.mean(cals) if cals else 1.0
        return {key: (med(key, good) * (speed if unit == "s" else 1.0), unit)
                for key, unit in END_TO_END}

    from tracing import layer_metrics

    per_call, overheads = [], []
    for plain, traced in zip(calls[::2], calls[1::2]):
        if traced["problems"] or plain["problems"]:
            continue
        spans = [
            (s["name"], s["start"], s["end"], s["parent"], s["work"])
            for s in map(json.loads, Path(traced["spans"]).read_text().splitlines())
        ]
        facts = traced["facts"]
        metrics = layer_metrics(spans, facts.get("picard_iters", 0))
        for key, unit in FACTS:
            metrics[key] = (facts.get(key, 0), unit)
        per_call.append(metrics)
        overheads.append(traced["wall_s"] / plain["wall_s"])
    if not per_call:
        return {}
    metrics = {key: (_median([m[key][0] for m in per_call]), unit)
               for key, (_, unit) in per_call[0].items()}
    metrics["trace.overhead"] = (_median(overheads), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geoflow" / "cli.py").is_file():
        print(f"error: no geoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    if not 0 <= args.seed < 2**64 // MAX_CALLS - 1:
        print("error: --seed out of range", file=sys.stderr)
        return 1

    doc, calls = run_workload(args.workload, args.seed, args)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in summarize(calls, args.trace).items()}
    failed = sum(1 for c in calls if c["problems"])
    prov = provenance(args.workload, args.seed, doc, args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(
        json.dumps({"provenance": prov, "calls": calls, "metrics": metrics}, indent=2),
        encoding="ascii",
    )
    shutil.rmtree(OUT / name, ignore_errors=True)

    for c in calls:
        if c["problems"]:
            print(f"call {c['index']} failed: {'; '.join(c['problems'])}")
    for key, m in metrics.items():
        print(f"{key:28s} {m['value']:>16.6g} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
