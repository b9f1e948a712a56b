"""One workload call in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json LAUNCHED_AT

The job file names the config, the seed that overrides the config's
(as ``geoflow --seed`` does), the output directory, the file to write
the measurements to and, for a traced call, the file to write the spans
to.  LAUNCHED_AT is the launcher's CLOCK_MONOTONIC reading taken just
before it started this process.  Set-up (interpreter start, imports,
config parsing, and installing the tracer when asked) ends where
``geoflow.cli.run`` starts; wall time, CPU time and peak memory cover
that call alone.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _memory_kib(field):
    """VmRSS or VmHWM of this process, in KiB.

    VmHWM belongs to the address space made at exec, unlike ru_maxrss,
    which keeps the launcher's high-water mark inherited through fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def calibrate():
    """Seconds taken by a fixed FFT, array and interpreter kernel.

    The kernel uses no geoflow code and allocates nothing while timed, so
    it measures only how fast this process runs at the moment.
    """
    import numpy as np

    x = np.random.default_rng(0).normal(size=(16, 48, 48, 3))
    h = np.empty(x.shape, complex)
    y = np.empty(x.shape, complex)
    r = np.empty(x.shape)
    start = time.perf_counter()
    for _ in range(80):
        np.fft.fftn(x, axes=(1, 2), out=h)
        np.multiply(h, h, out=h)
        np.fft.ifftn(h, axes=(1, 2), out=y)
        np.multiply(y.real, y.real, out=r)
    sum(i * i for i in range(800_000))
    return time.perf_counter() - start


def main(job_path, launched_at):
    job = json.loads(Path(job_path).read_text(encoding="ascii"))
    from geoflow import cli

    doc = json.loads(Path(job["config"]).read_text(encoding="ascii"))
    cfg = cli.parse_config(doc, doc["kind"], job["out"], job["seed"])
    recorder = None
    if job.get("spans"):
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)

    rss_before = _memory_kib("VmRSS")
    setup_end = time.monotonic()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    error = None
    try:
        code = cli.run(cfg)
    except Exception:  # reported as a failed call, like the CLI's exit code 1
        code, error = 1, traceback.format_exc()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    hwm_after = _memory_kib("VmHWM")

    if recorder is not None:
        recorder.write(job["spans"])
    result = {
        # after the call, so that neither its memory peak nor its spans change
        "calibration_s": None if recorder is not None else calibrate(),
        "exit_code": code,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup_end - launched_at,
        "peak_mem_mb": (hwm_after - rss_before) / 1024.0,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
