"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers live here, outside the program: each traced entry point of
geoflow is replaced by a wrapper that records one span (name, start, end,
parent, work count) and is rebound under every name that refers to the
original function in any geoflow module, so calls made through
``from .grid import resample_cube`` are caught as well as calls made
through the defining module.  The public transforms of ``numpy.fft`` are
wrapped in the same way; their internal helpers are not, so one public
call is one span.

Spans stay in memory until the run ends and are then written to a JSON
lines file of their own, apart from the end-to-end results.
"""

from __future__ import annotations

import importlib
import json
import os
import time

import numpy as np
import numpy.fft

FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)


def _fft_points(args, kwargs, result):
    # transform length x batch: the larger of input and output element
    # counts, so a real transform counts its real length
    return int(max(np.size(args[0]), np.size(result)))


def _file_bytes(position):
    return lambda args, kwargs, result: os.path.getsize(args[position])


def _constructed_bytes(args, kwargs, result):
    return int(args[0].values.nbytes)


# (module, attribute, span name, work count).  The span name is the layer
# and the entry point; per-layer metrics group spans by these names.  A
# dotted attribute names a method, patched on its class.
SPANS = (
    ("cli", "run", "cli.run", None),
    ("cli", "_write_json", "cli.artifacts", _file_bytes(0)),
    ("cli", "_write_csv", "cli.artifacts", _file_bytes(0)),
    ("grid", "write_snapshot", "cli.artifacts", _file_bytes(1)),
    ("families", "oscillatory_angle", "families.data", None),
    ("families", "random_angle", "families.data", None),
    ("families", "hedgehog_data", "families.data", None),
    ("families", "stream_velocity", "families.data", None),
    ("families", "taylor_green", "families.data", None),
    ("families", "mode_field", "families.data", None),
    ("grid", "resample_cube", "grid.pad_truncate", None),
    ("grid", "_restrict_cube", "grid.pad_truncate", None),
    ("grid", "gradient_cube", "grid.derivative", None),
    ("grid", "laplacian_cube", "grid.derivative", None),
    ("grid", "divergence_cube", "grid.derivative", None),
    ("grid", "Field.__init__", "grid.construct", _constructed_bytes),
    ("grid", "SpaceTimeField.__init__", "grid.construct", _constructed_bytes),
    ("heat", "caloric_extension", "heat.caloric", None),
    ("heat", "duhamel_heat", "heat.duhamel", None),
    ("heat", "duhamel_leray_div", "heat.duhamel", None),
    ("manifold", "SphereTarget.gradient_quadratic", "manifold.curvature", None),
    ("norms", "solution_norm", "norms.space_time", None),
    ("norms", "velocity_norm", "norms.space_time", None),
    ("norms", "forcing_norm", "norms.space_time", None),
    ("norms", "bmo_seminorm", "norms.ball_scan", None),
    ("norms", "vmo_profile", "norms.ball_scan", None),
    ("norms", "carleson_bmo", "norms.cylinder", None),
    ("norms", "bmo_inverse_norm", "norms.cylinder", None),
    ("hmflow", "solve", "hmflow.solve", None),
    ("hmflow", "_result", "hmflow.result", None),
    ("hmflow", "flow_residual", "hmflow.residual", None),
    ("hmflow", "amplitude_sweep", "hmflow.sweep", None),
    ("lcflow", "solve", "lcflow.solve", None),
    ("lcflow", "_result", "lcflow.result", None),
    ("lcflow", "velocity_map", "lcflow.velocity_map", None),
    ("lcflow", "director_map", "lcflow.director_map", None),
    ("lcflow", "lc_residuals", "lcflow.residual", None),
    ("lcflow", "divergence_sup", "lcflow.residual", None),
    ("lcflow", "amplitude_sweep", "lcflow.sweep", None),
)

GEOFLOW_MODULES = ("cli", "families", "grid", "heat", "hmflow", "lcflow", "manifold", "norms")


class Recorder:
    """In-memory span list.  A span is [name, start, end, parent, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        """Return fn wrapped in a span; work(args, kwargs, result) gives its count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")


def install(recorder: Recorder):
    """Wrap every traced entry point; returns a function that undoes it."""
    import geoflow

    modules = [geoflow] + [importlib.import_module(f"geoflow.{m}") for m in GEOFLOW_MODULES]
    by_name = dict(zip(GEOFLOW_MODULES, modules[1:]))
    undo = []

    for fname in FFT_FUNCTIONS:
        original = getattr(numpy.fft, fname)
        setattr(numpy.fft, fname, recorder.wrap("fft", original, _fft_points))
        undo.append((numpy.fft, fname, original))

    for mod_name, attr, span_name, work in SPANS:
        owner = by_name[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            setattr(owner, attr, recorder.wrap(span_name, original, work))
            undo.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(span_name, original, work)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    undo.append((mod, name, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# Layers reported as self time and call count.
LAYER_GROUPS = (
    "grid.pad_truncate", "grid.derivative", "grid.construct", "heat.caloric",
    "heat.duhamel", "manifold.curvature", "norms.space_time", "norms.ball_scan",
    "norms.cylinder",
)
MB = 2**20


def self_times(spans):
    """Span duration minus the part of its interval that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in children[i]:  # recorded in start order
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out, children


def _loop_windows(spans, children, solve_name):
    """(start, end) of the Picard loop inside each solve span.

    The loop starts when the solve's last direct caloric extension (the
    heat extension of the data) returns and ends when the result is
    assembled, or when the solve raises.
    """
    result_name = solve_name.split(".")[0] + ".result"
    windows = []
    for i, span in enumerate(spans):
        if span[0] != solve_name:
            continue
        start, end = span[1], span[2]
        for c in children[i]:
            if spans[c][0] == "heat.caloric":
                start = spans[c][2]
            elif spans[c][0] == result_name:
                end = spans[c][1]
                break
        windows.append((start, end))
    return windows


def layer_metrics(spans, picard_iters):
    """Per-layer metrics of one traced call: {name: (value, unit)}."""
    selfs, children = self_times(spans)

    def seconds(*names):
        return sum(t for t, s in zip(selfs, spans) if s[0] in names)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def work(name):
        return sum(s[4] for s in spans if s[0] == name)

    windows = {
        flow: _loop_windows(spans, children, f"{flow}.solve") for flow in ("hmflow", "lcflow")
    }
    all_windows = windows["hmflow"] + windows["lcflow"]
    fft_in_loop = sum(
        1 for s in spans if s[0] == "fft" and any(lo <= s[1] < hi for lo, hi in all_windows)
    )

    def per_iter(value):
        return value / picard_iters if picard_iters else 0.0

    m = {
        "fft.calls": (calls("fft"), "count"),
        "fft.s": (seconds("fft"), "s"),
        "fft.points": (work("fft"), "count"),
        "fft.calls_per_iter": (per_iter(fft_in_loop), "calls/iter"),
    }
    for group in LAYER_GROUPS:
        m[f"{group}.s"] = (seconds(group), "s")
        m[f"{group}.calls"] = (calls(group), "count")
    m["grid.construct.mb"] = (work("grid.construct") / MB, "MB")
    for flow in ("hmflow", "lcflow"):
        loop = sum(hi - lo for lo, hi in windows[flow])
        m[f"{flow}.iter.s"] = (per_iter(loop) if windows[flow] else 0.0, "s")
        m[f"{flow}.residual.s"] = (seconds(f"{flow}.residual"), "s")
        m[f"{flow}.self.s"] = (seconds(f"{flow}.solve", f"{flow}.result", f"{flow}.sweep"), "s")
    m["lcflow.velocity_map.s"] = (seconds("lcflow.velocity_map"), "s")
    m["lcflow.director_map.s"] = (seconds("lcflow.director_map"), "s")
    m["families.data.s"] = (seconds("families.data"), "s")
    m["cli.artifacts.s"] = (seconds("cli.artifacts"), "s")
    m["cli.artifacts.mb"] = (work("cli.artifacts") / MB, "MB")
    return m
