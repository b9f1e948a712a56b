"""Property tests of the two input readers: config documents and snapshots.

Hypothesis draws the inputs.  The strategies reach the corner values that
break naive readers: NaN, infinities, integers far beyond float range,
bools where numbers belong, and snapshot headers whose counts overflow
any allocation.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoflow import cli, read_snapshot

GRID = {"dim": 2, "points_per_axis": 16, "period": 6.283185307179586}
LADDER = {"t_final": 0.25, "steps": 32}
HMF_FAMILY = {"name": "angle", "amplitude": 0.3, "kmax": 2, "ambient_dim": 3}
LC_FAMILY = {
    "velocity": {"name": "stream", "amplitude": 0.3, "kmax": 2},
    "director": {"name": "hedgehog", "amplitude": 0.3, "kmax": 2},
}
OPTIONS = {
    "extend": {"snapshot_slices": [0, 32]},
    "norms": {"count": 2},
    "solve-hmf": {"snapshot_slices": [4]},
    "solve-lc": {"snapshot_slices": [4]},
    "sweep": {"flow": "hmf", "amplitudes": [0.1, 0.2]},
}
SOLVING_KINDS = ("solve-hmf", "solve-lc", "sweep")

# non-integral, past float range, non-finite, and a bool, which a JSON
# reader easily takes for an integer
EDGE_NUMBERS = st.sampled_from([16.5, 10**400, -(10**400), math.inf, -math.inf, math.nan, True])
SCALARS = EDGE_NUMBERS | st.none() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# every place a number is read from a document, and every list or object
NUMBER_PATHS = [
    ("grid", "dim"), ("grid", "points_per_axis"), ("grid", "period"),
    ("ladder", "t_final"), ("ladder", "steps"), ("seed",),
    ("solver", "picard_tol"), ("solver", "max_iters"), ("options", "count"),
    ("family", "amplitude"), ("family", "kmax"), ("family", "ambient_dim"),
]
OTHER_PATHS = [
    ("options", "snapshot_slices"), ("options", "flow"), ("options", "amplitudes"),
    ("family", "name"), ("family", "velocity"),
    ("grid",), ("ladder",), ("solver",), ("options",), ("family",),
]
EDITS = st.lists(
    st.tuples(st.sampled_from(NUMBER_PATHS), SCALARS)
    | st.tuples(st.sampled_from(OTHER_PATHS), JSON_VALUES),
    min_size=1,
    max_size=3,
)


# a few seconds per property; generation time depends on the machine's load
SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def base_document(kind):
    doc = {"grid": dict(GRID), "ladder": dict(LADDER), "seed": 3,
           "options": copy.deepcopy(OPTIONS[kind])}
    if kind in SOLVING_KINDS:
        doc["solver"] = {}
    doc["family"] = copy.deepcopy(LC_FAMILY) if kind == "solve-lc" else dict(HMF_FAMILY)
    return doc


def set_path(doc, path, value):
    """Put value at path, making the objects on the way if they are missing or not objects."""
    node = doc
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value


@SETTINGS
@given(
    kind=st.sampled_from([kind for kind in cli.KINDS if kind != "verify"]),
    edits=EDITS,
)
def test_config_documents_parse_or_report_one_error(kind, edits):
    """main either accepts a document or prints one ``error:`` line and returns 1.

    ``run`` is replaced by a stub, so only reading and checking the document is
    exercised; any exception main does not report escapes and fails the test.
    """
    doc = base_document(kind)
    for path, value in edits:
        set_path(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc), encoding="ascii")
        err = io.StringIO()
        stub = mock.patch.object(cli, "run", return_value=cli.EXIT_OK)
        with stub, contextlib.redirect_stderr(err):
            code = cli.main([kind, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR)
    if code == cli.EXIT_ERROR:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


HEADERS = st.one_of(
    st.builds(
        "GEOFLOW1 {} {} {!r} {}\n".format,
        st.sampled_from([1, 2, 3]) | st.integers(),
        st.sampled_from([8, 16, 2**40]) | st.integers(),
        st.sampled_from([6.0, math.inf, math.nan]) | st.floats(),
        st.sampled_from([1, 2, 99999999999999999999]) | st.integers(),
    ).map(str.encode),
    st.binary(max_size=40),
)


@SETTINGS
@given(header=HEADERS, payload=st.binary(max_size=200) | st.binary(min_size=64, max_size=64))
def test_snapshot_reader_raises_only_value_error(header, payload):
    """Random bytes after a valid-looking or random header: a Field or ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.dat"
        path.write_bytes(header + payload)
        try:
            read_snapshot(path)
        except ValueError:
            pass

