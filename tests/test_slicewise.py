"""`grid.slicewise` blocks on one, two and three threads give the same bits.

Every kernel computes each time slice on its own, so neither the block
size nor the number of threads may change an output bit, an increment,
an exception or the value a tube escape reports.  The module constants
``_WORKERS`` and ``_TIME_BLOCK`` are patched here; each layout gets a
fresh pool of ``_WORKERS - 1`` threads, shut down after it.
"""

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from geoflow import (
    GridSpec,
    SolverConfig,
    TimeLadder,
    TubeEscape,
    caloric_extension,
    hmflow,
    lcflow,
    solution_norm,
)
from geoflow import grid as grid_module
from geoflow.families import hedgehog_data, oscillatory_angle, stream_velocity
from geoflow.grid import resample_cube, slicewise
from geoflow.heat import heat_residual, projected_divergence
from geoflow.hmflow import curvature_forcing
from geoflow.lcflow import _advection_forcing, _stress_forcing
from geoflow.manifold import SphereTarget

TWO_PI = 2.0 * np.pi
WORKERS = (1, 2, 3)
BLOCKS = (1, 3, 8, 16)


@contextmanager
def layout(monkeypatch, workers, block):
    """Run slicewise with the given worker count and block size."""
    with monkeypatch.context() as patch:
        patch.setattr(grid_module, "_WORKERS", workers)
        patch.setattr(grid_module, "_TIME_BLOCK", block)
        patch.setattr(grid_module, "_pool", None)
        try:
            yield
        finally:
            if grid_module._pool is not None:
                grid_module._pool.shutdown(wait=True)


def every_layout(monkeypatch, compute):
    """compute() under every (workers, block) pair, keyed by the pair."""
    out = {}
    for workers in WORKERS:
        for block in BLOCKS:
            with layout(monkeypatch, workers, block):
                out[workers, block] = compute()
    return out


def assert_all_equal(results):
    (first_key, first), *rest = results.items()
    for key, value in rest:
        assert len(value) == len(first)
        for a, b in zip(first, value):
            assert np.array_equal(a, b), f"{key} differs from {first_key}"


def block_of(cube):
    return int(cube[0].flat[0]) // 10


def index_stack(grid, steps1, block):
    """A stack whose slice j holds 10 * (j // block) everywhere."""
    values = np.repeat(np.arange(steps1) // block * 10.0, grid.sites)
    return values.reshape(steps1, grid.sites, 1)


# ---------------------------------------------------------------------------
# Failure order and nesting.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKERS)
def test_lowest_failing_block_raises_after_all_blocks_end(monkeypatch, workers):
    grid = GridSpec(2, 8, TWO_PI)
    running, ended = [], []

    def kernel(cube):
        b = block_of(cube)
        running.append(b)
        if b == 1:
            time.sleep(0.05)  # block 2 fails first in time when it runs beside block 1
        ended.append(b)
        if b in (1, 2):
            raise ValueError(f"block {b}")
        return cube[..., 0]

    with layout(monkeypatch, workers, 4):
        with pytest.raises(ValueError, match="block 1"):
            slicewise(grid, kernel, index_stack(grid, 17, 4))
        assert sorted(running) == sorted(ended)
    assert 0 in ended and 1 in ended


@pytest.mark.parametrize("workers", (2, 3))
def test_caller_block_failure_waits_for_pool_blocks(monkeypatch, workers):
    grid = GridSpec(2, 8, TWO_PI)
    ended = []

    def kernel(cube):
        b = block_of(cube)
        if b == 0:
            raise ValueError("block 0")
        time.sleep(0.05)
        ended.append(b)
        raise ValueError(f"block {b}")

    with layout(monkeypatch, workers, 4):
        with pytest.raises(ValueError, match="block 0"):
            slicewise(grid, kernel, index_stack(grid, 17, 4))
        assert sorted(ended) == list(range(1, workers))  # before the pool shuts down


@pytest.mark.parametrize("workers", WORKERS)
def test_nested_call_from_pool_thread_runs_serially(monkeypatch, workers):
    grid = GridSpec(2, 8, TWO_PI)
    pairs = []

    def outer(cube):
        outer_thread = threading.current_thread()

        def inner(inner_cube):
            pairs.append((outer_thread, threading.current_thread()))
            return inner_cube[..., 0] + 1.0

        flat = cube.reshape(cube.shape[0], grid.sites, 1)
        return slicewise(grid, inner, np.concatenate([flat, flat])).reshape(
            (2,) + cube.shape[:-1]
        )[0]

    stack = index_stack(grid, 9, 1)
    with layout(monkeypatch, workers, 1):
        out = slicewise(grid, outer, stack)
    assert np.array_equal(out, stack[..., 0] + 1.0)
    assert len(pairs) == 18
    pool_pairs = [(a, b) for a, b in pairs if a is not threading.main_thread()]
    assert all(a is b for a, b in pool_pairs)  # a pool thread keeps its nested blocks
    pool_threads = {a for a, _ in pool_pairs}
    assert bool(pool_threads) == (workers > 1)
    assert all(t.name.startswith("geoflow-slicewise") for t in pool_threads)


def test_many_short_blocks_under_fast_thread_switching(monkeypatch):
    grid = GridSpec(2, 8, TWO_PI)
    stack = np.random.default_rng(0).standard_normal((64, grid.sites, 3))
    expected = (stack**2).sum(axis=-1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with layout(monkeypatch, 3, 1):
            outs = [slicewise(grid, lambda cube: (cube**2).sum(axis=-1), stack) for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(out, expected) for out in outs)


# ---------------------------------------------------------------------------
# Bitwise invariance of the kernels and solvers.
# ---------------------------------------------------------------------------


def hmf_trajectory(grid, steps):
    data = hedgehog_data(grid, 0.3, seed=3)
    return caloric_extension(data, TimeLadder(0.25, steps))


def lc_trajectories(grid, steps):
    ladder = TimeLadder(0.25, steps)
    u = caloric_extension(stream_velocity(grid, 0.3, seed=4), ladder)
    return u, caloric_extension(hedgehog_data(grid, 0.3, seed=5), ladder)


@pytest.mark.parametrize(
    "grid, steps", [(GridSpec(2, 16, TWO_PI), 16), (GridSpec(3, 8, TWO_PI), 8)]
)
def test_kernels_are_bitwise_equal_for_every_layout(monkeypatch, grid, steps):
    d = hmf_trajectory(grid, steps)
    u, director = lc_trajectories(grid, steps)
    gram = np.einsum("tsi,tsj->tsij", u.values, u.values).reshape(u.values.shape[:2] + (-1,))

    def compute():
        norm = solution_norm(d)
        return (
            curvature_forcing(d.values, grid, SphereTarget(3)),
            _stress_forcing(u.values, director.values, grid),
            _advection_forcing(u.values, director.values, grid),
            np.array([norm.value] + [v for _, v in norm.terms]),
            heat_residual(d.values, grid, d.dt),
            projected_divergence(gram, grid),
        )

    assert_all_equal(every_layout(monkeypatch, compute))


def test_solves_give_equal_increments_for_every_layout(monkeypatch):
    grid = GridSpec(2, 16, TWO_PI)
    cfg = SolverConfig(grid, TimeLadder(0.25, 16), picard_tol=1e-8)
    data = oscillatory_angle(grid, 0.4)
    u0, d0 = stream_velocity(grid, 0.2, seed=1), hedgehog_data(grid, 0.3, seed=2)

    def compute():
        hmf = hmflow.solve(data, cfg)
        lc = lcflow.solve(u0, d0, cfg)
        return hmf.increments, lc.increments, hmf.solution.values, lc.state.d.values

    results = every_layout(monkeypatch, compute)
    first = results[1, 1]
    for value in results.values():
        assert value[0] == first[0] and value[1] == first[1]
        assert np.array_equal(value[2], first[2]) and np.array_equal(value[3], first[3])


@pytest.mark.parametrize("amplitude", (2.0, 3.0))
def test_tube_escape_value_does_not_depend_on_layout(monkeypatch, amplitude):
    grid = GridSpec(2, 16, TWO_PI)
    cfg = SolverConfig(grid, TimeLadder(0.25, 16))
    data = hedgehog_data(grid, amplitude, seed=5)

    def compute():
        with pytest.raises(TubeEscape) as info:
            hmflow.solve(data, cfg)
        return info.value.min_norm, str(info.value)

    seen = set()
    for workers in (1, 2):
        for block in BLOCKS:
            with layout(monkeypatch, workers, block):
                seen.add(compute())
    assert len(seen) == 1
    assert next(iter(seen))[0] < 0.25


def test_escape_reports_the_earliest_leaving_slice():
    stack = np.ones((4, 5, 3))
    stack[1, 2] = [0.2, 0.0, 0.0]
    stack[3, 0] = [0.1, 0.0, 0.0]
    stack[1, 4] = [0.0, 0.15, 0.0]
    with pytest.raises(TubeEscape) as info:
        SphereTarget(3).project(stack)
    assert info.value.min_norm == 0.15
    with pytest.raises(TubeEscape) as info:
        SphereTarget(3).project(stack[3])  # one field: its own smallest value
    assert info.value.min_norm == 0.1


# ---------------------------------------------------------------------------
# Kernel temporaries freed early, same bits as the expressions they replace.
# ---------------------------------------------------------------------------


def test_in_place_kernels_match_the_old_expressions():
    grid = GridSpec(2, 16, TWO_PI)
    cube = hmf_trajectory(grid, 8).values.reshape((9,) + grid.shape + (3,))
    axes = (1, 2)

    hat = np.fft.fftn(cube, axes=axes)
    ks = [grid_module._wavenumbers(grid.period, 16, odd=True) for _ in axes]
    parts = [
        np.fft.ifftn(hat * (1j * k).reshape([1, 16, 1, 1] if i == 0 else [1, 1, 16, 1]),
                     axes=axes).real
        for i, k in enumerate(ks)
    ]
    assert np.array_equal(grid_module.gradient_cube(cube, grid), np.stack(parts, axis=-2))

    m_pad = 24
    hat = np.fft.fftn(cube, axes=axes)
    for axis in axes:
        hat = grid_module._resample_axis(hat, m_pad, axis)
    padded = np.fft.ifftn(hat * (m_pad / 16) ** 2, axes=axes).real
    assert np.array_equal(resample_cube(cube, grid, m_pad), padded)

    hat = np.fft.fftn(padded, axes=axes)
    for axis in axes:
        hat = grid_module._resample_axis(hat, 16, axis)
    restricted = np.fft.ifftn(hat * (16 / m_pad) ** 2, axes=axes).real
    assert np.array_equal(grid_module._restrict_cube(padded, grid, m_pad), restricted)

