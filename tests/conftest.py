"""Shared fixtures: small grids and ladders sized for fast unit tests."""

import numpy as np
import pytest

from geoflow import GridSpec, TimeLadder

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid1d():
    return GridSpec(1, 64, TWO_PI)


@pytest.fixture
def grid2d():
    return GridSpec(2, 16, TWO_PI)


@pytest.fixture
def grid2d_32():
    return GridSpec(2, 32, TWO_PI)


@pytest.fixture
def grid3d():
    return GridSpec(3, 8, TWO_PI)


@pytest.fixture
def ladder():
    return TimeLadder(0.25, 32)


@pytest.fixture
def ladder_fine():
    return TimeLadder(0.25, 64)


@pytest.fixture
def nan_on_call():
    """Wrap a forcing so that its output holds a NaN from the given call on."""

    def wrap(original, call):
        calls = []

        def forcing(*args):
            calls.append(1)
            out = original(*args)
            if len(calls) >= call:
                out[0, 0, 0] = np.nan
            return out

        return forcing

    return wrap
