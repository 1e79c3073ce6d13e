import os
from dataclasses import replace

import hypothesis
import numpy as np
import pytest

from curveclust.curves import normalize, refit_on_grid
from curveclust.indices import DistanceMatrix
from curveclust.splines import Grid
from curveclust.warping import make_warping, n_raw_params

hypothesis.settings.register_profile(
    "curveclust", max_examples=25, deadline=None
)
hypothesis.settings.load_profile("curveclust")


@pytest.fixture(scope="session")
def grid500():
    return Grid(500)


@pytest.fixture(scope="session")
def grid200():
    return Grid(200)


@pytest.fixture(scope="session")
def grid100():
    return Grid(100)


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def identity_warp():
    """The identity of the warp family: all-equal (here zero) raw parameters."""
    return make_warping(np.zeros(n_raw_params()))


def sine_shape(t):
    return np.sin(2.5 * np.pi * t)


def bump_shape(t):
    return (-(t**2) + np.sin(2 * np.pi * t) + 0.25) / 1.3


def standing_for(curve, count):
    """`curve` as a curve that stands for `count` original curves: its own id
    and count - 1 ids from 1000 * (id + 1) on, which no test curve has."""
    start = 1000 * (curve.id + 1)
    return replace(curve, members=frozenset([curve.id, *range(start, start + count - 1)]))


def random_smooth_curve(curve_id, grid, rng, n_modes=4):
    """A normalized random smooth curve in the shape-spline space."""
    t = grid.points
    y = sum(
        rng.normal(0.0, 1.0 / (m + 1)) * np.sin(m * np.pi * t + rng.uniform(0, 2 * np.pi))
        for m in range(1, n_modes + 1)
    )
    return normalize(refit_on_grid(curve_id, grid, y))


def pair_distances(distances):
    """DistanceMatrix over the sorted ids of a dict of unordered id pairs to
    distances; pairs left out read NaN."""
    ids = sorted({i for pair in distances for i in pair})
    row = {curve_id: k for k, curve_id in enumerate(ids)}
    array = np.full((len(ids), len(ids)), np.nan)
    np.fill_diagonal(array, 0.0)
    for (a, b), value in distances.items():
        array[row[a], row[b]] = array[row[b], row[a]] = value
    return DistanceMatrix(array, row)
