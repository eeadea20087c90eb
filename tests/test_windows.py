"""The window layer of grid.py against per-ball brute force.

Each reduction is taken one ball at a time from a full scan of the grid
(conftest.full_scans).  Where the layer sums in the scan's own order the
result must be equal bit for bit; where it sums in another order (pairwise
blocks, log space) the reference is an np.longdouble sum and the bound is
stated from the arithmetic.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import psdolab as P
from conftest import full_scans
from psdolab.grid import (
    _arc_means,
    _covering,
    _depth,
    _gathered,
    _log_mean,
    _oscillation,
    _plan,
    _spread_max,
    ball_windows,
)

SIZES = [64, 128, 256, 512, 1024, 2048, 4096]
U = np.finfo(float).eps / 2


def _windows(grid, centers, radius):
    """The (balls, points) windows of lattice centers, built uncached: the
    plan cache is for the few radii the package reads."""
    ((_, rows),) = ball_windows(grid, centers, radius)
    return rows


def _case(data):
    """A grid with L >= 8, its critical cover, and a few radii up to L/2."""
    n = data.draw(st.sampled_from(SIZES), label="n")
    half = data.draw(st.floats(8.0, 64.0), label="L")
    grid = P.make_grid(n, half)
    low = 8.0 * grid.spacing
    radii = data.draw(st.lists(st.floats(low, half / 2.0), min_size=1, max_size=3), label="radii")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return grid, P.build_critical_cover(grid), radii, rng


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gathered_reductions_equal_per_ball_scans(data):
    """Means, minima, sums and s-moment oscillations over each ball of the
    cover's windows equal the same numpy reduction of the ball's scanned
    points, one row at a time, which come in the same ascending order: bit
    for bit, for every row of a stack."""
    grid, cover, radii, rng = _case(data)
    rows = rng.standard_normal((3, grid.n)) * np.array([1e-6, 1.0, 1e6])[:, None]
    s = data.draw(st.sampled_from([1.0, 1.5, 2.0]), label="s")
    for radius in radii:
        windows = _windows(grid, cover.centers, radius)
        scans = full_scans(grid, cover.centers, radius)
        got = {"mean": _gathered(rows, windows), "min": _gathered(rows, windows, np.min),
               "sum": _gathered(rows, windows, np.sum),
               "osc": _gathered(rows, windows, _oscillation, s=s)}
        for (r, row), (j, inside) in itertools.product(enumerate(rows), enumerate(scans)):
            v = row[inside]
            want = {"mean": np.mean(v), "min": np.min(v), "sum": np.sum(v),
                    "osc": np.mean(np.abs(v - np.mean(v)) ** s)}
            for key, value in want.items():
                assert got[key][r, j] == value, (key, radius, r, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairwise_arc_means_hold_their_roundoff_bound(data):
    """Each pairwise-block mean of non-negative samples is within
    (log2 K + 2) u of the long-double mean of the scanned ball, relative to
    itself, K the ball's count, however far the ball is from the mass; in the
    subnormal range each of the K terms adds at most the smallest float64."""
    grid, cover, radii, rng = _case(data)
    x = np.exp(-0.5 * ((grid.axis_points() - rng.uniform(-4, 4)) / rng.uniform(0.2, 3)) ** 2)
    x = x * rng.uniform(0.5, 2.0, grid.n)
    for radius, means in zip(radii, _arc_means(x, grid, cover.centers, radii)):
        for j, inside in enumerate(full_scans(grid, cover.centers, radius)):
            exact = np.sum(x[inside].astype(np.longdouble)) / inside.sum()
            bound = (np.log2(inside.sum()) + 2) * U * exact + inside.sum() * 5e-324
            assert abs(np.longdouble(means[j]) - exact) <= bound


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_log_means_hold_their_roundoff_bound(data):
    """log mean exp(v) of each ball, for v = a log w over a weight with
    |log w| <= M, is within u (3 |a| M + log2 K + 4) of the long-double
    value, including exponents a whose plain mean underflows in float64."""
    grid, cover, radii, rng = _case(data)
    log_w = rng.uniform(-1.0, 1.0) * np.abs(grid.axis_points()) + rng.uniform(-3, 3, grid.n)
    big = float(np.max(np.abs(log_w)))
    for a in (1.0, -1.0, -1.0 / data.draw(st.floats(1e-3, 1.0), label="p - 1")):
        v = a * log_w
        for radius in radii:
            got = _gathered(v, _windows(grid, cover.centers, radius), _log_mean)
            for j, inside in enumerate(full_scans(grid, cover.centers, radius)):
                vl = v[inside].astype(np.longdouble)
                exact = np.log(np.mean(np.exp(vl - vl.max()))) + vl.max()
                bound = U * (3 * abs(a) * big + np.log2(inside.sum()) + 4)
                assert abs(np.longdouble(got[j]) - exact) <= bound, (a, radius, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_depth_and_spread_max_equal_per_ball_scans(data):
    """The cover's pointwise depth at each radius is the count of scanned
    balls holding the point, at least 1 everywhere at radius 1 (the cover
    covers); the covering spread reads, at each point, the max of per-ball
    values over the unit balls holding it."""
    grid, cover, radii, rng = _case(data)
    for radius in [1.0, *radii]:
        scans = full_scans(grid, cover.centers, radius)
        assert np.array_equal(_depth(grid, cover.centers, radius), scans.sum(axis=0))
    assert np.all(_depth(grid, cover.centers, 1.0) >= 1)
    values = rng.standard_normal(len(cover.centers))
    held = np.where(full_scans(grid, cover.centers, 1.0), values[:, None], -np.inf)
    got = _spread_max(values, _plan(_covering, grid, cover.centers))
    assert np.array_equal(got, np.max(held, axis=0))


def test_plans_are_built_once_and_read_only():
    """A plan is built once per key, and none of its arrays can be written."""
    grid = P.make_grid(256, 16.0)
    cover = P.build_critical_cover(grid)
    plan = _plan(_covering, grid, cover.centers)
    assert plan is _plan(_covering, grid, cover.centers)
    assert not plan.flags.writeable
    starts, counts = _plan(P.grid._ball_arcs, grid, cover.centers, 2.0)
    assert not (starts.flags.writeable or counts.flags.writeable)
