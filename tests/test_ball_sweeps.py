"""The batched ball sweeps against their one-ball-at-a-time definitions.

Every family statistic is computed per radius from one (balls x points)
index matrix.  The references below take the same statistics one ball at a
time, the way the definitions read, and the batched results must equal them
exactly: same values, same maximizing ball.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdolab as P
import psdolab.grid as grid_module
from conftest import full_scan, full_scans
from psdolab import function_classes
from psdolab.experiments import local_average_ratio
from psdolab.function_classes import WeightFn
from psdolab.grid import _ball_arcs, _family_windows, ball_windows
from psdolab.report import bound_ratio

SIZES = [64, 128, 256, 512, 1024, 2048, 4096]


def _grid(data):
    n = data.draw(st.sampled_from(SIZES), label="n")
    half = data.draw(st.one_of(st.sampled_from([4.0, 16.0, 64.0]), st.floats(4.0, 64.0)),
                     label="L")
    return P.make_grid(n, half)


def _off_lattice_family(grid, data):
    """Balls in shuffled order, centers anywhere, a few radii of >= 5 dx."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    top = min(grid.half_length, grid.n // 8 * grid.spacing)
    radii = rng.uniform(5.0 * grid.spacing, top, size=rng.integers(1, 4))
    centers = rng.uniform(-grid.half_length, grid.half_length, (len(radii), 12))
    order = rng.permutation(centers.size)
    # the two tuples shuffled together
    return P.BallFamily(tuple(centers.ravel()[order].tolist()),
                        tuple(np.repeat(radii, 12)[order].tolist()))


def _family(grid, data):
    kind = data.draw(st.sampled_from(["torus", "inside", "off"]), label="family")
    if kind == "off":
        return _off_lattice_family(grid, data)
    return P.sweep_family(grid, inside_only=kind == "inside")


def _balls(family):
    return [P.Ball((c,), r) for c, r in zip(family.centers, family.ball_radii)]


def _by_radius(family):
    out = {}
    for c, r in zip(family.centers, family.ball_radii):
        out.setdefault(r, []).append(c)
    return out


# ---------------------------------------------------------------------------
# The window builder.
# ---------------------------------------------------------------------------


def _assert_windows_match(grid, centers, radius):
    groups = ball_windows(grid, centers, radius)
    seen = np.concatenate([pos for pos, _ in groups]) if groups else np.array([], int)
    assert np.array_equal(np.sort(seen), np.arange(len(centers)))
    for pos, rows in groups:
        expected = np.stack([full_scan(grid, P.Ball((centers[i],), radius))
                             for i in pos.tolist()])
        assert np.array_equal(rows, expected)
    return groups


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_windows_equal_stacked_full_scans(data):
    """Lattice centers (torus and inside-only sweeps, the critical cover)
    give one group per radius; off-lattice centers may split by count."""
    grid = _grid(data)
    for inside in (False, True):
        for r, centers in _by_radius(P.sweep_family(grid, inside_only=inside)).items():
            assert len(_assert_windows_match(grid, centers, r)) == 1
    cover = P.build_critical_cover(grid)
    centers = list(cover.centers)
    for r in (1.0, 2.0, min(8.0, grid.half_length)):
        assert len(_assert_windows_match(grid, centers, r)) == 1
        assert np.array_equal(cover.windows(r), ball_windows(grid, centers, r)[0][1])
    for r, centers in _by_radius(_off_lattice_family(grid, data)).items():
        _assert_windows_match(grid, centers, r)


def test_windows_split_off_lattice_centers_by_count():
    """Groups come in order of first appearance, positions ascending."""
    grid = P.make_grid(64, 4.0)
    dx = grid.spacing
    groups = _assert_windows_match(grid, [0.5 * dx, 0.0, 0.25 * dx, -0.5 * dx, 3.0], 2.5 * dx)
    assert [(pos.tolist(), rows.shape) for pos, rows in groups] == [
        ([0, 3], (2, 6)), ([1, 2, 4], (3, 5))]


def test_ball_below_half_spacing_off_the_lattice_is_empty():
    """An empty ball gives an empty row, which a family sweep still refuses."""
    grid = P.make_grid(64, 4.0)
    dx = grid.spacing
    ((_, rows),) = _assert_windows_match(grid, [0.5 * dx, -0.45 * dx], 0.4 * dx)
    assert rows.shape == (2, 0)
    with pytest.raises(ValueError, match="contains 0 grid points"):
        P.bmo_theta_norm(P.sample(grid, lambda x: x), 0.0,
                         P.BallFamily((0.5 * dx,), (0.4 * dx,)))


@pytest.mark.parametrize("halves", range(7))
def test_arc_ends_meeting_near_the_half_box(halves):
    """Radii L, L - dx/2, .., L - 3 dx: lattice centers give one group, and
    at r = L the arc ends meet, so every ball holds all n points."""
    grid = P.make_grid(64, 4.0)
    dx = grid.spacing
    radius = grid.half_length - 0.5 * dx * halves
    lattice = grid.axis_points().tolist()
    ((_, rows),) = _assert_windows_match(grid, lattice, radius)
    assert rows.shape[1] == grid.n or halves > 0
    _assert_windows_match(grid, [c + f * dx for c in lattice[::7] for f in (0.25, 0.5, 0.75)],
                          radius)


def test_ball_centers_at_the_box_edges():
    grid = P.make_grid(64, 4.0)
    dx = grid.spacing
    edges = [-grid.half_length, np.nextafter(grid.half_length, 0.0)]
    for radius in (0.25 * dx, dx, 2.5 * dx, 9.0 * dx, grid.half_length - dx, grid.half_length):
        _assert_windows_match(grid, edges, radius)
    # both centers sit on lattice point 0 (just below +L it wraps there):
    # the wrapped arc comes out ascending, 0..e-1 then start..n-1
    ((pos, rows),) = ball_windows(grid, edges, 2.5 * dx)
    assert rows.tolist() == [[0, 1, 2, 62, 63]] * 2


def _assert_arcs_match(grid, centers, radius):
    """_ball_arcs against the full scans: each ball's points are one periodic
    arc, which starts at its one point whose left neighbour is outside, or
    at 0 for the whole circle."""
    starts, counts = _ball_arcs(grid, centers, radius)
    inside = full_scans(grid, centers, radius)
    first = inside & ~np.roll(inside, 1, axis=1)
    assert np.all(first.sum(axis=1) <= 1)
    assert np.array_equal(counts, inside.sum(axis=1))
    assert np.array_equal(starts, np.argmax(first, axis=1))
    return starts, counts


def _assert_every_family_arc_matches(grid):
    """Every ball of the sweep families, torus and inside-only; of the
    stride-8 family of the maximal sups at alpha 0.5, 4 and L/2, where alpha
    reaches its smallest radius 8 dx; and of the cover at radii 1 and 8.
    Each distinct (center, radius) is scanned once: for n >= 256 the sweep
    centers are stride-8 centers."""
    balls = {}
    for inside in (False, True):
        for r, centers in _by_radius(P.sweep_family(grid, inside_only=inside)).items():
            balls.setdefault(r, set()).update(centers)
    lattice8 = grid.axis_points()[::8].tolist()
    for alpha in (0.5, 4.0, grid.half_length / 2.0):
        if alpha < 8.0 * grid.spacing:
            continue
        for r, starts, count in _family_windows(grid, alpha):
            half = count // 2
            assert np.array_equal(starts, (np.arange(0, grid.n, 8) - half) % grid.n)
            assert count == 2 * half + 1
            # the window's starts and count are _ball_arcs' at the centers 8k
            got = _ball_arcs(grid, lattice8, r)
            assert np.array_equal(got[0], starts) and set(got[1].tolist()) == {count}
            balls.setdefault(r, set()).update(lattice8)
    for r, centers in balls.items():
        _assert_arcs_match(grid, sorted(centers), r)
    cover = P.build_critical_cover(grid)
    for r in (1.0, 8.0):
        starts, counts = _assert_arcs_match(grid, cover.centers, r)
    if grid.half_length == 8.0:
        # the 8-dilates are the whole circle, read from point 0
        assert set(counts.tolist()) == {grid.n} and set(starts.tolist()) == {0}


@pytest.mark.parametrize("half_length", [8.0, 16.0, 16.5, 17.3, 20.0, 24.0, 31.7])
@pytest.mark.parametrize("n", SIZES)
def test_arcs_of_every_family_equal_full_scans(n, half_length):
    _assert_every_family_arc_matches(P.make_grid(n, half_length))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SIZES), st.floats(8.0, 64.0))
def test_arcs_of_every_family_equal_full_scans_at_any_box(n, half_length):
    _assert_every_family_arc_matches(P.make_grid(n, half_length))


def test_sweeps_and_covers_build_no_ball(monkeypatch):
    """A family and a cover hold plain float centers and radii, so building
    them constructs no Ball; at n = 1024 the torus sweep has 192 balls."""
    built = []
    init = P.Ball.__post_init__
    monkeypatch.setattr(P.Ball, "__post_init__", lambda ball: built.append(ball) or init(ball))
    grid = P.make_grid(1024, 16.0)
    torus, inside = P.sweep_family(grid), P.sweep_family(grid, inside_only=True)
    cover = P.build_critical_cover(grid)
    assert built == []
    assert [len(balls.centers) for balls in (torus, inside, cover)] == [192, 156, 78]
    for values in (torus.centers, torus.ball_radii, inside.centers, inside.ball_radii,
                   cover.centers):
        assert all(type(v) is float for v in values)
    P.Ball((0.0,), 1.0)
    assert len(built) == 1


def test_a_critical_ball_tests_at_most_four_points(monkeypatch):
    """Indexing the critical cover's 8-dilates at n = 2048 takes the
    distance test on the arc ends only, not on a box around each center."""
    cover = P.build_critical_cover(P.make_grid(2048, 16.0))
    tested = []
    inside = grid_module._inside
    monkeypatch.setattr(grid_module, "_inside",
                        lambda d2, radius: tested.append(d2.size) or inside(d2, radius))
    grid_module._plan.cache_clear()
    rows = cover.windows(8.0)
    assert len(rows) == len(cover.centers) == 78
    assert 0 < sum(tested) <= 4 * len(cover.centers)


# ---------------------------------------------------------------------------
# Family statistics against per-ball references.
# ---------------------------------------------------------------------------


def _ref_ap_theta(w, p, theta, balls):
    """One ball at a time, both means in log space: for a = 1 and
    a = -1/(p-1), the max of a log w over the ball plus the log of the mean
    of exp(a log w - max)."""
    pprime = p / (p - 1.0)
    log_w = np.log(w.values.ravel())
    best, best_ball = -np.inf, balls[0]
    for ball in balls:
        idx = P.ball_indices(w.grid, ball)
        logs = []
        for a in (1.0, -1.0 / (p - 1.0)):
            v = a * log_w[idx]
            top = np.max(v)
            logs.append(float(np.log(np.mean(np.exp(v - top))) + top))
        val = math.exp(logs[0] / p + logs[1] / pprime) / (1.0 + ball.radius) ** theta
        if val > best:
            best, best_ball = val, ball
    return best, best_ball


def _ref_oscillation(b, balls, s=1.0):
    """Per ball, (mean_B |b - b_B|^s)^(1/s); s = 1 is the plain mean oscillation."""
    flat = b.real_values().ravel()
    out = []
    for ball in balls:
        vals = flat[P.ball_indices(b.grid, ball)]
        dev = np.abs(vals - np.mean(vals))
        out.append(float(np.mean(dev ** s) ** (1.0 / s)))
    return out


def _weight(grid, data):
    kind = data.draw(st.sampled_from(["power_growth", "random_log_bounded", "exp_abs"]),
                     label="weight")
    params = {"gamma": data.draw(st.floats(0.0, 3.0), label="gamma"),
              "seed": data.draw(st.integers(0, 99), label="wseed")}
    w = P.preset_weight(kind, grid, **params)
    amplitude = data.draw(st.floats(0.1, 3.0), label="amplitude")
    if kind != "random_log_bounded":
        return w
    # exp(u)^a = exp(a u): the log-bounded weight at sup|log w| = a
    return WeightFn(P.SampledFunction(grid, w.values ** amplitude), w.label)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_characteristic_and_stabilization_equal_per_ball_sweeps(data):
    grid = _grid(data)
    family = _family(grid, data)
    w = _weight(grid, data)
    p = data.draw(st.floats(1.1, 6.0), label="p")
    theta = data.draw(st.floats(0.0, 3.0), label="theta")
    ap = P.ap_theta_characteristic(w, p, theta, family)
    assert (ap.value, ap.maximizing_ball) == _ref_ap_theta(w, p, theta, _balls(family))
    radii = family.radii()
    if len(radii) < 4:
        return
    stab = P.stabilized_characteristic(w, p, theta, family)
    assert stab.caps == radii
    for cap, value in zip(stab.caps, stab.values):
        kept = [b for b in _balls(family) if b.radius <= cap * (1 + 1e-12)]
        assert value == _ref_ap_theta(w, p, theta, kept)[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_oscillation_norm_and_jn_part_i_equal_per_ball_sweeps(data):
    grid = _grid(data)
    family = _family(grid, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["noise", "linear", "triangle", "constant"]),
                     label="b")
    if kind == "noise":
        b = P.SampledFunction(grid, rng.standard_normal(grid.n))
    else:
        b = P.preset_bmo(kind, grid)
    theta = data.draw(st.floats(0.0, 3.0), label="theta")
    norm = P.bmo_theta_norm(b, theta, family)
    balls = _balls(family)
    ref = [osc / (1.0 + ball.radius) ** theta
           for osc, ball in zip(_ref_oscillation(b, balls), balls)]
    i = int(np.argmax(ref))
    assert (norm.value, norm.maximizing_ball) == (ref[i], balls[i])

    s = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="s")
    rep = P.check_john_nirenberg_variant(b, theta, s, P.Ball((0.0,), 8 * grid.spacing),
                                         k_range=(), family=family)
    # every ball's item, a constant b's too: its zero norm reads 0 / 0 as 0
    expected = [
        {"id": "part_i", "params": {"center": list(ball.center), "r": ball.radius},
         "value": bound_ratio(lhs, norm.value * (1.0 + ball.radius) ** theta)}
        for ball, lhs in zip(balls, _ref_oscillation(b, balls, s))
    ]
    assert rep.items == expected


def test_weight_under_the_jensen_floor_still_raises(monkeypatch):
    """w^(-1/(p-1)) underflows to 0 for w = 1e300 at p = 1.01, but in log
    space the constant weight scores its closed form 1.  A per-ball product
    under Jensen's floor can then only come from corrupt means, and every
    sweep still refuses it."""
    grid = P.make_grid(256, 16.0)
    family = P.sweep_family(grid)
    w = WeightFn(P.SampledFunction(grid, np.full(grid.n, 1e300)), "underflow")
    assert P.ap_theta_characteristic(w, 1.01, 0.0, family).value == pytest.approx(1.0, rel=1e-12)
    monkeypatch.setattr(function_classes, "_log_mean", lambda v, axis=-1: -np.ones(v.shape[0]))
    for call in (P.ap_theta_characteristic, P.stabilized_characteristic):
        with pytest.raises(ValueError, match="Jensen floor"):
            call(w, 1.01, 0.0, family)


# ---------------------------------------------------------------------------
# lemma41's per-ball probe, batched over the cover.
# ---------------------------------------------------------------------------


def _ref_local_average_ratio(u, series, idx):
    lhs = float(np.mean(np.abs(u[idx])))
    rhs = float(np.min(series[idx]))
    if rhs <= 0.0:
        return np.inf if lhs > 0.0 else 0.0
    return lhs / rhs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_local_average_ratio_equals_per_ball_formula(data):
    grid = _grid(data)
    cover = P.build_critical_cover(grid)
    q = cover.windows(1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    series = rng.uniform(0.1, 2.0, grid.n)
    # some balls where the series is not positive, with and without mass of u
    for j in rng.choice(len(q), size=min(len(q), 4), replace=False).tolist():
        series[rng.choice(q[j])] = rng.choice([0.0, -1.0])
        if rng.random() < 0.5:
            u[q[j]] = 0.0
    got = local_average_ratio(u[None, :], series, q)
    assert got.shape == (1, len(q))
    assert got[0].tolist() == [_ref_local_average_ratio(u, series, row) for row in q]
    assert np.isinf(got).any() or (got == 0.0).any()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_local_average_ratio_rows_equal_their_one_row_gathers(data):
    """Each row of a two-row stack reads, bit for bit, what it reads alone
    and what the per-ball formula gives."""
    grid = _grid(data)
    q = P.build_critical_cover(grid).windows(1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = rng.standard_normal((2, grid.n)) + 1j * rng.standard_normal((2, grid.n))
    rows[1] *= rng.uniform(1e-6, 1e6)
    series = rng.uniform(0.1, 2.0, grid.n)
    got = local_average_ratio(rows, series, q)
    assert got.shape == (2, len(q))
    for row, u in zip(got, rows):
        assert row.tolist() == local_average_ratio(u[None, :], series, q)[0].tolist()
        assert row.tolist() == [_ref_local_average_ratio(u, series, w) for w in q]
