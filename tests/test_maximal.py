import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psdolab as P
from psdolab import maximal
from psdolab.corpus import (
    BLOCK_ENTRIES,
    CorpusItem,
    corpus_blocks,
    gaussian_corpus,
    gaussian_packet,
    mixed_corpus,
)
import psdolab.grid as grid_module
from psdolab.grid import (
    _cover_plan,
    _covering,
    _doubled_prefix,
    _family_plan,
    _family_windows,
    _gathered,
    _plan,
    _slot_plan,
    _slot_range_max,
    _sup_over_family_rows,
)
from psdolab.maximal import fs_inequality_rows


@pytest.fixture(scope="module")
def cover(grid):
    return P.build_critical_cover(grid)


def test_cover_partitions_the_box(grid, cover):
    assert cover.to_json_dict()["radius"] == 1.0
    assert len(cover.centers) == 78
    assert cover.covers_pointwise()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), st.floats(4.0, 64.0))
def test_cover_covers_every_grid(n, half_length):
    grid = P.make_grid(n, half_length)
    assert P.build_critical_cover(grid).covers_pointwise()


def _brute_force_run_max(vals, x, halves):
    """Max over the halves r of vals[j, r, k] over every center 8k with
    periodic |x - 8k| <= halves[r], at each point x of row j (or of x shared
    by the rows), one row at a time."""
    n = 8 * vals.shape[-1]
    x = np.broadcast_to(x, vals.shape[:1] + x.shape[-1:])
    out = np.full(x.shape, -np.inf)
    for row, xs, v in zip(out, x, vals):
        dist = np.abs((xs[:, None] - 8 * np.arange(n // 8) + n // 2) % n - n // 2)
        for half, vr in zip(halves, v):
            np.maximum(row, np.max(np.where(dist <= half, vr, -np.inf), axis=1), out=row)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), st.data())
def test_centers_range_max_matches_brute_force(n, data):
    """The slot-level run max over one sparse table for all halves equals,
    at every point, the max over every half and every center 8k with periodic
    |x - 8k| <= half: halves from 4, multiples of 8 or not; the circular
    family table, its reads shared by one row or a stack of rows; and the
    linear cover table, one row of values and reads per arc of points, the
    arcs given in any order and anywhere on the unrolled line."""
    c = n // 8
    halves = sorted(data.draw(st.sets(st.integers(4, (n - 1) // 2), min_size=1, max_size=3),
                              label="halves"))
    rows = data.draw(st.sampled_from([1, 5]), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vals = rng.standard_normal((rows, len(halves), c))
    # the circular family table: every point of the circle, reads shared by the rows
    columns, radii, slot = _slot_plan(np.arange(n)[None], halves, c)
    table = np.take(vals.reshape(rows, -1), columns[0], axis=1)
    slots = _slot_range_max(table, [(width, reads[:, 0]) for width, reads in radii])
    assert np.array_equal(np.take(slots, slot[0], axis=1),
                          _brute_force_run_max(vals, np.arange(n), halves))
    # the linear cover table: row j's arc of points first_j .. first_j + P - 1
    size = data.draw(st.integers(1, 40), label="points")
    first = rng.integers(-3 * n, 3 * n, size=(rows, 1))
    points = rng.permuted(first + np.arange(size), axis=1)
    columns, radii, slot = _slot_plan(points, halves, c)
    table = np.take_along_axis(vals.reshape(rows, -1), columns, axis=1).ravel()
    base = np.arange(rows)[:, None] * columns.shape[1]
    slots = _slot_range_max(table, [(width, base + reads) for width, reads in radii])
    assert np.array_equal(np.take_along_axis(slots, slot, axis=1),
                          _brute_force_run_max(vals, points, halves))


def _reference_family_sup(x, grid, alpha, osc):
    """Family sup of one row by a gather of every window's indices and
    np.maximum.at, with the window means from the doubled row's prefix sum."""
    n = grid.n
    out = np.full(n, -np.inf)
    cs = np.concatenate([[0.0], np.cumsum(np.tile(x, 2))])
    for _, starts, count in _family_windows(grid, alpha):
        idx = (starts[:, None] + np.arange(count)) % n
        vals = (cs[starts + count] - cs[starts]) / count
        if osc:
            vals = np.mean(np.abs(x[idx] - vals[:, None]), axis=1)
        np.maximum.at(out, idx.ravel(), np.repeat(vals, count))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), st.floats(8.0, 64.0),
       st.integers(1, 8), st.floats(1.0, 3.0), st.data())
def test_row_cores_equal_the_one_row_path(n, half_length, count, p, data):
    """Each row of a stack run through the family sups (osc on and off) and
    the sharp-function check equals its one-row call bit for
    bit: complex rows for m_loc, real rows for m_sharp_loc and for
    check_fs_inequality, whose sharp function needs real g.  The family sups
    also equal a gather of every window's indices.  Corpus blocks
    visit every item once, in order; at n >= 2048 a block holds under 8 rows,
    so the last one is often ragged."""
    grid = P.make_grid(n, half_length)
    cover = P.build_critical_cover(grid)
    low = 8.0 * grid.spacing
    beta, alpha = (data.draw(st.floats(low, half_length / 2.0), label=label)
                   for label in ("beta", "alpha"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    weight = P.SampledFunction(grid, rng.uniform(0.1, 10.0, n))
    complex_rows = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    local = _sup_over_family_rows(np.abs(complex_rows), grid, beta, osc=False)
    for row, got in zip(complex_rows, local):
        assert np.array_equal(got, P.m_loc(P.SampledFunction(grid, row), beta).values.real)
        assert np.array_equal(got, _reference_family_sup(np.abs(row), grid, beta, osc=False))
    real_rows = rng.standard_normal((count, n))
    sharp = _sup_over_family_rows(real_rows, grid, alpha, osc=True)
    for row, got in zip(real_rows, sharp):
        assert np.array_equal(got, P.m_sharp_loc(P.SampledFunction(grid, row), alpha).values.real)
        assert np.array_equal(got, _reference_family_sup(row, grid, alpha, osc=True))
    items = [CorpusItem(f"row{i}", P.SampledFunction(grid, row), {})
             for i, row in enumerate(real_rows)]
    step = BLOCK_ENTRIES // n
    seen = []
    for block, rows in corpus_blocks(items, n):
        assert rows.shape == (len(block), n) and len(block) <= step
        seen.extend(item.label for item in block)
        checks = fs_inequality_rows([rows], weight, p, cover, beta, alpha)
        for (_, f, _), got in zip(block, checks):
            rep = P.check_fs_inequality(f, weight, p, cover, beta, alpha)
            assert got == (*(item["value"] for item in rep.items), rep.aggregate["ratio"])
    assert seen == [item.label for item in items]


@pytest.mark.parametrize("n", [64, 256, 2048])
@pytest.mark.parametrize("alpha_cells", [8, 13, 40, 100])
def test_oscillation_sup_work_buffer_leaks_nothing(n, alpha_cells):
    """The oscillation sup reuses one deviation buffer for every row and
    radius.  Rows of very different scales, a zero row among them, must each
    come out as the one-row call and as the gather reference, which allocates
    afresh per radius, bit for bit.  A row holding a NaN, a +inf or a -inf is
    refused by name, wherever the sample sits."""
    grid = P.make_grid(n, 16.0)
    alpha = min(alpha_cells * grid.spacing, grid.half_length / 2.0)
    rng = np.random.default_rng(n + alpha_cells)
    rows = rng.standard_normal((8, n)) * np.array([1e6, 1e-6, 1.0, 0.0, 1e3, 1, 1, 1])[:, None]
    stacked = _sup_over_family_rows(rows, grid, alpha, osc=True)
    for row, got in zip(rows, stacked):
        one = _sup_over_family_rows(row[None], grid, alpha, osc=True)[0]
        assert np.array_equal(got, one)
        assert np.array_equal(got, _reference_family_sup(row, grid, alpha, osc=True))
    assert np.all(np.isfinite(stacked))
    for r, bad in zip(range(5, 8), (np.nan, np.inf, -np.inf)):
        for index, osc in itertools.product((0, n // 2, n - 1), (True, False)):
            poisoned = rows.copy()
            poisoned[r, index] = bad
            message = f"row {r} has a non-finite sample at index {index}$"
            with pytest.raises(ValueError, match=message):
                _sup_over_family_rows(poisoned, grid, alpha, osc=osc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cover_maximals_and_fs_refuse_a_non_finite_sample(grid, cover, bad):
    """Through the prefix sums one non-finite sample would reach every ball:
    m_tilde_s, g_kappa_p, m_loc and the fs check refuse the row instead."""
    values = np.exp(-grid.axis_points() ** 2)
    values[grid.n // 2] = bad
    f = P.SampledFunction(grid, values)
    w = P.preset_weight("power_growth", grid, gamma=1.5)
    message = f"row 0 has a non-finite sample at index {grid.n // 2}$"
    for call in (lambda: P.m_tilde_s(f, 1.5, cover), lambda: P.g_kappa_p(f, 1.0, 2.0, cover),
                 lambda: P.m_loc(f, 4.0), lambda: P.check_fs_inequality(f, w, 2.0, cover)):
        with pytest.raises(ValueError, match=message):
            call()


def test_real_values_check_runs_on_every_row(grid, cover):
    """The stacked real-part check keeps SampledFunction.real_values' rule
    for each row, wherever the row sits in its block: an imaginary part of
    0.5e-9 max(1, max |g|) is accepted, and the row's check equals its
    one-row check_fs_inequality; one of 2e-9 max(1, max |g|) is refused, as
    m_sharp_loc refuses the row alone."""
    w = P.preset_weight("power_growth", grid, gamma=1.5)
    for position, size in itertools.product(range(3), (0.1, 3.0)):
        base = np.random.default_rng(position).standard_normal((3, grid.n)) * size
        for factor, accepted in ((0.5e-9, True), (2e-9, False)):
            rows = base.astype(complex)
            rows[position, 7] += 1j * factor * max(1.0, float(np.max(np.abs(rows[position]))))
            one = P.SampledFunction(grid, rows[position])
            if accepted:
                got = fs_inequality_rows([rows], w, 2.0, cover)[position]
                rep = P.check_fs_inequality(one, w, 2.0, cover)
                assert got == (*(item["value"] for item in rep.items), rep.aggregate["ratio"])
                continue
            with pytest.raises(ValueError, match="imaginary"):
                fs_inequality_rows([rows], w, 2.0, cover)
            with pytest.raises(ValueError, match="imaginary"):
                P.m_sharp_loc(one, 4.0)


# Per-ball full-grid references: every ball is a full scan of the grid and
# each critical ball's family sup runs on the whole circle.


def _scan_mask(grid, ball):
    d2 = grid.wrap(grid.axis_points() - ball.center[0]) ** 2
    return d2 <= (ball.radius * (1.0 + 1e-12)) ** 2


def _reference_multiplicity(cover, sigma):
    total = np.zeros(cover.grid.shape, dtype=int)
    for c in cover.centers:
        total += _scan_mask(cover.grid, P.Ball((c,), sigma))
    return total


def _reference_g_kappa_p(f, kappa, p, cover, n_big):
    """Per ball, every average a math.fsum over a scanned mask."""
    grid = f.grid
    powered = np.abs(f.values) ** p
    box_avg = (math.fsum(powered) / grid.n) ** (1.0 / p)
    values = np.full(grid.shape, -np.inf)
    for center in cover.centers:
        total, k = 0.0, 0
        while True:
            radius = kappa * 2.0**k
            if radius >= grid.half_length:
                total += box_avg * 2.0 ** (-n_big * k) / (1.0 - 2.0 ** (-n_big))
                break
            window = powered[_scan_mask(grid, P.Ball((center,), radius))]
            total += 2.0 ** (-n_big * k) * (math.fsum(window) / len(window)) ** (1.0 / p)
            k += 1
        mask = _scan_mask(grid, P.Ball((center,), 1.0))
        np.maximum(values, np.where(mask, total, -np.inf), out=values)
    return values


def _assert_series_close(got, ref):
    """Every block sum of g_kappa_p is within log2(n) units of roundoff of
    its own exact value, so the series holds 1e-13 relative at every point."""
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def _reference_m_tilde_s(f, s, cover):
    """Per ball, the family sup on the whole circle of the window means of
    |f|^s cut to its 8-dilate, taken on Q_j; the max over the balls, before
    the 1/s root.  Each window sum is exact, an integer prefix of the doubled
    cut row over one power-of-two scale, and rounded once, so it is the value
    math.fsum gives, at a cost linear in n per ball."""
    grid = f.grid
    ratios = [v.as_integer_ratio() for v in (np.abs(f.values) ** s).tolist()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    family, columns, radii, slot = _plan(_family_plan, grid, grid.half_length / 2.0)
    out = np.full(grid.shape, -np.inf)
    for center in cover.centers:
        dilate = _scan_mask(grid, P.Ball((center,), 8.0)).tolist()
        cut = [v if inside else 0 for v, inside in zip(ints, dilate)]
        prefix = [0, *itertools.accumulate(cut + cut)]
        means = [(prefix[a + count] - prefix[a]) / scale / count
                 for _, starts, count in family for a in starts.tolist()]
        sup = np.take(_slot_range_max(np.take(means, columns), radii), slot)
        np.maximum(out, np.where(_scan_mask(grid, P.Ball((center,), 1.0)), sup, -np.inf),
                   out=out)
    return out


def _assert_cover_maximal_close(f, s, cover):
    """m_tilde_s against the exact reference, before the 1/s root.  A window
    mean is a difference of two entries of one prefix of 2n non-negative
    terms, over its count: off by at most 8 n u sum|f|^s / count, and a max
    by at most that at the smallest window."""
    grid = f.grid
    ref = _reference_m_tilde_s(f, s, cover)
    got = P.m_tilde_s(f, s, cover).values.real ** s
    smallest = _family_windows(grid, grid.half_length / 2.0)[0][2]
    u = np.finfo(float).eps / 2.0
    bound = 8 * grid.n * u * math.fsum(np.abs(f.values) ** s) / smallest + 1e-13 * ref
    assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("n", [256, 512])
def test_cover_local_paths_match_full_grid_references(n):
    """Cover arcs give the per-ball full-grid multiplicities, bit for bit, and
    the batched maximal functions the per-ball values within their roundoff."""
    grid = P.make_grid(n, 16.0)
    cover = P.build_critical_cover(grid)
    for sigma in (1.0, 2.0, 4.0, 8.0):
        assert np.array_equal(cover.multiplicity(sigma), _reference_multiplicity(cover, sigma))
    funcs = [f for _, f, _ in mixed_corpus(grid, count=6, seed=3)]
    for f in funcs:
        for kappa, p in ((1.0, 1.5), (4.0, 2.0)):
            _assert_series_close(P.g_kappa_p(f, kappa, p, cover, 8).values.real,
                                 _reference_g_kappa_p(f, kappa, p, cover, 8))
        _assert_cover_maximal_close(f, 1.5, cover)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
       st.one_of(st.just(8.0), st.floats(8.0, 64.0)), st.floats(1.0, 3.0), st.data())
def test_batched_m_tilde_s_matches_the_per_ball_reference(n, half_length, s, data):
    """All balls at once give the per-ball full-grid value within its
    roundoff, also at L = 8 where each 8-dilate is the whole circle and for
    L under 9.5, where a window can meet the dilate on both sides of its gap."""
    grid = P.make_grid(n, half_length)
    cover = P.build_critical_cover(grid)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f = P.SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    _assert_cover_maximal_close(f, s, cover)


def test_series_maximal_keeps_its_accuracy_far_from_a_narrow_packet():
    """A 0.3-wide packet at x = 2.4 on (1024, 16): at every ball the series
    is within 1e-13 relative of the fsum reference.  The balls far from the
    packet read averages of its tail, which a prefix difference of |f|^p over
    the circle cancels against the packet's mass: 7e-5 relative there."""
    grid = P.make_grid(1024, 16.0)
    cover = P.build_critical_cover(grid)
    f = gaussian_packet(grid, 2.4, 0.3)
    _assert_series_close(P.g_kappa_p(f, 1.0, 2.0, cover, 8).values.real,
                         _reference_g_kappa_p(f, 1.0, 2.0, cover, 8))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
       st.one_of(st.just(8.0), st.floats(8.0, 64.0)),
       st.floats(1.0, 3.0, exclude_min=True), st.sampled_from([1.0, 4.0]), st.data())
def test_meeting_sub_cover_is_exact_on_the_marked_points(n, half_length, s, kappa, data):
    """On the critical balls that meet a few small balls, m_tilde_s and
    g_kappa_p equal their full-cover values at every point of those balls,
    also for balls across the seam."""
    grid = P.make_grid(n, half_length)
    cover = P.build_critical_cover(grid)
    seam = [-half_length, half_length - grid.spacing / 2.0]
    ball = st.tuples(st.one_of(st.sampled_from(seam), st.floats(-half_length, half_length)),
                     st.floats(grid.spacing / 2.0, 4.0, exclude_max=True))
    balls = data.draw(st.lists(ball, min_size=1, max_size=3), label="balls")
    idx = np.concatenate([P.ball_indices(grid, P.Ball((c,), r)) for c, r in balls])
    n_big = data.draw(st.integers(int(np.ceil(1.0 / s + 1.0)), 12), label="n_big")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f = P.SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sub = cover.meeting(idx)
    assert np.array_equal(P.m_tilde_s(f, s, sub).values.real[idx],
                          P.m_tilde_s(f, s, cover).values.real[idx])
    assert np.array_equal(P.g_kappa_p(f, kappa, s, sub, n_big).values.real[idx],
                          P.g_kappa_p(f, kappa, s, cover, n_big).values.real[idx])


def test_cover_maximal_plan_is_built_once_per_cover(monkeypatch):
    """Calls with other f and s reuse the cover's plan, every array of it is
    read-only, and it holds no (J, K) array over the K points of each
    8-dilate: a call reads |f|^s through one prefix of the circle."""
    grid = P.make_grid(256, 12.0)
    cover = P.build_critical_cover(grid)
    rng = np.random.default_rng(5)
    _plan.cache_clear()
    built = []
    monkeypatch.setattr(maximal, "_cover_plan", lambda *key: built.append(key) or _cover_plan(*key))
    for s in (1.2, 1.5, 2.5):
        P.m_tilde_s(P.SampledFunction(grid, rng.standard_normal(256) + 0j), s, cover)
    assert built == [(grid, cover.centers)]
    monkeypatch.undo()
    plan = _plan(_cover_plan, grid, cover.centers)
    assert plan is _plan(_cover_plan, grid, cover.centers)
    arrays = [plan.lo, plan.hi, plan.counts, plan.split, plan.lo2, plan.hi2, plan.spread]
    arrays += [reads for _, reads in plan.radii]
    assert not any(a.flags.writeable for a in arrays)
    for a in arrays:
        if a.size:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0
    size = cover.windows(8.0).shape[1]
    assert all(a.size < len(cover.centers) * size for a in arrays)
    assert plan.lo.max() < plan.hi.max() <= 2 * grid.n


def _full_run_plan(grid, centers):
    """The cover plan over every family radius up to L/2, each read as the
    full run of the centers whose windows reach Q_j: as if no radius were
    dropped past the first window that holds an 8-dilate, and no radius
    read two columns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_module, "_dilate_family",
                      lambda grid, size: list(_family_windows(grid, grid.half_length / 2.0)))
        patch.setattr(grid_module, "_pair_centers", lambda *args: None)
        return _cover_plan(grid, centers)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
       st.one_of(st.floats(8.0, 9.5, exclude_max=True), st.floats(8.0, 128.0)),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3), st.integers(0, 2**32 - 1))
@example(1024, 32.0, [], 0).via("L/2 is the first radius holding the dilate")
@example(1024, 64.0, [], 0).via("the trimmed family is shorter")
@example(2048, 100.7, [0.3], 0).via("a sub-cover")
@example(64, 29.0, [], 0).via("every family radius is dilate-wide")
@example(64, 29.0, [0.5, 0.75], 0).via("a sub-cover")
def test_trimmed_cover_plan_gives_the_full_radius_bits(n, half_length, marks, seed):
    """No window past the first radius whose window around the center
    nearest x_j holds the whole 8-dilate decides a max, and a radius whose
    windows are at least as long as the dilate decides it by the two
    centers at and just past x_j: m_tilde_s on the plan equals the plan of
    full runs over every radius up to L/2 bit for bit, on noise and on a
    narrow packet, on the whole cover and on a sub-cover (empty marks: the
    whole cover)."""
    grid = P.make_grid(n, half_length)
    cover = P.build_critical_cover(grid)
    if marks:
        cover = cover.meeting((np.array(marks) * n).astype(int))
    full = _full_run_plan(grid, cover.centers)
    plan = _plan(_cover_plan, grid, cover.centers)
    assert len(plan.radii) <= len(full.radii) and plan.lo.shape[1] <= full.lo.shape[1]
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(n) + 1j * rng.standard_normal(n),
            gaussian_packet(grid, rng.uniform(-half_length, half_length), 0.3).values]
    for values, s in itertools.product(rows, (1.1, 1.5, 2.9)):
        f = P.SampledFunction(grid, values)
        got = P.m_tilde_s(f, s, cover).values
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(maximal, "_cover_plan", lambda *key: full)
            assert np.array_equal(got, P.m_tilde_s(f, s, cover).values)


@pytest.mark.parametrize("n, half_length, columns, widths, full_columns, full_radii", [
    (1024, 32.0, 54, [2, 2, 2, 4, 8, 16], 156, 6),
    (1024, 64.0, 27, [2, 2, 2, 4, 8], 144, 6),
    (2048, 100.7, 44, [2, 2, 4, 8, 16], 275, 7),
    (2048, 16.0, 230, [2, 2, 4, 8, 16, 32, 64], 373, 7),
    (64, 29.0, 5, [2, 2], 8, 2)])
def test_dilate_wide_radii_read_two_columns(n, half_length, columns, widths, full_columns,
                                            full_radii):
    """The plan keeps the family radii up to the first whose window around
    the center nearest x_j holds the whole 8-dilate: at L = 32 that radius
    is L/2 itself, so all 6 stay, and past it the plan has fewer radii than
    the family up to L/2.  At (2048, 16) the radius-8 windows hold the
    dilate's 1025 points and read two columns per ball, in place of the 145
    centers that reach Q_j: 373 columns per ball become 230.  At (64, 29)
    both radii are dilate-wide; the half-8 radius keeps its run, since on a
    ball whose center is a multiple of 8 the runs of Q_j's outer points hold
    only one of the two centers each."""
    grid = P.make_grid(n, half_length)
    cover = P.build_critical_cover(grid)
    plan = _plan(_cover_plan, grid, cover.centers)
    assert plan.lo.shape[1] == columns
    assert [width for width, _ in plan.radii] == widths
    full = _full_run_plan(grid, cover.centers)
    assert (full.lo.shape[1], len(full.radii)) == (full_columns, full_radii)


def test_cover_plan_columns_do_not_grow_with_the_box():
    """At fixed dx the trimmed plan reads the same M columns per ball at
    L = 32, 64 and 128, where the full family grows by a radius per doubling."""
    widths = set()
    for n, half_length in ((1024, 32.0), (2048, 64.0), (4096, 128.0)):
        cover = P.build_critical_cover(P.make_grid(n, half_length))
        plan = _plan(_cover_plan, cover.grid, cover.centers)
        widths.add(plan.lo.shape[1])
    assert len(widths) == 1


def test_slot_reads_are_counted_per_block_and_class(monkeypatch):
    """At n = 2048, L = 16 the range max reads slots, not points: per radius,
    the cover plan holds at most two reads per slot of each Q_j, slots being
    2 classes times at most |Q|/8 + 2 blocks (a read per point would be
    2 J |Q|), and the family plan, built once for any row count, holds two
    reads per slot of the circle, shared by every row.  The dyadic families
    have exactly the classes {0} and {1..7}.  A half of 8q + 3 splits them
    further where its runs start and end one center later, at residues 5 and
    4: {0}, {1, 2, 3}, {4} and {5, 6, 7}."""
    grid = P.make_grid(2048, 16.0)
    cover = P.build_critical_cover(grid)
    size_q = cover.windows(1.0).shape[1]
    plan = _plan(_cover_plan, grid, cover.centers)
    slots = 2 * (size_q // 8 + 2)
    assert len(plan.radii) == 7
    for _, reads in plan.radii:
        assert reads.shape == (2, len(cover.centers), reads.shape[2])
        assert reads.size <= 2 * len(cover.centers) * slots < 2 * len(cover.centers) * size_q
    for alpha, classes in ((0.5, 2), (4.0, 2), (8.0, 2), (4.0 + 3 * grid.spacing, 4)):
        _plan.cache_clear()
        built = []
        monkeypatch.setattr(grid_module, "_family_plan",
                            lambda *key: built.append(key) or _family_plan(*key))
        for rows in (1, 8):
            _sup_over_family_rows(np.ones((rows, grid.n)), grid, alpha, osc=False)
        monkeypatch.undo()
        assert built == [(grid, alpha)]
        _, _, radii, slot = _plan(_family_plan, grid, alpha)
        assert np.array_equal(np.unique(slot % classes), np.arange(classes))
        assert all(reads.shape == (2, grid.n // 8 * classes) for _, reads in radii)
        residue_class = {2: [0, 1, 1, 1, 1, 1, 1, 1], 4: [0, 1, 1, 1, 2, 3, 3, 3]}[classes]
        assert np.array_equal(slot, np.arange(grid.n) // 8 * classes
                              + np.take(residue_class, np.arange(grid.n) % 8))


def test_covering_table_lists_the_balls_holding_each_point(grid, cover):
    """Column x of the covering table holds, ascending, every ball Q_j that
    holds grid point x, then the padding J; on a sub-cover too."""
    for balls in (cover, cover.meeting(np.arange(40, 60))):
        table = _plan(_covering, grid, balls.centers)
        q = balls.windows(1.0)
        assert not table.flags.writeable
        assert table.shape == (np.max(balls.multiplicity(1.0)), grid.n)
        for x in range(grid.n):
            held = np.flatnonzero(np.any(q == x, axis=1))
            assert np.array_equal(table[:, x], np.pad(held, (0, len(table) - len(held)),
                                                      constant_values=len(q)))


def test_cover_multiplicity_is_controlled(cover):
    for sigma in (1.0, 2.0, 4.0, 8.0):
        mult = int(np.max(cover.multiplicity(sigma)))
        assert mult <= 10.0 * sigma


def test_local_maximal_dominates_function(grid):
    f = P.sample(grid, lambda x: (np.abs(x) <= 1.0).astype(float))
    m = P.m_loc(f, 1.0)
    assert float(np.max(m.values.real)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(m.values.real >= -1e-15)


def test_local_sharp_of_indicator(grid):
    f = P.sample(grid, lambda x: (np.abs(x) <= 1.0).astype(float))
    ms = P.m_sharp_loc(f, 1.0)
    # largest mean oscillation straddles the jump
    assert float(np.max(ms.values.real)) == pytest.approx(0.4998816568047337, rel=1e-9)


def test_series_maximal_of_constant_is_exact(grid, cover):
    one = P.sample(grid, lambda x: np.ones_like(x))
    gk = P.g_kappa_p(one, 1.0, 2.0, cover, n_big=8)
    analytic = 1.0 / (1.0 - 2.0 ** -8)
    assert float(np.max(np.abs(gk.values.real - analytic))) < 1e-13
    assert float(np.min(gk.values.real)) == pytest.approx(analytic, rel=1e-13)


def test_cover_maximal_of_constant_is_one(grid, cover):
    one = P.sample(grid, lambda x: np.ones_like(x))
    mt = P.m_tilde_s(one, 1.5, cover)
    assert float(np.max(mt.values.real)) == 1.0
    assert float(np.min(mt.values.real)) == 1.0


def test_sharp_control_on_constant(grid, cover):
    one = P.sample(grid, lambda x: np.ones_like(x))
    w = P.preset_weight("power_growth", grid, gamma=1.5)
    rep = P.check_fs_inequality(one, w, 2.0, cover)
    assert rep.verdict == "pass"
    assert rep.aggregate["ratio"] == pytest.approx(0.20446992073866574, rel=1e-9)


def test_sharp_control_over_mixed_corpus(grid, cover):
    w = P.preset_weight("power_growth", grid, gamma=1.5)
    ratios = []
    for _, f, _ in mixed_corpus(grid, count=30, seed=7):
        ratios.append(P.check_fs_inequality(f, w, 2.0, cover).aggregate["ratio"])
    ratios = np.array(ratios)
    assert len(ratios) == 30
    assert ratios.max() <= 4.0 * np.median(ratios)


def test_weighted_maximal_bounds_frozen(grid, cover):
    w = P.preset_weight("power_growth", grid, gamma=1.5)
    half = grid.half_length
    corpus = gaussian_corpus(grid, centers=np.linspace(0.4 * half, 0.5 * half, 6),
                             widths=(0.6, 1.0, 1.8), modulations=(0,))
    rep = P.check_weighted_bounds_maximal(corpus, w, 2.0, 1.5, 1.5, cover)
    assert rep.verdict == "pass"
    agg = rep.aggregate
    assert agg["series_max"] == pytest.approx(1.2749422677783737, rel=1e-9)
    assert agg["cover_max"] == pytest.approx(1.895807980930648, rel=1e-9)
    assert abs(agg["series_trend"]) <= 0.1
    assert abs(agg["cover_trend"]) <= 0.1
    assert agg["gate_stable"] is True


def _reference_doubled_prefix_rows(x):
    """The family sups' doubled prefix of a (rows, n) stack, written out."""
    count_rows, n = x.shape
    cs = np.zeros((count_rows, 2 * n + 1))
    cs[:, 1 : n + 1] = x
    cs[:, n + 1 :] = x
    np.cumsum(cs[:, 1:], axis=1, out=cs[:, 1:])
    return cs


def _reference_doubled_prefix(v):
    """m_tilde_s's doubled prefix of one row, written out."""
    n = v.size
    prefix = np.zeros(2 * n + 1)
    prefix[1 : n + 1] = v
    prefix[n + 1 :] = prefix[1 : n + 1]
    np.cumsum(prefix[1:], out=prefix[1:])
    return prefix


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_doubled_prefix_equals_the_per_row_prefixes(n):
    """One doubled prefix serves the family sups' stacks and m_tilde_s's
    single row: each row of a stack's prefix is the row's own prefix, and
    both are the written-out expressions, bit for bit."""
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((5, n)) * np.array([1e-8, 1.0, 1e3, 0.0, 1e12])[:, None]
    got = _doubled_prefix(stack)
    assert got.dtype == np.float64
    assert np.array_equal(got, _reference_doubled_prefix_rows(stack))
    for row, prefix in zip(stack, got):
        assert np.array_equal(_doubled_prefix(row), prefix)
        assert np.array_equal(_reference_doubled_prefix(row), prefix)


@pytest.mark.parametrize("n, half_length", [(256, 8.0), (1024, 16.0), (2048, 12.0), (8192, 128.0)])
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_window_means_equal_the_per_row_gathers(n, half_length, radius):
    """The cover-window means of a stack, a mean over the last axis of its
    (rows, J, K) gather, equal each row's own (J, K) gather and the
    (rows * J, K) view bit for bit: numpy reduces each contiguous last-axis
    row alike whatever the leading shape."""
    grid = P.make_grid(n, half_length)
    windows = P.build_critical_cover(grid).windows(radius)
    rng = np.random.default_rng(n)
    stack = np.abs(rng.standard_normal((7, n))) * np.geomspace(1e-6, 1e6, 7)[:, None]
    got = _gathered(stack, windows)
    assert got.shape == (7, len(windows))
    want = np.mean(np.take(stack, windows, axis=1).reshape(-1, windows.shape[1]), axis=1)
    assert np.array_equal(got, want.reshape(7, -1))
    for row, means in zip(stack, got):
        assert np.array_equal(np.mean(np.take(row, windows), axis=1), means)
