import dataclasses
import tracemalloc

import numpy as np
import pytest

import psdolab as P
from psdolab import operators
from psdolab.grid import SampledFunction, idft, idft_rows
from psdolab.kernels import _annulus_points, _ball_pairs, _pair_differences, default_base_points
from psdolab.operators import OperatorInstance, _held


@pytest.fixture(scope="module")
def decay_op(grid):
    return OperatorInstance(P.preset_symbol("bessel_order_m", m=-0.75), grid)


def test_dyadic_kernel_materializes(decay_op):
    dk = P.materialize_dyadic_kernel(decay_op, 4)
    assert dk.k == 4
    assert dk.values.shape[0] == dk.x_samples.shape[0]
    assert np.all(np.isfinite(dk.box_integrals))


@pytest.mark.parametrize("preset,params", [
    ("rough_x_modulated", {"m": 0.0}),
    ("oscillating_amplitude", {"m": -0.5, "rho": 0.5, "delta": 0.5}),
])
def test_dyadic_kernel_matches_direct_sum(preset, params):
    """K_k(x, z) = sum_m a(x, x - z, xi_m) phi_k(xi_m) e^{i z xi_m} dxi / 2pi at
    every base point and half-box offset, the y slot of the amplitude moving
    with z."""
    g = P.make_grid(128, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    xi = g.axis_freqs()[None, :]
    w = op.family.piece_on_lattice(2) * g.freq_spacing / (2.0 * np.pi)
    dk = P.materialize_dyadic_kernel(op, 2)
    z = dk.offsets[:, None]
    for x, got in zip(dk.x_samples, dk.values):
        ref = np.exp(1j * z * xi) * op.symbol.evaluator(x, x - z, xi) @ w
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_unresolved_piece_is_refused(decay_op, lp):
    with pytest.raises(ValueError):
        P.materialize_dyadic_kernel(decay_op, lp.max_index)


def test_default_base_points_stay_in_box(decay_op, grid):
    pts = default_base_points(decay_op, count=8)
    assert pts.shape[0] == 8
    assert np.all(np.abs(pts) <= grid.half_length)


@pytest.mark.parametrize("ell,slope,expected", [
    (0, 0.25995218662207176, 0.25),
    (1, -0.7396510055387842, -0.75),
    (2, -1.735718950665486, -1.75),
])
def test_piecewise_decay_slopes(decay_op, ell, slope, expected):
    """Weighted box integrals of the dyadic pieces follow 2^(k(n+m-rho*ell))."""
    (fit,) = P.fit_decay_in_k(decay_op, (ell,), k_range=range(2, 6))
    assert fit.expected_slope == expected
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.criterion == "match"
    assert fit.r_squared > 0.999


def test_difference_estimate_windows(decay_op):
    ball = P.Ball((0.0,), 0.5)
    de = P.fit_difference_estimate(decay_op, ball, j_range=range(2, 5),
                                   k_range=range(2, 6))
    assert de.j_fit.slope == pytest.approx(-2.0396137816250666, rel=1e-9)
    assert de.j_fit.criterion == "at_most"
    assert de.k_fit.slope == pytest.approx(-1.646929761169774, rel=1e-9)
    assert de.k_fit.criterion == "negative"
    assert de.j_fit.r_squared > 0.98 and de.k_fit.r_squared > 0.97


def test_difference_vanishes_at_equal_points(decay_op):
    tw = P.band_limited_twin(decay_op)
    x = 0.3
    assert np.max(np.abs(P.kernel_row(tw, x) - P.kernel_row(tw, x))) == 0.0


def test_band_limited_twin_kills_lattice_ringing(decay_op, grid):
    """The hard lattice cutoff rings like 1/|z|; the smooth twin decays fast.

    On lattice points the full-band row telescopes the ringing away, so the
    comparison only bites at an off-lattice base point.
    """
    x = 0.0131
    tw = P.band_limited_twin(decay_op)
    row = np.abs(P.kernel_row(tw, x))
    raw = np.abs(P.kernel_row(decay_op, x))
    pts = grid.axis_points()
    far = (np.abs(pts - x) >= 6.0) & (np.abs(pts - x) <= 10.0)
    assert row[far].max() / row.max() < 2e-4
    assert row[far].mean() < 0.1 * raw[far].mean()


def test_adjoint_kernel_bounds_bessel(decay_op):
    rep = P.adjoint_kernel_bounds(decay_op, n_exp=2)
    assert rep.far_field.passed and rep.difference.passed
    assert rep.far_field.slope == pytest.approx(-3.2144230401751916, rel=1e-9)
    assert rep.difference.slope == pytest.approx(-2.2633438930130994, rel=1e-9)
    assert rep.weighted_far_over_peak == pytest.approx(0.09805028729960254, rel=1e-9)


def test_adjoint_kernel_bounds_identity(grid):
    op = P.make_operator(P.preset_symbol("identity"), grid)
    rep = P.adjoint_kernel_bounds(op, n_exp=2)
    assert rep.far_field.passed and rep.difference.passed
    # a delta kernel leaves essentially nothing outside the diagonal
    assert rep.weighted_far_over_peak < 1e-3


# ---------------------------------------------------------------------------
# The stacked kernel paths against per-point references.
# ---------------------------------------------------------------------------

KERNEL_PRESETS = [
    ("identity", {}),
    ("bessel_order_m", {"m": -0.75}),
    ("rough_x_modulated", {"m": 0.0}),
    ("oscillating_amplitude", {"m": -0.75, "rho": 0.5, "delta": 0.5}),
]


def _long_double_differences(op, xs, pairs, bands):
    """The lattice sums of _pair_differences in np.clongdouble, the symbol
    values taken in double, and n u max over (x, pair) of
    sum |band a| (|a(x, y)| + |a(x, ybar)|) dxi/2pi, the summation bound on
    each entry's error."""
    g = op.grid
    xis = g.axis_freqs()
    scale = np.longdouble(g.freq_spacing) / (2 * np.pi)
    wide = bands.astype(np.clongdouble)
    best = np.zeros(len(bands), dtype=np.longdouble)
    bound = np.zeros(len(bands))
    for x in xs:
        for y1, y2 in pairs:
            vals, mass = [], 0.0
            for y in (y1, y2):
                a = np.broadcast_to(op.symbol.evaluator(x, y, xis), xis.shape)
                arg = xis.astype(np.longdouble) * (np.longdouble(x) - np.longdouble(y))
                vals.append(wide @ (a.astype(np.clongdouble) * np.exp(1j * arg)) * scale)
                mass = mass + np.abs(bands) @ np.abs(a) * (g.freq_spacing / (2.0 * np.pi))
            best = np.maximum(best, np.abs(vals[0] - vals[1]))
            bound = np.maximum(bound, g.n * np.finfo(float).eps / 2 * mass)
    return best, bound


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("preset,params", KERNEL_PRESETS)
def test_pair_differences_equal_per_annulus_calls(n, preset, params):
    """Live frequencies only, all points of an annulus in one block, all
    annuli in one call: for the difference table's bands and for the
    band-limited twin's band (1303 live columns at n = 2048), each row has
    the bits of one call per annulus, and is within the summation bound
    n u sum |band a| of the long-double lattice sums."""
    g = P.make_grid(n, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    ball = P.Ball((0.0,), 0.25)
    pairs = _ball_pairs(ball)
    bands = np.stack([op.family.piece_profile(k, g.axis_freqs()) for k in range(6)])
    twin = P.band_limited_twin(op)
    sets = [_annulus_points(ball, j, 6) for j in (3, 4, 5)]
    for member, band in ((op, bands), (twin, twin.band[None, :])):
        table = _pair_differences(member, sets, pairs, band)
        assert table.shape == (len(sets), len(band))
        for xs, row in zip(sets, table):
            assert np.array_equal(row, _pair_differences(member, [xs], pairs, band)[0])
            ref, bound = _long_double_differences(member, xs, pairs, band)
            assert np.all(np.abs(row - ref) <= bound)


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("length", [8.0, 16.0, 16.5, 64.0])
@pytest.mark.parametrize("preset,params", KERNEL_PRESETS)
def test_pair_differences_meet_the_summation_bound(n, length, preset, params):
    """Against a long-double evaluation of the same lattice sums, each entry
    of the one-call table, for the table's resolved bands and for the twin's
    band, is within the standard summation bound n u sum |band a|."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    g = P.make_grid(n, length)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    ball = P.Ball((0.0,), 0.25)
    pairs = _ball_pairs(ball)
    ks = [k for k in range(6) if op.family.resolves(k)]
    bands = np.stack([op.family.piece_profile(k, g.axis_freqs()) for k in ks])
    twin = P.band_limited_twin(op)
    sets = [_annulus_points(ball, j, 6) for j in (2, 3, 4)]
    for member, band in ((op, bands), (twin, twin.band[None, :])):
        table = _pair_differences(member, sets, pairs, band)
        for xs, row in zip(sets, table):
            ref, bound = _long_double_differences(member, xs, pairs, band)
            assert np.all(np.abs(row - ref) <= bound)


@pytest.mark.parametrize("preset,params", KERNEL_PRESETS)
def test_dyadic_kernel_equals_per_point_rows(preset, params):
    """The stacked offset rows equal, bit for bit, one _held and one idft per
    factor taken one base point at a time, in values and box integrals."""
    g = P.make_grid(1024, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    weight = op.family.piece_on_lattice(3) * (g.freq_spacing / (2.0 * np.pi))
    dk = P.materialize_dyadic_kernel(op, 3)
    z = g.axis_points()
    mask = np.abs(z) <= g.half_length / 2.0 + 1e-12
    y_factors = op._terms[0].y_factors
    for x, got, integral in zip(dk.x_samples, dk.values, dk.box_integrals):
        full = None
        for q, c in _held(op, np.array([x]), 0, weight).items():
            part = idft(SampledFunction(g.reciprocal(), c.reshape(-1))).values * (
                (2.0 * np.pi) ** 0.5 / g.freq_spacing)
            if y_factors[q] is not None:
                part = y_factors[q](x - z) * part
            full = part if full is None else full + part
        assert np.array_equal(got, full[mask])
        assert integral == np.sum(full) * g.spacing


def test_difference_table_evaluates_only_live_frequencies():
    """The evaluator sees only the frequencies where some band is nonzero,
    twice per call (y and ybar for every point at once): a full-lattice
    evaluation per point must not come back."""
    g = P.make_grid(2048, 16.0)
    base = P.preset_symbol("bessel_order_m", m=-0.75)
    seen = []

    def recorder(x, y, xi):
        seen.append((np.shape(x), np.asarray(xi).copy()))
        return base.evaluator(x, y, xi)

    op = OperatorInstance(dataclasses.replace(base, evaluator=recorder), g)
    ball = P.Ball((0.0,), 0.25)
    ks = range(0, 6)
    bands = np.stack([op.family.piece_profile(k, g.axis_freqs()) for k in ks])
    live = g.axis_freqs()[np.any(bands != 0.0, axis=0)]
    assert 0 < live.size < g.n // 2
    P.fit_difference_estimate(op, ball, j_range=range(3, 6), k_range=ks)
    assert len(seen) == 2 * 3
    for shape, xi in seen:
        assert shape == (18, 1)
        assert np.array_equal(xi, live)


def test_pair_differences_footprint_does_not_grow_with_n():
    """At a fixed 630 live columns (pieces 2..5 at L = 16), the traced peak of
    one difference table does not grow with the lattice: the call holds no
    complex block over the full lattice."""
    ball = P.Ball((0.0,), 0.5)
    sets = [_annulus_points(ball, j, 6) for j in (2, 3, 4)]
    peaks = []
    for n in (1024, 4096):
        g = P.make_grid(n, 16.0)
        op = OperatorInstance(P.preset_symbol("bessel_order_m", m=-0.75), g)
        bands = np.stack([op.family.piece_profile(k, g.axis_freqs()) for k in range(2, 6)])
        assert np.count_nonzero(np.any(bands != 0.0, axis=0)) == 630
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _pair_differences(op, sets, _ball_pairs(ball), bands)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_multiplier_offset_rows_take_one_transform(monkeypatch):
    """A symbol with no x- or y-factor has one offset row for all 8 base
    points: materialize_dyadic_kernel transforms one row, not 8 equal ones."""
    g = P.make_grid(1024, 16.0)
    op = P.make_operator(P.preset_symbol("bessel_order_m", m=-0.75), g)
    transformed = []

    def recorded(grid, rows):
        transformed.append(np.shape(rows))
        return idft_rows(grid, rows)

    monkeypatch.setattr(operators, "idft_rows", recorded)
    dk = P.materialize_dyadic_kernel(op, 4)
    assert transformed == [(g.n,)]
    assert dk.values.shape == (8, dk.offsets.size)
    assert all(np.array_equal(row, dk.values[0]) for row in dk.values)
