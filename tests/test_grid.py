import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdolab as P
from psdolab.function_classes import WeightFn
from conftest import full_scan
from psdolab.grid import _family_windows, dft_rows, idft_rows, lp_norms


def test_grid_basic_geometry(grid):
    assert grid.shape == (1024,)
    assert grid.size == 1024
    assert grid.spacing == pytest.approx(32.0 / 1024)
    pts = grid.axis_points()
    assert pts.shape == (1024,)
    assert pts[0] == -16.0
    assert pts[-1] == pytest.approx(16.0 - grid.spacing)


def test_wrap_is_periodic(grid):
    z = grid.wrap(np.array([[17.0]]))
    assert z[0, 0] == pytest.approx(-15.0)
    z = grid.wrap(np.array([[-16.5]]))
    assert z[0, 0] == pytest.approx(15.5)


@settings(max_examples=30, deadline=None)
@given(st.floats(-200.0, 200.0))
def test_wrap_lands_in_fundamental_cell(x):
    g = P.make_grid(64, 16.0)
    z = g.wrap(np.array([[x]]))[0, 0]
    assert -16.0 <= z < 16.0
    # wrapping changes the point by a whole period only
    assert (x - z) / 32.0 == pytest.approx(round((x - z) / 32.0), abs=1e-9)


def test_dft_idft_roundtrip(grid, packet):
    back = P.idft(P.dft(packet))
    assert np.max(np.abs(back.values - packet.values)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), st.floats(4.0, 64.0),
       st.integers(0, 2**32 - 1))
def test_dft_unitary_parseval(n, half_length, seed):
    """<f, g> = <Ff, Fg> on every grid, up to the FFT's roundoff."""
    grid = P.make_grid(n, half_length)
    rng = np.random.default_rng(seed)
    f, g = (P.SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for _ in range(2))
    scale = P.lp_norm(f, 2.0) * P.lp_norm(g, 2.0)
    assert abs(P.inner(f, g) - P.inner(P.dft(f), P.dft(g))) < 1e-12 * scale
    assert abs(P.lp_norm(P.dft(f), 2.0) - P.lp_norm(f, 2.0)) < 1e-12 * P.lp_norm(f, 2.0)


@pytest.mark.parametrize("n", [2**k for k in range(6, 14)])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_transforms_are_the_fftshift_form_bit_for_bit(n, rows, kind):
    """The half swap is fftshift and ifftshift on every grid: dft_rows and
    idft_rows equal fftshift(fft(ifftshift(x))) times their constant, bit
    for bit, on real and complex stacks."""
    grid = P.make_grid(n, 16.0)
    spectra = grid.reciprocal()
    rng = np.random.default_rng(n + rows)
    x = rng.standard_normal((rows, n))
    if kind == "complex":
        x = x + 1j * rng.standard_normal((rows, n))
    fwd = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x, axes=-1), axis=-1), axes=-1)
    inv = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(x, axes=-1), axis=-1), axes=-1)
    for got, want in (
        (dft_rows(grid, x), fwd * (grid.spacing / (2.0 * np.pi) ** 0.5)),
        (idft_rows(spectra, x), inv * ((2.0 * np.pi) ** 0.5 / spectra.reciprocal().spacing)),
    ):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lp_norm_indicator(grid):
    ind = P.sample(grid, lambda x: (np.abs(x) <= 1.0).astype(float))
    # |[-1, 1]| = 2, so the L^2 norm is sqrt(2) up to lattice rounding
    assert P.lp_norm(ind, 2.0) == pytest.approx(np.sqrt(2.0), rel=0.02)


def test_real_samples_stay_real(grid):
    """Real data stay float64 where they are made: unmodulated packets, band
    noise, the multiplier and weight presets and the four maximal functions.
    Modulated packets, spectra and operator outputs stay complex128.  A
    float64 array is wrapped without a copy, and real_values returns it."""
    cover = P.build_critical_cover(grid)
    f = P.gaussian_packet(grid, 2.0, 1.0)
    real = [f, P.band_noise(grid, 3), P.m_loc(f, 2.0), P.m_sharp_loc(f, 2.0),
            P.g_kappa_p(f, 1.0, 2.0, cover), P.m_tilde_s(f, 1.5, cover),
            *(P.preset_bmo(name, grid) for name in ("constant", "linear", "triangle")),
            *(P.preset_weight(name, grid).fn
              for name in ("unit", "power_growth", "exp_abs", "random_log_bounded")),
            *(item.fn for item in P.gaussian_corpus(grid, modulations=(0,)))]
    for g in real:
        assert g.values.dtype == np.float64
        assert g.real_values() is g.values
    op = P.make_operator(P.preset_symbol("bessel_order_m", m=-0.75), grid)
    for g in (P.gaussian_packet(grid, 2.0, 1.0, modulation=4), P.apply(op, f), P.dft(f)):
        assert g.values.dtype == np.complex128
    raw = np.ones(grid.n)
    assert P.SampledFunction(grid, raw).values is raw


def test_lp_norm_weighted(grid):
    one = P.sample(grid, lambda x: np.ones_like(x))
    w = P.preset_weight("unit", grid)
    total = P.lp_norm(one, 2.0, weight=w.values)
    assert total == pytest.approx(np.sqrt(32.0), rel=1e-12)


def test_complex_weight_is_refused(grid):
    """A weight whose imaginary part exceeds 1e-12 of its scale is refused
    by WeightFn and, as an array, by lp_norms; below that its real part is
    the weight."""
    rows = np.ones((2, grid.n))
    bad = P.SampledFunction(grid, np.ones(grid.n) + 1e-9j)
    with pytest.raises(ValueError, match="imaginary"):
        WeightFn(bad, "bad")
    with pytest.raises(ValueError, match="imaginary"):
        lp_norms(grid, rows, 2.0, weight=bad.values)
    near = P.SampledFunction(grid, np.ones(grid.n) + 1e-14j)
    assert WeightFn(near, "near").values.dtype == np.float64
    assert lp_norms(grid, rows, 2.0, weight=near.values) == lp_norms(grid, rows, 2.0)


def test_a_cap_below_the_least_radius_is_refused_by_name(grid):
    """The sweep radii start at 8 dx; a cap under it is refused once, named
    as the caller names it, and a cap at it gives that one radius."""
    least = 8.0 * grid.spacing
    with pytest.raises(ValueError, match=f"^radius cap {least / 2} below the minimum "
                                         f"family radius {least}$"):
        P.sweep_family(grid, radius_cap=least / 2)
    with pytest.raises(ValueError, match=f"^alpha {least / 2} below the minimum "
                                         f"family radius {least}$"):
        _family_windows(grid, least / 2)
    assert P.sweep_family(grid, radius_cap=least).radii() == (least,)
    assert [r for r, _, _ in _family_windows(grid, least)] == [least]


def test_ball_average_of_linear_function(grid):
    f = P.sample(grid, lambda x: x)
    ball = P.Ball((3.0,), 1.0)
    # symmetric window centered at 3: the average recovers the center
    assert np.mean(f.values[P.ball_indices(grid, ball)]) == pytest.approx(3.0, abs=grid.spacing)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ball_indices_match_full_scan(data):
    """The arc rule finds the full scan's points, in ascending order."""
    n = data.draw(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), label="n")
    half = data.draw(st.one_of(st.sampled_from([4.0, 16.0, 64.0]), st.floats(4.0, 64.0)),
                     label="L")
    grid = P.make_grid(n, half)
    coord = st.one_of(
        st.floats(-half, half),                                        # off the lattice
        st.integers(0, n - 1).map(lambda i: float(grid.axis_points()[i])),  # on it
        st.sampled_from([-half, half]),                                # box edge
    )
    center = (data.draw(coord, label="center"),)
    radius = data.draw(st.one_of(
        st.floats(0.0, half, exclude_min=True),
        st.integers(1, n // 2).map(lambda k: k * grid.spacing),       # lattice multiples
    ), label="radius")
    ball = P.Ball(center, radius)
    expected = full_scan(grid, ball)
    assert np.array_equal(P.ball_indices(grid, ball), expected)
    assert np.array_equal(np.flatnonzero(P.ball_mask(grid, ball)), expected)


def test_ball_dilate_and_inside():
    b = P.Ball((1.0,), 2.0)
    d = b.dilate(3.0)
    assert d.radius == 6.0
    assert d.center == b.center
    g = P.make_grid(64, 16.0)
    assert b.fully_inside(g)
    assert not P.Ball((15.0,), 2.0).fully_inside(g)


def test_sweep_family_respects_box(grid):
    fam = P.sweep_family(grid, inside_only=True)
    assert len(fam.centers) == len(fam.ball_radii) > 10
    for c, r in zip(fam.centers, fam.ball_radii):
        assert P.Ball((c,), r).fully_inside(grid)


def test_sampled_function_shape_mismatch(grid):
    with pytest.raises(ValueError):
        P.SampledFunction(grid, np.zeros(7))


def test_grid_compatibility(grid):
    other = P.make_grid(1024, 16.0)
    assert grid.is_compatible(other)
    assert not grid.is_compatible(P.make_grid(512, 16.0))
