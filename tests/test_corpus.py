import numpy as np
import pytest

from psdolab import make_grid
from psdolab.corpus import (band_noise, gaussian_corpus, gaussian_packet, item_shift,
                            mixed_corpus, noise_corpus)


@pytest.fixture(scope="module")
def g():
    return make_grid(512, 16.0)


def test_packet_peaks_at_center(g):
    f = gaussian_packet(g, center=3.0, width=0.8)
    pts = g.axis_points()
    peak = pts[np.argmax(np.abs(f.values))]
    assert peak == pytest.approx(3.0, abs=g.spacing)


def test_modulated_packet_shifts_spectrum(g):
    from psdolab import dft
    q = 10
    f = gaussian_packet(g, center=0.0, width=1.0, modulation=q)
    spec = np.abs(dft(f).values)
    xi = g.axis_freqs()
    assert xi[np.argmax(spec)] == pytest.approx(q * g.freq_spacing, abs=g.freq_spacing)


def test_band_noise_is_seeded(g):
    a = band_noise(g, seed=3)
    b = band_noise(g, seed=3)
    c = band_noise(g, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.max(np.abs(a.values)) == pytest.approx(1.0, rel=1e-12)


def test_default_sweep_avoids_origin(g):
    items = list(gaussian_corpus(g))
    centers = sorted({it.params["center"] for it in items})
    # the power weight has a cusp at the origin; packets straddling it read
    # as a spurious trend, so the default sweep starts away from zero
    assert centers[0] == pytest.approx(0.15 * g.half_length)
    assert centers[-1] == pytest.approx(0.375 * g.half_length)
    assert len(items) == 6 * 3 * 3


def test_corpus_labels_are_unique(g):
    items = list(mixed_corpus(g, count=30, seed=7))
    labels = [it.label for it in items]
    assert len(set(labels)) == 30


def test_mixed_corpus_composition(g):
    items = list(mixed_corpus(g, count=30, seed=7))
    noise = [it for it in items if it.label.startswith("noise")]
    gauss = [it for it in items if it.label.startswith("gauss")]
    assert len(noise) == 10
    assert len(gauss) == 20


def test_noise_corpus_reproducible(g):
    a = [f.values for _, f, _ in noise_corpus(g, count=4, seed=11)]
    b = [f.values for _, f, _ in noise_corpus(g, count=4, seed=11)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_corpus_item_iterates_as_triple(g):
    item = next(iter(gaussian_corpus(g)))
    label, fn, params = item
    assert isinstance(label, str)
    assert fn.values.shape == g.shape
    assert "center" in params


@pytest.mark.parametrize("n,half", [(256, 16.0), (1024, 16.0), (2048, 20.0)])
def test_corpus_values_equal_per_item_packets(n, half):
    """gaussian_corpus shares displacements, envelopes and phases across items;
    every value is still exactly the packet built alone."""
    grid = make_grid(n, half)
    items = gaussian_corpus(grid, widths=(0.6, 1.0, 1.8), modulations=(0, 4, 12, -3))
    assert len(items) == 6 * 3 * 4
    for _, fn, params in items:
        alone = gaussian_packet(grid, center=params["center"], width=params["width"],
                                modulation=params["modulation"])
        assert np.array_equal(fn.values, alone.values)


# The packet and the cosine sum written out term by term: the outputs of
# gaussian_packet, gaussian_corpus and band_noise must equal them bit for
# bit, dtype included, on every grid below.
_GRIDS = [(n, half) for n in (256, 1024, 2048, 4096) for half in (8.0, 12.0, 16.0, 64.0)]
_SEEDS = (0, 3, 7, 12345)


def _reference_packet(grid, center, width, modulation):
    disp = grid.wrap(grid.axis_points() - float(center))
    vals = np.exp(-(disp * disp) / (2.0 * width * width))
    if not modulation:
        return vals
    lam = int(modulation) * grid.freq_spacing
    return vals * np.exp(1j * lam * grid.axis_points())


def _reference_band_noise(grid, seed):
    rng = np.random.default_rng(seed)
    base = grid.freq_spacing
    x = grid.axis_points()
    u = np.zeros(grid.n)
    for k in range(1, 9):
        coef = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u = u + coef * np.cos(base * k * x + phase)
    sup = float(np.max(np.abs(u)))
    if sup > 0:
        u = u * (1.0 / sup)
    return u


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, half", _GRIDS)
def test_packets_and_noise_equal_the_written_out_arithmetic(n, half):
    grid = make_grid(n, half)
    centers = (0.0, 0.3 * half, -0.45 * half, half - 1.0)
    widths = (0.6, 1.0, 1.8)
    modulations = (0, 4, 12)
    items = gaussian_corpus(grid, centers, widths, modulations)
    assert len(items) == len(centers) * len(widths) * len(modulations)
    for _, fn, params in items:
        c, w, q = params["center"], params["width"], params["modulation"]
        want = _reference_packet(grid, c, w, q)
        _assert_same_bits(fn.values, want)
        _assert_same_bits(gaussian_packet(grid, c, w, q).values, want)
    for seed in _SEEDS:
        _assert_same_bits(band_noise(grid, seed).values, _reference_band_noise(grid, seed))


def test_item_shift_is_the_distance_of_the_shift_or_none(g):
    """Every item of a Gaussian corpus carries its center as its shift;
    a noise item carries none."""
    for _, _, params in gaussian_corpus(g, centers=[-2.0, 3.0]):
        assert item_shift(params) == abs(params["center"])
    assert item_shift({"shift": -1.5}) == 1.5
    assert [item_shift(params) for *_, params in noise_corpus(g, 2, 0)] == [None, None]
