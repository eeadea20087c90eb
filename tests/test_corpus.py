import numpy as np
import pytest

from psdolab import make_grid
from psdolab.corpus import (band_noise, gaussian_corpus, gaussian_packet,
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
