"""Deterministic test-function corpora for the operator experiments.

Gaussian packets swept in center, width, and modulation.  The center sweep
deliberately pushes mass toward the box edge: growing weights are largest
there, so that is where a bad operator family first shows ratio drift.
Modulation counts frequency-lattice steps, keeping every factor exactly
periodic over the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, SampledFunction

__all__ = [
    "gaussian_packet",
    "band_noise",
    "gaussian_corpus",
    "mixed_corpus",
    "corpus_blocks",
    "item_shift",
]

# Sample values per block of stacked corpus rows: 8 rows at n = 1024, 4 at
# 2048.  A block's FFT temporaries stay about 128 KB whatever the grid, where
# one stack of a whole 54-item corpus raised a run's peak memory by 7-14 MB.
BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class CorpusItem:
    """One labeled test function with the parameters used to build it.

    Iterates as (label, fn, params) so corpora unpack directly in the
    ratio loops.  params carries "shift" whenever a translation-trend
    regression makes sense for the item.
    """

    label: str
    fn: SampledFunction
    params: dict = field(compare=False)

    def __iter__(self):
        yield self.label
        yield self.fn
        yield self.params


def item_shift(params: dict) -> float | None:
    """The one reading of a corpus item's shift, the translation trend's
    regressor: |params["shift"]|, or None for an item that carries none,
    which leaves its corpus without a trend."""
    return abs(float(params["shift"])) if "shift" in params else None


def _check_width(width) -> float:
    width = float(width)
    if not width > 0:
        raise ValueError(f"width must be positive, got {width:g}")
    return width


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"a corpus needs at least one item, got {count}")


def gaussian_packet(
    grid: PeriodicGrid, center: float = 0.0, width: float = 1.0, modulation: int = 0
) -> SampledFunction:
    """exp(-|x-c|^2 / (2 w^2)) e^{i q dxi x} with torus distance: the one
    item of gaussian_corpus at (c, w, q).

    Wrapping the displacement makes the sample exactly periodic; with
    centers a few widths short of the seam the tail mismatch there is
    negligible.  modulation q is an integer so the phase factor closes
    around the box.
    """
    ((_, fn, _),) = gaussian_corpus(grid, [center], [width], [modulation])
    return fn


def _cosine_sum(grid: PeriodicGrid, terms) -> np.ndarray:
    """sum of coef cos(dxi k x + phase) over the (k, coef, phase) terms, in
    order, scaled to sup 1 unless it vanishes."""
    x = grid.axis_points()
    u = np.zeros(grid.n)
    for k, coef, phase in terms:
        u = u + coef * np.cos(grid.freq_spacing * k * x + phase)
    sup = float(np.max(np.abs(u)))
    if sup > 0:
        u = u * (1.0 / sup)
    return u


def band_noise(grid: PeriodicGrid, seed: int) -> SampledFunction:
    """Seeded real trig polynomial with mode indices 1..8, sup-normalized."""
    rng = np.random.default_rng(seed)
    # per mode, the coefficient is drawn before the phase
    terms = [(k, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)) for k in range(1, 9)]
    return SampledFunction(grid, _cosine_sum(grid, terms))


def gaussian_corpus(
    grid: PeriodicGrid,
    centers=None,
    widths=(0.6, 1.0, 1.8),
    modulations=(0, 4, 12),
    center_count: int = 6,
) -> list[CorpusItem]:
    """Product corpus of Gaussian packets; the default is 54 items.

    Default centers run from 0.15 to 0.375 of the half length: on a box of
    half length 16 that is 2.4 out to 6, where the widest tail meets the
    seam below 3e-7.  The sweep starts off the origin on purpose: power
    weights have a cusp there, and packets
    straddling the cusp carry an offset that reads as a spurious trend
    when the statistic of interest is growth toward the box edge.
    """
    if centers is None:
        _check_count(center_count)
        centers = np.linspace(
            0.15 * grid.half_length, 0.375 * grid.half_length, int(center_count)
        )
    widths = [_check_width(w) for w in widths]
    # each displacement, envelope and phase e^{i q dxi x} once
    pts = grid.axis_points()
    phases = {q: np.exp(1j * (int(q) * grid.freq_spacing) * pts) for q in modulations if q}
    items = []
    for c in np.atleast_1d(np.asarray(centers, dtype=float)):
        disp = grid.wrap(pts - float(c))
        square = -(disp * disp)
        for w in widths:
            envelope = np.exp(square / (2.0 * w * w))
            for q in modulations:
                fn = SampledFunction(grid, envelope * phases[q] if q else envelope)
                params = {"center": float(c), "width": w, "modulation": int(q),
                          "shift": float(c)}
                items.append(CorpusItem(f"gauss(c={c:g},w={w:g},q={int(q)})", fn, params))
    return items


def corpus_blocks(items, n: int):
    """The items in blocks of about BLOCK_ENTRIES samples of an n-point grid,
    each with the (rows, n) stack of its items' values."""
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(0, len(items), step):
        block = items[lo : lo + step]
        yield block, np.stack([item.fn.values for item in block])


def noise_corpus(grid: PeriodicGrid, count: int, seed: int) -> list[CorpusItem]:
    """count independent band_noise draws, seeds split from the given seed."""
    seeds = np.random.SeedSequence(seed).generate_state(int(count))
    items = []
    for i, s in enumerate(seeds):
        fn = band_noise(grid, int(s))
        items.append(CorpusItem(f"noise({i})", fn, {"seed": int(s), "index": i}))
    return items


def mixed_corpus(grid: PeriodicGrid, count: int = 30, seed: int = 0) -> list[CorpusItem]:
    """Gaussians plus noise, count items total, Gaussians first."""
    _check_count(count)
    n_noise = max(1, count // 3)
    n_gauss = count - n_noise
    per = max(1, int(np.ceil(n_gauss / 3)))
    top = 0.375 * grid.half_length
    centers = np.linspace(0.0, top, per)
    gauss = gaussian_corpus(
        grid, centers=centers, widths=(0.7, 1.4, 2.4)[: min(3, n_gauss)], modulations=(0,)
    )[:n_gauss]
    return gauss + noise_corpus(grid, n_noise, seed)
