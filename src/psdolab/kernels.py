"""Dyadic kernels, their decay rates, and difference estimates.

The k-th kernel piece is
    K_k(x, z) = (2pi)^(-1) sum_xi a(x, x - z, xi) phi_k(xi) e^{i z xi} dxi,
a function of the base point x and the offset z = x - y.  Its z-dependence
comes from the operator's expansion held at all base points at once
(operators._offset_rows): one inverse transform per y-factor, the y-factors
sampled at x - z, or one for all base points when the symbol has no x- or
y-factor.  The adjoint far field takes its base points in one call.  The
difference tables read the evaluator itself, as direct sums over the
frequencies where some band is nonzero, each table in one call and one
einsum (numpy's loops, no BLAS) per point set of the y less the ybar block;
their phase e^{i(x-y)xi} is e^{ix xi} e^{-iy xi}, one row per distinct point.

Offsets are kept inside |z| <= L/2 so nearest-image distances on the torus
agree with true distances; every fit below samples only that safe half-box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fitting import least_squares_line
from .grid import Ball, PeriodicGrid, _slack, _working
from .littlewood_paley import LPFamily
from .operators import OperatorInstance, _offset_rows, adjoint_kernel_row
from .report import DecayFitReport, bound_ratio, log2_floor

__all__ = [
    "materialize_dyadic_kernel",
    "fit_decay_in_k",
    "fit_difference_estimate",
    "band_limited_twin",
    "adjoint_kernel_bounds",
]


@dataclass(frozen=True, eq=False)
class DyadicKernel:
    """K_k sampled at base points (rows) and lattice offsets |z| <= L/2.

    box_integrals holds sum_z K_k(x, z) dz over the whole box, taken before
    the half-box restriction; it telescopes to a(x, x, 0) phi_k(0) exactly.
    """

    k: int
    x_samples: np.ndarray  # (P,)
    offsets: np.ndarray  # (Q,)
    values: np.ndarray  # (P, Q) complex
    box_integrals: np.ndarray  # (P,) complex

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")

    def weighted_sup(self, ell: int) -> float:
        """sup over (x, z) of |z|^ell |K_k(x, z)|."""
        w = np.abs(self.offsets) ** ell if ell else np.ones_like(self.offsets)
        return float(np.max(np.abs(self.values) * w[None, :]))


def default_base_points(op: OperatorInstance, count: int = 8) -> np.ndarray:
    """Base points spread across the inner half-box, off lattice symmetry."""
    g = op.grid
    span = np.linspace(-0.5, 0.5, count, endpoint=False) * g.half_length
    return span + 0.37 * g.spacing


def materialize_dyadic_kernel(op: OperatorInstance, k: int) -> DyadicKernel:
    """Assemble K_k(x, z) on the offset lattice at each default base point x."""
    g = op.grid
    _check_k_window(op.family, [int(k)])
    xs = default_base_points(op)
    pts = g.axis_points()
    mask = np.abs(pts) <= _slack(g.half_length / 2.0)
    offsets = pts[mask]
    weight = op.family.piece_on_lattice(k) * (g.freq_spacing / (2.0 * np.pi))
    full = _offset_rows(op, xs, weight)
    return DyadicKernel(k, xs, offsets, full[:, mask], np.sum(full, axis=1) * g.spacing)


def _check_k_window(family: LPFamily, ks) -> None:
    """Each piece k must exist and lie inside the lattice (LPFamily.resolves)."""
    for k in ks:
        family._check_index(k)
        if not family.resolves(k):
            raise ValueError(
                f"piece {k} is not fully resolved: support reaches 2^{k + 1} "
                f"but the lattice stops at {family.grid.xi_max:.3g}"
            )


def _line_fit(regressor: str, xv, yv: np.ndarray, expected: float | None,
              tolerance: float, criterion: str) -> DecayFitReport:
    """The least-squares line through the points (xv, yv), judged by criterion;
    the points record each x as a float."""
    slope, intercept, r2 = least_squares_line(xv, yv)
    return DecayFitReport(regressor, slope, intercept, r2, expected, tolerance, criterion,
                          tuple(zip(map(float, xv), yv.tolist())))


def _ascending(indices, least: int, name: str = "k") -> list[int]:
    """The ascending indices of a fit's range, at least `least` of them."""
    out = sorted(int(i) for i in indices)
    if len(out) < least:
        raise ValueError(f"degenerate fit: need at least {least} {name}-values")
    return out


# the k of a decay fit and of a difference table
_decay_ks = partial(_ascending, least=4)
_difference_ks = partial(_ascending, least=2)


def fit_decay_in_k(
    op: OperatorInstance, ells, k_range=range(3, 8), tolerance: float = 0.15
) -> tuple[DecayFitReport, ...]:
    """Regress log2 sup_{x,z} |z|^ell |K_k| against k, one fit per ell.

    The predicted slope is 1 + m - rho*ell; the weight |z|^ell probes the
    trade between shell volume growth and smoothness-driven cancellation.
    Each piece K_k is assembled once and read by every ell.
    """
    for ell in ells:
        if ell not in (0, 1, 2, 3):
            raise ValueError(f"ell must be in 0..3, got {ell}")
    ks = _decay_ks(k_range)
    _check_k_window(op.family, ks)
    kernels = [materialize_dyadic_kernel(op, k) for k in ks]
    fits = []
    for ell in ells:
        sups = [dk.weighted_sup(ell) for dk in kernels]
        expected = 1 + op.symbol.order - op.symbol.rho * ell
        fits.append(_line_fit("k", ks, log2_floor(sups), expected, tolerance, "match"))
    return tuple(fits)


# ---------------------------------------------------------------------------
# Difference estimates on annuli.
# ---------------------------------------------------------------------------


def _ball_pairs(ball: Ball) -> list[tuple[float, float]]:
    """Pairs (y, ybar) inside the ball; the third one is asymmetric."""
    c, r = ball.center[0], ball.radius
    return [(c + 0.5 * r, c - 0.5 * r), (c, c + 0.9 * r), (c - 0.9 * r, c - 0.15 * r)]


def _annulus_points(ball: Ball, j: int, num: int) -> np.ndarray:
    """Points in S_j(B): radii geometric across (2^(j-1) r, 2^j r], both sides."""
    c, r = ball.center[0], ball.radius
    lo, hi = 2.0 ** (j - 1) * r, 2.0**j * r
    radii = np.geomspace(lo * 1.05, hi * 0.98, max(1, num // 2))
    return np.array([c + rad for rad in radii] + [c - rad for rad in radii])[:num]


def _pair_differences(
    op: OperatorInstance, point_sets, pairs: list[tuple[float, float]], bands: np.ndarray
) -> np.ndarray:
    """max over (x, pair) of |K_band(x,y) - K_band(x,ybar)|: (point sets, band rows).

    The difference is the lattice sum of band (a(x, y, xi) e^{-iy xi} -
    a(x, ybar, xi) e^{-i ybar xi}) e^{ix xi} dxi/2pi, taken only at the live
    frequencies, where some band row is nonzero: the y and ybar phase rows
    once per call, the x rows once per point set, the evaluator once per set
    and slot for every (x, pair) at once.  Each set and slot is one
    (points * pairs, live) block; the ybar block is taken off the y block in
    place, and einsum's own loops (no BLAS) sum that difference against each
    band row, within the summation bound n u sum |band a|.
    """
    g = op.grid
    live = np.flatnonzero(np.any(bands != 0.0, axis=0))
    xis = g.axis_freqs()[live]
    ys = _working(pairs).T[:, :, None]  # (slot, pair, 1)
    y_phases = np.exp(-1j * (xis * ys))
    live_bands = bands.take(live, axis=1)  # C order: einsum reads F order 3x slower
    table = np.empty((len(point_sets), len(bands)), dtype=_working(xis).dtype)
    for xs, row in zip(point_sets, table):
        x = np.repeat(xs, len(pairs))[:, None]
        x_phases = np.exp(1j * (xis * xs[:, None]))
        blocks = []
        for y, y_phase in zip(ys, y_phases):
            a = op.symbol.evaluator(x, np.tile(y, (len(xs), 1)), xis)
            block = (x_phases[:, None, :] * y_phase).reshape(-1, len(xis))
            block *= a
            blocks.append(block)
        difference = np.subtract(*blocks, out=blocks[0])
        row[:] = np.max(np.abs(np.einsum("rl,bl->br", difference, live_bands)), axis=1)
        del a, block, blocks, difference  # a third live block costs a cold process page faults
    return table * (g.freq_spacing / (2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class DifferenceEstimate:
    """Tabulated D(j, k) over an annulus family, with the two slope fits."""

    r_b: float
    j_values: tuple[int, ...]
    k_values: tuple[int, ...]
    table: np.ndarray  # (J, K)
    j_fit: DecayFitReport
    k_fit: DecayFitReport


def _check_annuli(grid: PeriodicGrid, radius: float, j_top: int, radius_name: str = "r",
                  j_name: str = "j") -> None:
    """The annuli S_j of a radius-r ball, j <= j_top, must stay within |z| <= L/2."""
    if 2.0**j_top * radius > _slack(grid.half_length / 2.0):
        raise ValueError(
            f"the annuli of {radius_name} = {radius:g}, {j_name} up to {j_top} leave the "
            f"wrap-safe half-box: 2^{j_top} * {radius:g} > L/2 = {grid.half_length / 2.0:g}"
        )


def _difference_js(j_range) -> list[int]:
    """The ascending annulus indices of a difference table: at least 3, from 2 up."""
    js = _ascending(j_range, 3, "j")
    if js[0] < 2:
        raise ValueError("annulus index j must be at least 2")
    return js


def fit_difference_estimate(
    op: OperatorInstance, ball: Ball, j_range=range(3, 8), k_range=range(0, 6), y_pairs=None
) -> DifferenceEstimate:
    """Tabulate D(j,k) = sup |K_k(x,y) - K_k(x,ybar)| and fit both slopes.

    The j fit runs on sup_k D(j, .) with criterion slope <= -1.  The k fit
    runs at the innermost annulus; its expected sign flips at 2^k r_B = 1:
    growth below the critical scale, decay above.  y_pairs replaces the
    ball's three (y, ybar) pairs.
    """
    g = op.grid
    js, ks = _difference_js(j_range), _difference_ks(k_range)
    _check_annuli(g, ball.radius, js[-1])
    _check_k_window(op.family, ks)
    if y_pairs is None:
        pairs = _ball_pairs(ball)
    else:
        pairs = [(float(a), float(b)) for a, b in y_pairs]
    bands = np.stack([op.family.piece_profile(k, g.axis_freqs()) for k in ks])

    table = _pair_differences(op, [_annulus_points(ball, j, 6) for j in js], pairs, bands)

    envelope = log2_floor(np.max(table, axis=1))
    j_fit = _line_fit("j", js, envelope, -1.0, 0.0, "at_most")
    k_slope_sign = "positive" if 2.0 ** ks[-1] * ball.radius <= _slack(1.0) else "negative"
    k_fit = _line_fit("k", ks, log2_floor(table[0]), None, 0.0, k_slope_sign)
    return DifferenceEstimate(ball.radius, tuple(js), tuple(ks), table, j_fit, k_fit)


# ---------------------------------------------------------------------------
# Adjoint kernel bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdjointKernelReport:
    """Far-field power decay of K* plus the difference estimate's j decay.

    weighted_far_over_peak = sup over the far field of |K*| |z|^(1+N) divided
    by the peak |K*|; tiny for band-limited near-identity kernels.
    """

    n_exp: int
    far_field: DecayFitReport
    difference: DecayFitReport
    weighted_far_over_peak: float


def band_limited_twin(op: OperatorInstance) -> OperatorInstance:
    """The operator with a smooth spectral cutoff at the last resolved piece.

    A hard lattice cutoff would ring at rate |z|^(-1) and swamp every decay
    measurement, so far-field work always runs on the smooth truncation.
    """
    if op.truncation is not None:
        return op
    k_top = op.family.max_index
    while not op.family.resolves(k_top):
        k_top -= 1
    return OperatorInstance(op.symbol, op.grid, k_top)


def adjoint_kernel_bounds(
    op: OperatorInstance, n_exp: int = 2, tolerance: float = 0.15
) -> AdjointKernelReport:
    """Check |K*(x,y)| |x-y|^(1+N) boundedness and the adjoint j-decay.

    The far field runs over six geometric bins of |z| from 1 to L/2; the
    j-decay over the annuli j = 3..7 of the centered ball whose last annulus
    ends at L/2.  tolerance is the slack of the far-field slope fit; the
    j-decay fit keeps the strict criterion slope <= -1.
    """
    if n_exp not in (1, 2):
        raise ValueError(f"n_exp must be 1 or 2, got {n_exp}")
    g = op.grid
    twin = band_limited_twin(op)

    # every value is a max of elementwise products over the (3, n) block of
    # base-point rows, 0 where a bin or the far field holds no point
    edges = np.geomspace(max(1.0, 4.0 * g.spacing), g.half_length / 2.0, 7)
    xs = default_base_points(op, 3)
    rows = np.abs(adjoint_kernel_row(twin, xs))
    rad = np.abs(g.wrap(g.axis_points() - xs[:, None]))
    far = (rad > 4.0 * g.spacing) & (rad <= g.half_length / 2.0)
    peak = float(np.max(rows))
    weighted_far = float(np.max(rows * rad ** (1 + n_exp), where=far, initial=0.0))
    bins = (rad > edges[:-1, None, None]) & (rad <= edges[1:, None, None])
    sup_per_bin = np.max(np.where(bins, rows, 0.0), axis=(1, 2))
    mids = np.sqrt(edges[:-1] * edges[1:])
    keep = sup_per_bin > 0.0
    far_fit = _line_fit("r_B", np.log2(mids[keep]), np.log2(sup_per_bin[keep]),
                        -float(1 + n_exp), tolerance, "at_most")

    js = list(range(3, 8))
    ball = Ball((0.0,), g.half_length / 2.0 / 2.0 ** js[-1])
    envelope = _pair_differences(twin, [_annulus_points(ball, j, 6) for j in js],
                                 _ball_pairs(ball), twin.band[None, :])[:, 0]
    diff_fit = _line_fit("j", js, log2_floor(envelope), -1.0, 0.0, "at_most")
    return AdjointKernelReport(n_exp, far_fit, diff_fit, bound_ratio(weighted_far, peak))
