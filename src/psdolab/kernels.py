"""Dyadic kernels, their decay rates, and difference estimates.

The k-th kernel piece is
    K_k(x, z) = (2pi)^(-d) sum_xi a(x, x - z, xi) phi_k(xi) e^{i<z, xi>} dxi^d,
a function of the base point x and the offset z = x - y.  For symbols the
z-dependence is one inverse transform per base point; for amplitudes the
y slot moves with z and the sum runs mode by mode.

Offsets are kept inside |z| <= L/2 so nearest-image distances on the torus
agree with true distances; every fit below samples only that safe half-box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import least_squares_line
from .grid import Ball, BallFamily
from .operators import OperatorInstance, adjoint_kernel_row
from .operators import _amplitude_kernel, _lattice_sum, _symbol_at
from .report import DecayFitReport

__all__ = [
    "DyadicKernel",
    "DifferenceEstimate",
    "AdjointKernelReport",
    "default_base_points",
    "materialize_dyadic_kernel",
    "fit_decay_in_k",
    "fit_difference_estimate",
    "band_limited_twin",
    "adjoint_kernel_bounds",
]


@dataclass(frozen=True, eq=False)
class DyadicKernel:
    """K_k sampled at base points (rows) and lattice offsets |z| <= L/2.

    box_integrals holds sum_z K_k(x, z) dz^d over the whole box, taken before
    the half-box restriction; it telescopes to a(x, x, 0) phi_k(0) exactly.
    """

    k: int
    x_samples: np.ndarray  # (P, dim)
    offsets: np.ndarray  # (Q, dim)
    values: np.ndarray  # (P, Q) complex
    box_integrals: np.ndarray  # (P,) complex

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("kernel values must be finite")

    def offset_radii(self) -> np.ndarray:
        return np.sqrt(np.sum(self.offsets**2, axis=1))

    def weighted_sup(self, ell: int) -> float:
        """sup over (x, z) of |z|^ell |K_k(x, z)|."""
        w = self.offset_radii() ** ell if ell else np.ones(len(self.offsets))
        return float(np.max(np.abs(self.values) * w[None, :]))


def default_base_points(op: OperatorInstance, count: int = 8) -> np.ndarray:
    """Base points spread across the inner half-box, off lattice symmetry."""
    g = op.grid
    span = np.linspace(-0.5, 0.5, count, endpoint=False) * g.half_length
    span = span + 0.37 * g.spacing
    return np.stack([span] * g.dim, axis=-1)


def _offset_mask(op: OperatorInstance) -> np.ndarray:
    g = op.grid
    pts = g.flat_points()
    return np.sqrt(np.sum(pts**2, axis=1)) <= g.half_length / 2.0 + 1e-12


def materialize_dyadic_kernel(
    op: OperatorInstance, k: int, x_samples: np.ndarray | None = None
) -> DyadicKernel:
    """Assemble K_k(x, z) on the offset lattice for each base point x."""
    g = op.grid
    _check_k_window(op, [int(k)])
    xs = default_base_points(op) if x_samples is None else np.atleast_2d(
        np.asarray(x_samples, dtype=float)
    )
    if xs.shape[1] != g.dim:
        raise ValueError(f"base points must have {g.dim} components")

    pts = g.flat_points()
    mask = _offset_mask(op)
    offsets = pts[mask]
    weight = op.family.piece_on_lattice(k).ravel() * (g.freq_spacing / (2.0 * np.pi)) ** g.dim
    if not op.symbol.is_symbol:
        op._amplitude_allowed()
    rows = np.empty((len(xs), len(offsets)), dtype=np.complex128)
    integrals = np.empty(len(xs), dtype=np.complex128)
    for p, x in enumerate(xs):
        if op.symbol.is_symbol:
            full = _lattice_sum(g, _symbol_at(op, x) * weight)
        else:
            # the y slot of K(x, y) sits at x - z for lattice offsets z
            full = _amplitude_kernel(op, x, x[None, :] - pts, weight, first=False)
        rows[p] = full[mask]
        integrals[p] = np.sum(full) * g.cell_volume
    return DyadicKernel(k, xs, offsets, rows, integrals)


def _check_k_window(op: OperatorInstance, ks: list[int]) -> None:
    for k in ks:
        if not 0 <= k <= op.family.max_index:
            raise ValueError(f"piece index {k} outside 0..{op.family.max_index}")
        if 2.0 ** (k + 1) > op.grid.xi_max * (1.0 + 1e-12):
            raise ValueError(
                f"piece {k} is not fully resolved: support reaches 2^{k + 1} "
                f"but the lattice stops at {op.grid.xi_max:.3g}"
            )


def fit_decay_in_k(
    op: OperatorInstance,
    ell: int,
    k_range=range(3, 8),
    x_samples: np.ndarray | None = None,
    tolerance: float = 0.15,
) -> DecayFitReport:
    """Regress log2 sup_{x,z} |z|^ell |K_k| against k.

    The predicted slope is d + m - rho*ell; the weight |z|^ell probes the
    trade between shell volume growth and smoothness-driven cancellation.
    """
    if ell not in (0, 1, 2, 3):
        raise ValueError(f"ell must be in 0..3, got {ell}")
    ks = sorted(int(k) for k in k_range)
    if len(ks) < 4:
        raise ValueError("degenerate fit: need at least 4 k-values")
    _check_k_window(op, ks)
    sups = [materialize_dyadic_kernel(op, k, x_samples).weighted_sup(ell) for k in ks]
    xv = np.array(ks, dtype=float)
    yv = np.log2(np.asarray(sups))
    slope, intercept, r2 = least_squares_line(xv, yv)
    expected = op.grid.dim + op.symbol.order - op.symbol.rho * ell
    return DecayFitReport(
        regressor="k",
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        expected_slope=expected,
        tolerance=tolerance,
        criterion="match",
        points=tuple(zip(xv.tolist(), yv.tolist())),
    )


# ---------------------------------------------------------------------------
# Difference estimates on annuli.
# ---------------------------------------------------------------------------


def _axis_unit(dim: int, axis: int = 0) -> np.ndarray:
    e = np.zeros(dim)
    e[axis] = 1.0
    return e


def _ball_pairs(ball: Ball, dim: int, num_pairs: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (y, ybar) inside the ball; the fixed three include an asymmetric one."""
    c = np.asarray(ball.center, dtype=float)
    r = ball.radius
    e = _axis_unit(dim)
    pairs = [
        (c + 0.5 * r * e, c - 0.5 * r * e),
        (c, c + 0.9 * r * e),
        (c - 0.9 * r * e, c - 0.15 * r * e),
    ][:num_pairs]
    while len(pairs) < num_pairs:
        u = rng.uniform(-1.0, 1.0, size=(2, dim))
        norms = np.sqrt(np.sum(u**2, axis=1))
        u = 0.9 * u / np.maximum(norms, 1.0)[:, None]
        pairs.append((c + r * u[0], c + r * u[1]))
    return pairs


def _annulus_points(ball: Ball, dim: int, j: int, num: int) -> np.ndarray:
    """Points in S_j(B): radii geometric across (2^(j-1) r, 2^j r], both sides."""
    c = np.asarray(ball.center, dtype=float)
    r = ball.radius
    lo, hi = 2.0 ** (j - 1) * r, 2.0**j * r
    radii = np.geomspace(lo * 1.05, hi * 0.98, max(1, num // 2))
    e = _axis_unit(dim)
    pts = [c + rad * e for rad in radii] + [c - rad * e for rad in radii]
    return np.asarray(pts[:num])


def _pair_differences(
    op: OperatorInstance,
    xs: np.ndarray,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    bands: np.ndarray,
) -> np.ndarray:
    """max over (x, pair) of |K_band(x,y) - K_band(x,ybar)|, one per band row."""
    g = op.grid
    xis = g.flat_freqs()
    scale = g.freq_spacing**g.dim / (2.0 * np.pi) ** g.dim
    best = np.zeros(len(bands))
    for x in xs:
        x_arg = op._scalar_args(x)
        for y1, y2 in pairs:
            vals = []
            for y in (y1, y2):
                z = x - y
                phase = np.exp(1j * (xis @ z))
                y_arg = op._scalar_args(y)
                xi_flat = xis[:, 0] if g.dim == 1 else tuple(xis[:, a] for a in range(g.dim))
                a = np.asarray(
                    op.symbol.evaluator(x_arg, y_arg, xi_flat), dtype=np.complex128
                )
                vals.append(bands @ (np.broadcast_to(a, phase.shape) * phase) * scale)
            best = np.maximum(best, np.abs(vals[0] - vals[1]))
    return best


@dataclass(frozen=True, eq=False)
class DifferenceEstimate:
    """Tabulated D(j, k) over an annulus family, with the two slope fits."""

    r_b: float
    j_values: tuple[int, ...]
    k_values: tuple[int, ...]
    table: np.ndarray  # (J, K)
    j_fit: DecayFitReport
    k_fit: DecayFitReport

    def rows(self):
        for ji, j in enumerate(self.j_values):
            for ki, k in enumerate(self.k_values):
                yield (j, k, self.r_b, float(self.table[ji, ki]))


def fit_difference_estimate(
    op: OperatorInstance,
    ball: Ball,
    j_range=range(3, 8),
    k_range=range(0, 6),
    num_x: int = 6,
    num_pairs: int = 3,
    k_slope_sign: str = "auto",
    y_pairs=None,
    seed: int = 7,
) -> DifferenceEstimate:
    """Tabulate D(j,k) = sup |K_k(x,y) - K_k(x,ybar)| and fit both slopes.

    The j fit runs on sup_k D(j, .) with criterion slope <= -dim.  The k fit
    runs at the innermost annulus; its expected sign flips at 2^k r_B = 1
    (growth below the critical scale, decay above), selected by k_slope_sign
    "auto" | "positive" | "negative".
    """
    g = op.grid
    js = sorted(int(j) for j in j_range)
    ks = sorted(int(k) for k in k_range)
    if js[0] < 2:
        raise ValueError("annulus index j must be at least 2")
    if len(js) < 3 or len(ks) < 2:
        raise ValueError("degenerate fit: need at least 3 j-values and 2 k-values")
    if 2.0 ** js[-1] * ball.radius > g.half_length / 2.0 + 1e-12:
        raise ValueError("annulus family leaves the wrap-safe half-box")
    _check_k_window(op, ks)

    rng = np.random.default_rng(seed)
    if y_pairs is None:
        pairs = _ball_pairs(ball, g.dim, num_pairs, rng)
    else:
        pairs = [
            (np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float)))
            for a, b in y_pairs
        ]
    bands = np.stack(
        [op.family.piece_profile(k, np.sqrt(np.sum(g.flat_freqs() ** 2, axis=1))) for k in ks]
    )

    table = np.empty((len(js), len(ks)))
    for ji, j in enumerate(js):
        xs = _annulus_points(ball, g.dim, j, num_x)
        table[ji] = _pair_differences(op, xs, pairs, bands)

    envelope = np.log2(np.maximum(np.max(table, axis=1), 1e-300))
    jx = np.array(js, dtype=float)
    slope_j, icept_j, r2_j = least_squares_line(jx, envelope)
    j_fit = DecayFitReport(
        regressor="j",
        slope=slope_j,
        intercept=icept_j,
        r_squared=r2_j,
        expected_slope=-float(g.dim),
        tolerance=0.0,
        criterion="at_most",
        points=tuple(zip(jx.tolist(), envelope.tolist())),
    )

    if k_slope_sign == "auto":
        k_slope_sign = "positive" if 2.0 ** ks[-1] * ball.radius <= 1.0 + 1e-12 else "negative"
    if k_slope_sign not in ("positive", "negative"):
        raise ValueError(f"k_slope_sign must be auto/positive/negative, got {k_slope_sign!r}")
    kx = np.array(ks, dtype=float)
    ky = np.log2(np.maximum(table[0], 1e-300))
    slope_k, icept_k, r2_k = least_squares_line(kx, ky)
    k_fit = DecayFitReport(
        regressor="k",
        slope=slope_k,
        intercept=icept_k,
        r_squared=r2_k,
        expected_slope=None,
        tolerance=0.0,
        criterion=k_slope_sign,
        points=tuple(zip(kx.tolist(), ky.tolist())),
    )
    return DifferenceEstimate(ball.radius, tuple(js), tuple(ks), table, j_fit, k_fit)


# ---------------------------------------------------------------------------
# Adjoint kernel bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdjointKernelReport:
    """Far-field power decay of K* plus the difference estimate's j decay.

    weighted_far_over_peak = sup over the far field of |K*| |z|^(d+N) divided
    by the peak |K*|; tiny for band-limited near-identity kernels.
    """

    n_exp: int
    far_field: DecayFitReport
    difference: DecayFitReport
    weighted_far_over_peak: float

    @property
    def passed(self) -> bool:
        return self.far_field.passed and self.difference.passed


def band_limited_twin(op: OperatorInstance) -> OperatorInstance:
    """The operator with a smooth spectral cutoff at the last resolved piece.

    A hard lattice cutoff would ring at rate |z|^(-1) and swamp every decay
    measurement, so far-field work always runs on the smooth truncation.
    """
    if op.mode == "dyadic":
        return op
    k_top = op.family.max_index
    while 2.0 ** (k_top + 1) > op.grid.xi_max * (1.0 + 1e-12):
        k_top -= 1
    return OperatorInstance(
        op.symbol, op.grid, op.family, "dyadic", k_top, op.amplitude_budget
    )


def adjoint_kernel_bounds(
    op: OperatorInstance,
    n_exp: int = 2,
    ball_family: BallFamily | None = None,
    j_range=range(3, 8),
    far_window: tuple[float, float] | None = None,
    num_bins: int = 6,
    tolerance: float = 0.15,
) -> AdjointKernelReport:
    """Check |K*(x,y)| |x-y|^(d+N) boundedness and the adjoint j-decay.

    tolerance is the slack of the far-field slope fit; the j-decay fit
    keeps the strict criterion slope <= -dim.
    """
    if n_exp not in (1, 2):
        raise ValueError(f"n_exp must be 1 or 2, got {n_exp}")
    g = op.grid
    twin = band_limited_twin(op)

    x0 = default_base_points(op, 3)
    lo = far_window[0] if far_window else 1.0
    hi = far_window[1] if far_window else g.half_length / 2.0
    lo = max(lo, 4.0 * g.spacing)
    edges = np.geomspace(lo, hi, num_bins + 1)
    sup_per_bin = np.zeros(num_bins)
    peak = 0.0
    weighted_far = 0.0
    pts = g.flat_points()
    for x in x0:
        row = np.abs(adjoint_kernel_row(twin, x)).ravel()
        peak = max(peak, float(np.max(row)))
        z = g.wrap(pts - x[None, :])
        rad = np.sqrt(np.sum(z**2, axis=1))
        far = (rad > 4.0 * g.spacing) & (rad <= g.half_length / 2.0)
        if np.any(far):
            weighted_far = max(
                weighted_far, float(np.max(row[far] * rad[far] ** (g.dim + n_exp)))
            )
        for b in range(num_bins):
            sel = (rad > edges[b]) & (rad <= edges[b + 1])
            if np.any(sel):
                sup_per_bin[b] = max(sup_per_bin[b], float(np.max(row[sel])))
    mids = np.sqrt(edges[:-1] * edges[1:])
    keep = sup_per_bin > 0.0
    xv = np.log2(mids[keep])
    yv = np.log2(sup_per_bin[keep])
    slope, icept, r2 = least_squares_line(xv, yv)
    far_fit = DecayFitReport(
        regressor="r_B",
        slope=slope,
        intercept=icept,
        r_squared=r2,
        expected_slope=-float(g.dim + n_exp),
        tolerance=tolerance,
        criterion="at_most",
        points=tuple(zip(xv.tolist(), yv.tolist())),
    )

    js = sorted(int(j) for j in j_range)
    if ball_family is None:
        center = (0.0,) * g.dim
        radius = g.half_length / 2.0 / 2.0 ** js[-1]
        ball_family = BallFamily((Ball(center, radius),), "adjoint-default")
    band_vec = twin.family.band_mask(twin.truncation).ravel()[None, :]
    rng = np.random.default_rng(11)
    envelope = np.zeros(len(js))
    used = []
    for ball in ball_family.balls:
        if 2.0 ** js[-1] * ball.radius > g.half_length / 2.0 + 1e-12:
            continue
        used.append(ball)
        pairs = _ball_pairs(ball, g.dim, 3, rng)
        for ji, j in enumerate(js):
            xs = _annulus_points(ball, g.dim, j, 6)
            envelope[ji] = max(envelope[ji], float(_pair_differences(twin, xs, pairs, band_vec)[0]))
    if not used:
        raise ValueError("no ball in the family fits the wrap-safe half-box")
    jx = np.array(js, dtype=float)
    slope_j, icept_j, r2_j = least_squares_line(jx, np.log2(np.maximum(envelope, 1e-300)))
    diff_fit = DecayFitReport(
        regressor="j",
        slope=slope_j,
        intercept=icept_j,
        r_squared=r2_j,
        expected_slope=-float(g.dim),
        tolerance=0.0,
        criterion="at_most",
        points=tuple(zip(jx.tolist(), np.log2(np.maximum(envelope, 1e-300)).tolist())),
    )
    return AdjointKernelReport(n_exp, far_fit, diff_fit, weighted_far / max(peak, 1e-300))
