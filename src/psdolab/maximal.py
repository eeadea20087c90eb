"""Critical-ball covers and localized maximal operators.

The cover comes from greedy Vitali selection on the 1/5-radius lattice
family: kept centers are pairwise more than 2/5 apart, so unit balls around
them cover the box and the sigma-dilates have multiplicity O(sigma).

The sups over all balls, the series and cover maximal functions and the
fs check reduce over ball arcs through the window layer of grid.py, which
describes how.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import corpus_blocks, item_shift
from .function_classes import stabilization_criteria, stabilized_characteristic
from .grid import (
    PeriodicGrid,
    SampledFunction,
    _arc_means,
    _check_exponent,
    _check_finite_rows,
    _cover_plan,
    _covering,
    _cut_means,
    _depth,
    _gathered,
    _plan,
    _real_rows,
    _slot_range_max,
    _spread_max,
    _sup_over_family_rows,
    ball_windows,
    lp_norms,
    sweep_family,
)
from .report import Criterion, VerificationReport, bound_ratio, ratio_family, trend_criterion

__all__ = [
    "build_critical_cover",
    "m_loc",
    "m_sharp_loc",
    "g_kappa_p",
    "m_tilde_s",
    "fs_inequality_rows",
    "check_fs_inequality",
    "check_weighted_bounds_maximal",
]

_SEPARATION = 2.0 / 5.0
_FS_BETA, _FS_ALPHA_SHARP = 0.5, 4.0  # fs's family radii, of M_loc and of M_sharp_loc


@dataclass(frozen=True)
class CriticalCover:
    """Unit balls Q_j = B(x_j, 1) whose union covers the box; centers[j] = x_j."""

    grid: PeriodicGrid
    centers: tuple[float, ...]

    def windows(self, radius: float) -> np.ndarray:
        """Read-only (balls, points) array: row j holds the ascending
        indices of B(x_j, radius)."""
        ((_, rows),) = _plan(ball_windows, self.grid, self.centers, radius)
        return rows

    def meeting(self, indices) -> "CriticalCover":
        """The balls Q_j that hold one of the grid points indices, in order.

        The result does not cover the box.  g_kappa_p and m_tilde_s on it
        are exact at those points, where every Q_j holding the point is kept,
        and -inf off the union of the kept balls.
        """
        marked = np.zeros(self.grid.n, dtype=bool)
        marked[indices] = True
        keep = _gathered(marked, self.windows(1.0), np.any)
        return CriticalCover(self.grid, tuple(c for c, k in zip(self.centers, keep) if k))

    def multiplicity(self, sigma: float = 1.0) -> np.ndarray:
        """Pointwise count of sigma-dilates covering each grid point."""
        return _depth(self.grid, self.centers, sigma)

    def covers_pointwise(self) -> bool:
        return bool(np.all(self.multiplicity(1.0) >= 1))

    def to_json_dict(self) -> dict:
        mult = self.multiplicity(1.0)
        hist = np.bincount(mult)
        return {
            "radius": 1.0,
            "count": len(self.centers),
            "centers": [[c] for c in self.centers],
            "multiplicity_histogram": hist.tolist(),
        }


def build_critical_cover(grid: PeriodicGrid) -> CriticalCover:
    """Greedy Vitali pass over B(x, 1/5) for every lattice x, in lattice order."""
    if grid.half_length < 4.0:
        raise ValueError("need half_length >= 4 so several critical balls fit")
    # lattice-order greedy collapses to a fixed stride plus a wrap check
    step = int(np.floor(_SEPARATION / grid.spacing)) + 1
    kept = grid.axis_points()[::step].tolist()
    if len(kept) > 1 and grid.wrap(kept[-1] - kept[0]) ** 2 <= _SEPARATION**2:
        kept.pop()
    cover = CriticalCover(grid, tuple(kept))
    if not cover.covers_pointwise():
        raise AssertionError("greedy cover failed the pointwise covering check")
    return cover


# ---------------------------------------------------------------------------
# Structured ball family sups: centers 8k, dyadic radii, prefix-sum means.
# ---------------------------------------------------------------------------


def m_loc(g: SampledFunction, alpha: float) -> SampledFunction:
    """sup over family balls containing x, radius <= alpha, of mean |g|."""
    out = _sup_over_family_rows(np.abs(g.values)[None], g.grid, alpha, osc=False)[0]
    return SampledFunction(g.grid, out)


def m_sharp_loc(g: SampledFunction, alpha: float) -> SampledFunction:
    """sup over the same family of mean |g - g_B| (mean oscillation)."""
    out = _sup_over_family_rows(g.real_values()[None], g.grid, alpha, osc=True)[0]
    return SampledFunction(g.grid, out)


# ---------------------------------------------------------------------------
# Critical-ball series maximal function and the cover-localized maximal.
# ---------------------------------------------------------------------------


def _check_damping(n_big: int, p: float) -> None:
    """The series' damping 2^(-N k) must beat the averages' growth: N >= 1/p + 1."""
    if n_big < 1.0 / p + 1:
        raise ValueError(f"n_big {n_big} too small for convergence at p={p}")


def _check_kappa(kappa: float) -> None:
    """The series' balls 2^k kappa Q need a positive dilation kappa."""
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")


def _check_maximal_exponents(p: float, s: float) -> None:
    """The weighted maximal bounds run at s strictly between 1 and p."""
    if not p > s > 1.0:
        raise ValueError(f"need p > s > 1, got p={p}, s={s}")


def g_kappa_p(
    f: SampledFunction, kappa: float, p: float, cover: CriticalCover, n_big: int = 8
) -> SampledFunction:
    """sup over critical balls Q containing x of sum_k 2^(-N k) avg_{2^k kQ}(|f|^p)^(1/p).

    Once 2^k kappa reaches the box scale every average equals the whole-box
    average, so the tail is the exact geometric closed form; no truncation
    error remains.
    """
    _check_exponent("p", p)
    _check_kappa(kappa)
    _check_damping(n_big, p)
    _check_finite_rows(f.values[None])
    grid = f.grid
    powered = np.abs(f.values) ** p
    box_avg = float(np.mean(powered)) ** (1.0 / p)
    radii, radius = [], kappa
    while radius < grid.half_length:
        radii.append(radius)
        radius *= 2.0
    totals = np.zeros(len(cover.centers))
    for k, means in enumerate(_arc_means(powered, cover.grid, cover.centers, radii)):
        # Python float powers: numpy's array power can differ in the last ulp
        avgs = np.array([m ** (1.0 / p) for m in means.tolist()])
        totals += 2.0 ** (-n_big * k) * avgs
    totals += box_avg * 2.0 ** (-n_big * len(radii)) / (1.0 - 2.0 ** (-n_big))
    return SampledFunction(grid, _spread_max(totals, _plan(_covering, cover.grid, cover.centers)))


def _check_dilates_fit(grid: PeriodicGrid) -> None:
    """m_tilde_s cuts f to the 8-dilates of the critical balls, which must fit
    the box: L >= 8.  The other balls and windows of the maximal checks (the
    sigma = 8 multiplicity balls, the alpha = 4 sharp windows) fit then too."""
    if 8.0 > grid.half_length:
        raise ValueError("8-fold dilates of critical balls exceed the box")


def m_tilde_s(f: SampledFunction, s: float, cover: CriticalCover) -> SampledFunction:
    """On each critical ball, the maximal function of f cut to the 8-dilate.

    Overlapping critical balls are resolved by a pointwise max, not the sum;
    the sum would double-count on overlaps.  All balls run at once, ball j
    as row j, and each ball's maximal function is taken only on Q_j.  The
    index work comes from the cover's plan; a call does only value work.
    """
    _check_exponent("s", s)
    grid = f.grid
    _check_dilates_fit(grid)
    _check_finite_rows(f.values[None])
    plan = _plan(_cover_plan, cover.grid, cover.centers)
    # |f|^s >= 0, so every later prefix entry minus an earlier one is >= 0
    slots = _slot_range_max(_cut_means(np.abs(f.values) ** s, plan), plan.radii) ** (1.0 / s)
    return SampledFunction(grid, _spread_max(slots, plan.spread))


# ---------------------------------------------------------------------------
# Weighted checks.
# ---------------------------------------------------------------------------


def fs_inequality_rows(
    stacks,
    w,
    p: float,
    cover: CriticalCover,
    beta: float = _FS_BETA,
    alpha_sharp: float = _FS_ALPHA_SHARP,
) -> list[tuple[float, float, float, float]]:
    """(lhs, sharp, cover term, ratio) for each row g of each (rows, n)
    stack in stacks, in turn, sampled on the cover's grid, w a WeightFn.

    lhs = int |M_loc,beta g|^p w, and the right side is
    int |M_sharp_loc,alpha g|^p w + sum_k w(Q_k) avg_{2Q_k}(|g|)^p; the
    ratio is report.bound_ratio of the two.
    The sharp function needs real g: a row is refused, as
    SampledFunction.real_values refuses it, when its imaginary part exceeds
    1e-9 max(1, max |g|).
    """
    grid = cover.grid
    wv = w.values
    # w(Q_k), the same product per ball as a Python float multiply
    w_balls = (_gathered(wv, cover.windows(1.0), np.sum) * grid.spacing).tolist()
    q2 = cover.windows(2.0)
    out = []
    for stack in stacks:
        if stack.shape[1:] != grid.shape:
            raise ValueError(f"row shape {stack.shape[1:]} != grid shape {grid.shape}")
        rows, real, magnitude = len(stack), _real_rows(stack), np.abs(stack)
        maximal = np.concatenate([_sup_over_family_rows(magnitude, grid, beta, osc=False),
                                  _sup_over_family_rows(real, grid, alpha_sharp, osc=True)])
        # one weight check and one reduction for both integrals of every row
        norms = lp_norms(grid, maximal, p, weight=wv)
        for lhs_norm, sharp_norm, avgs in zip(norms[:rows], norms[rows:],
                                              _gathered(magnitude, q2).tolist()):
            lhs, sharp = lhs_norm**p, sharp_norm**p
            tail = 0.0
            for wq, avg in zip(w_balls, avgs):
                tail += wq * avg**p
            out.append((lhs, sharp, tail, bound_ratio(lhs, sharp + tail)))
    return out


def check_fs_inequality(
    g: SampledFunction,
    w,
    p: float,
    cover: CriticalCover,
    beta: float = _FS_BETA,
    alpha_sharp: float = _FS_ALPHA_SHARP,
) -> VerificationReport:
    """Ratio of int |M_loc,beta g|^p w against the sharp-function right side.

    RHS = int |M_sharp_loc,alpha g|^p w + sum_k w(Q_k) avg_{2Q_k}(|g|)^p.
    """
    ((lhs, sharp, tail, ratio),) = fs_inequality_rows(
        [g.values[None]], w, p, cover, beta, alpha_sharp)
    return VerificationReport(
        experiment="fefferman_stein_local",
        items=[
            {"id": "lhs", "params": {"p": p, "beta": beta}, "value": lhs},
            {"id": "sharp_term", "params": {"alpha": alpha_sharp}, "value": sharp},
            {"id": "cover_term", "params": {"balls": len(cover.centers)}, "value": tail},
        ],
        aggregate={"ratio": ratio},
        criteria=[Criterion("ratio_finite", ratio, "<", np.inf)],
    )


def check_weighted_bounds_maximal(
    f_corpus,
    w,
    p: float,
    s: float,
    theta: float,
    cover: CriticalCover,
    kappa: float = 1.0,
    n_big: int = 8,
    spread: float = 4.0,
    trend: float = 0.1,
) -> VerificationReport:
    """Operator-norm proxies for the series maximal and cover maximal.

    f_corpus: CorpusItems (label, SampledFunction, params) where params may
    carry a "shift" used for the translation-trend regression
    (corpus.item_shift), fitted only when every item carries one.  The weight
    must pass the A_{p/s}^theta stabilization gate first; otherwise the
    verdict is hypothesis_unverified and the numbers are still reported.
    Each ratio is report.bound_ratio's (a zero item reads 0), each family is
    judged by report.ratio_family at cap spread and, when the shifts vary,
    by report.trend_criterion within +-trend.
    """
    _check_maximal_exponents(p, s)
    grid = w.grid
    gate = stabilized_characteristic(w, p / s, theta, sweep_family(grid))
    ratios_g, ratios_m, shifts = [], [], []
    # per block of items, one weighted reduction for each of the three norms
    for block, rows in corpus_blocks(list(f_corpus), grid.n):
        norms = [lp_norms(grid, stack, p, weight=w.values) for stack in (
            rows, np.stack([g_kappa_p(f, kappa, s, cover, n_big).values for _, f, _ in block]),
            np.stack([m_tilde_s(f, s, cover).values for _, f, _ in block]))]
        for (_, _, params), denom, g_norm, m_norm in zip(block, *norms):
            ratios_g.append(bound_ratio(g_norm, denom))
            ratios_m.append(bound_ratio(m_norm, denom))
            shifts.append(item_shift(params))
    if not ratios_g:
        raise ValueError("empty corpus")
    agg, criteria = {"gate_stable": gate.stable}, []
    for key, rr in (("series", ratios_g), ("cover", ratios_m)):
        family_agg, family_criteria = ratio_family(f"{key}_", rr, spread)
        agg.update(family_agg)
        criteria += family_criteria
    for key, rr in (("series_trend", ratios_g), ("cover_trend", ratios_m)):
        slope, trend_criteria = trend_criterion(key, rr, shifts, trend)
        if slope is not None:
            agg[key] = slope
        criteria += trend_criteria
    return VerificationReport(
        experiment="weighted_maximal_bounds",
        items=[],
        aggregate=agg,
        criteria=criteria,
        gates=stabilization_criteria(gate, "weight_stable(p/s)"),
    )
