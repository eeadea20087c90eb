"""Critical-ball covers and localized maximal operators.

The cover comes from greedy Vitali selection on the 1/5-radius lattice
family: kept centers are pairwise more than 2/5 apart, so unit balls around
them cover the box and the sigma-dilates have multiplicity O(sigma^dim).

Every "sup over all balls" below is realized over a structured family
(centers on a stride-8 sublattice, dyadic radii), which keeps results
reproducible.  In 1D all window means run on prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Ball,
    PeriodicGrid,
    SampledFunction,
    ball_mask,
    lp_norm,
)
from .report import VerificationReport, config_hash

__all__ = [
    "CriticalCover",
    "build_critical_cover",
    "m_loc",
    "m_sharp_loc",
    "g_kappa_p",
    "m_tilde_s",
    "check_fs_inequality",
    "check_weighted_bounds_maximal",
]

_SEPARATION = 2.0 / 5.0


@dataclass(frozen=True)
class CriticalCover:
    """Unit balls Q_j = B(x_j, 1) whose union covers the box."""

    grid: PeriodicGrid
    centers: tuple[tuple[float, ...], ...]

    @property
    def radius(self) -> float:
        return 1.0

    def balls(self, dilation: float = 1.0) -> tuple[Ball, ...]:
        return tuple(Ball(c, dilation) for c in self.centers)

    def multiplicity(self, sigma: float = 1.0) -> np.ndarray:
        """Pointwise count of sigma-dilates covering each grid point."""
        total = np.zeros(self.grid.shape, dtype=int)
        for ball in self.balls(sigma):
            total += ball_mask(self.grid, ball)
        return total

    def covers_pointwise(self) -> bool:
        return bool(np.all(self.multiplicity(1.0) >= 1))

    def to_json_dict(self) -> dict:
        mult = self.multiplicity(1.0)
        hist = np.bincount(mult.ravel())
        return {
            "radius": 1.0,
            "count": len(self.centers),
            "centers": [list(c) for c in self.centers],
            "multiplicity_histogram": hist.tolist(),
        }


def build_critical_cover(grid: PeriodicGrid) -> CriticalCover:
    """Greedy Vitali pass over B(x, 1/5) for every lattice x, in lattice order."""
    if grid.half_length < 4.0:
        raise ValueError("need half_length >= 4 so several critical balls fit")
    pts = grid.flat_points()
    if grid.dim == 1:
        # lattice-order greedy collapses to a fixed stride plus a wrap check
        step = int(np.floor(_SEPARATION / grid.spacing)) + 1
        kept = [pts[i] for i in range(0, grid.n, step)]
        if len(kept) > 1:
            d = grid.wrap(kept[-1] - kept[0])
            if float(d @ d) <= _SEPARATION**2:
                kept.pop()
    else:
        kept = []
        sep2 = _SEPARATION**2
        arr = np.empty((0, grid.dim))
        for p in pts:
            if len(kept) == 0 or not np.any(
                np.sum(grid.wrap(p[None, :] - arr) ** 2, axis=1) <= sep2
            ):
                kept.append(p)
                arr = np.asarray(kept)
    centers = tuple(tuple(float(v) for v in c) for c in kept)
    cover = CriticalCover(grid, centers)
    if not cover.covers_pointwise():
        raise AssertionError("greedy cover failed the pointwise covering check")
    return cover


# ---------------------------------------------------------------------------
# Structured ball family sups.  1D uses prefix sums over periodic windows.
# ---------------------------------------------------------------------------


def _dyadic_radii(grid: PeriodicGrid, alpha: float) -> list[float]:
    r = 8.0 * grid.spacing
    if alpha < r:
        raise ValueError(f"alpha {alpha} below the minimum family radius {r}")
    out = []
    while r <= alpha * (1.0 + 1e-12):
        out.append(r)
        r *= 2.0
    if out[-1] < alpha * (1.0 - 1e-12):
        out.append(alpha)
    return out


def _wrapped_cumsum(flat: np.ndarray) -> np.ndarray:
    ext = np.concatenate([flat, flat])
    return np.concatenate([[0.0], np.cumsum(ext)])


def _window_stats_1d(cs: np.ndarray, centers_idx: np.ndarray, half: int):
    """(start, count, sums) of the periodic windows center +- half points.

    cs is the _wrapped_cumsum of the n sampled values.
    """
    n = (len(cs) - 1) // 2
    count = 2 * half + 1
    if count > n:
        raise ValueError("window exceeds the grid period")
    starts = (centers_idx - half) % n
    sums = cs[starts + count] - cs[starts]
    return starts, count, sums


def _scatter_max_1d(out: np.ndarray, starts: np.ndarray, count: int, vals: np.ndarray):
    """Raise out to vals[j] on each periodic window starts[j] .. starts[j]+count-1.

    A sliding max over the window starts (van Herk 1992; Gil and Werman
    1993): O(n) for any count, and exact.  The starts must be distinct.
    """
    n = len(out)
    at_start = np.full(n, -np.inf)
    at_start[starts] = vals
    # ext[i] = at_start[(i - count + 1) % n]: the windows holding x start in ext[x : x + count]
    blocks = -(-(n + count - 1) // count)
    ext = np.full(blocks * count, -np.inf)
    ext[: n + count - 1] = np.concatenate([at_start[n - count + 1 :], at_start])
    ext = ext.reshape(blocks, count)
    prefix = np.maximum.accumulate(ext, axis=1).ravel()
    suffix = np.maximum.accumulate(ext[:, ::-1], axis=1)[:, ::-1].ravel()
    np.maximum(out, suffix[:n], out=out)
    np.maximum(out, prefix[count - 1 : count - 1 + n], out=out)


def _sup_over_family_1d(flat: np.ndarray, grid: PeriodicGrid, alpha: float, osc: bool):
    """Family sup of the window means of |flat|; with osc, of real flat's mean oscillation."""
    n = grid.n
    centers_idx = np.arange(0, n, 8)
    out = np.full(n, -np.inf)
    cs = _wrapped_cumsum(flat if osc else np.abs(flat))
    for r in _dyadic_radii(grid, alpha):
        half = int(np.floor(r / grid.spacing * (1 + 1e-12)))
        starts, count, sums = _window_stats_1d(cs, centers_idx, half)
        means = sums / count
        if osc:
            idx = (starts[:, None] + np.arange(count)[None, :]) % n
            vals = np.mean(np.abs(flat[idx] - means[:, None]), axis=1)
        else:
            vals = means
        _scatter_max_1d(out, starts, count, vals)
    return out


def _sup_over_family_nd(vals_in: np.ndarray, grid: PeriodicGrid, alpha: float, osc: bool):
    out = np.full(grid.shape, -np.inf)
    ax = grid.axis_points()[::8]
    centers = [(float(a), float(b)) for a in ax for b in ax]
    for r in _dyadic_radii(grid, alpha):
        for c in centers:
            mask = ball_mask(grid, Ball(c, r))
            sel = vals_in[mask]
            if osc:
                v = float(np.mean(np.abs(sel - np.mean(sel))))
            else:
                v = float(np.mean(np.abs(sel)))
            np.maximum(out, np.where(mask, v, -np.inf), out=out)
    return out


def m_loc(g: SampledFunction, alpha: float) -> SampledFunction:
    """sup over family balls containing x, radius <= alpha, of mean |g|."""
    grid = g.grid
    if grid.dim == 1:
        out = _sup_over_family_1d(g.values, grid, alpha, osc=False)
    else:
        out = _sup_over_family_nd(np.abs(g.values), grid, alpha, osc=False)
    return SampledFunction(grid, out.astype(complex))


def m_sharp_loc(g: SampledFunction, alpha: float) -> SampledFunction:
    """sup over the same family of mean |g - g_B| (mean oscillation)."""
    grid = g.grid
    if grid.dim == 1:
        out = _sup_over_family_1d(g.real_values(), grid, alpha, osc=True)
    else:
        out = _sup_over_family_nd(g.real_values(), grid, alpha, osc=True)
    return SampledFunction(grid, out.astype(complex))


# ---------------------------------------------------------------------------
# Critical-ball series maximal function and the cover-localized maximal.
# ---------------------------------------------------------------------------


def _ball_mean_abs_p(f: SampledFunction, ball: Ball, p: float) -> float:
    mask = ball_mask(f.grid, ball)
    return float(np.mean(np.abs(f.values[mask]) ** p))


def g_kappa_p(
    f: SampledFunction, kappa: float, p: float, cover: CriticalCover, n_big: int = 8
) -> SampledFunction:
    """sup over critical balls Q containing x of sum_k 2^(-N k) avg_{2^k kQ}(|f|^p)^(1/p).

    Once 2^k kappa reaches the box scale every average equals the whole-box
    average, so the tail is the exact geometric closed form; no truncation
    error remains.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if n_big < f.grid.dim / p + 1:
        raise ValueError(f"n_big {n_big} too small for convergence at p={p}")
    grid = f.grid
    box_avg = float(np.mean(np.abs(f.values) ** p)) ** (1.0 / p)
    values = np.full(grid.shape, -np.inf)
    for center in cover.centers:
        total, k = 0.0, 0
        while True:
            radius = kappa * 2.0**k
            if radius >= grid.half_length:
                total += box_avg * 2.0 ** (-n_big * k) / (1.0 - 2.0 ** (-n_big))
                break
            avg = _ball_mean_abs_p(f, Ball(center, radius), p) ** (1.0 / p)
            total += 2.0 ** (-n_big * k) * avg
            k += 1
        mask = ball_mask(grid, Ball(center, 1.0))
        np.maximum(values, np.where(mask, total, -np.inf), out=values)
    return SampledFunction(grid, values.astype(complex))


def m_tilde_s(f: SampledFunction, s: float, cover: CriticalCover) -> SampledFunction:
    """On each critical ball, the maximal function of f cut to the 8-dilate.

    Overlapping critical balls are resolved by a pointwise max, not the sum;
    the sum would double-count on overlaps.
    """
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    grid = f.grid
    if 8.0 > grid.half_length:
        raise ValueError("8-fold dilates of critical balls exceed the box")
    alpha = grid.half_length / 2.0
    out = np.full(grid.shape, -np.inf)
    for center in cover.centers:
        cut_mask = ball_mask(grid, Ball(center, 8.0))
        cut = np.where(cut_mask, np.abs(f.values) ** s, 0.0)
        if grid.dim == 1:
            ms = _sup_over_family_1d(cut, grid, alpha, osc=False)
        else:
            ms = _sup_over_family_nd(cut, grid, alpha, osc=False)
        ms = ms ** (1.0 / s)
        q_mask = ball_mask(grid, Ball(center, 1.0))
        np.maximum(out, np.where(q_mask, ms, -np.inf), out=out)
    return SampledFunction(grid, out.astype(complex))


# ---------------------------------------------------------------------------
# Weighted checks.
# ---------------------------------------------------------------------------


def check_fs_inequality(
    g: SampledFunction,
    w,
    p: float,
    cover: CriticalCover,
    beta: float = 0.5,
    alpha_sharp: float = 4.0,
) -> VerificationReport:
    """Ratio of int |M_loc,beta g|^p w against the sharp-function right side.

    RHS = int |M_sharp_loc,alpha g|^p w + sum_k w(Q_k) avg_{2Q_k}(|g|)^p.
    """
    grid = g.grid
    wv = w.values if hasattr(w, "values") else np.asarray(w)
    lhs = lp_norm(m_loc(g, beta), p, weight=SampledFunction(grid, wv.astype(complex))) ** p
    sharp = lp_norm(
        m_sharp_loc(g, alpha_sharp), p, weight=SampledFunction(grid, wv.astype(complex))
    ) ** p
    tail = 0.0
    for center in cover.centers:
        q = Ball(center, 1.0)
        wq = float(np.sum(np.real(wv)[ball_mask(grid, q)])) * grid.cell_volume
        avg = float(np.mean(np.abs(g.values[ball_mask(grid, q.dilate(2.0))])))
        tail += wq * avg**p
    rhs = sharp + tail
    ratio = lhs / rhs if rhs > 0 else np.inf
    cfg = config_hash(
        {"check": "fs_inequality", "p": p, "beta": beta, "alpha_sharp": alpha_sharp,
         "n": grid.n, "L": grid.half_length}
    )
    return VerificationReport(
        experiment="fefferman_stein_local",
        config_hash=cfg,
        seed=0,
        items=[
            {"id": "lhs", "params": {"p": p, "beta": beta}, "value": lhs},
            {"id": "sharp_term", "params": {"alpha": alpha_sharp}, "value": sharp},
            {"id": "cover_term", "params": {"balls": len(cover.centers)}, "value": tail},
        ],
        aggregate={"ratio": ratio},
        verdict="pass" if np.isfinite(ratio) else "fail",
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

    f_corpus: iterable of (label, SampledFunction, params) where params may
    carry a "shift" used for the translation-trend regression.  The weight
    must pass the A_{p/s}^theta stabilization gate first; otherwise the
    verdict is hypothesis_unverified and the numbers are still reported.
    A pass needs each max within spread times its median and each trend
    slope within +-trend.
    """
    from .fitting import least_squares_line
    from .function_classes import stabilized_characteristic
    from .grid import sweep_family

    if not p > s > 1.0:
        raise ValueError(f"need p > s > 1, got p={p}, s={s}")
    grid = w.grid
    gate = stabilized_characteristic(
        w, p / s, theta, sweep_family(grid)
    )
    items = []
    ratios_g, ratios_m, shifts = [], [], []
    wfn = SampledFunction(grid, w.values.astype(complex))
    for label, f, params in f_corpus:
        denom = lp_norm(f, p, weight=wfn)
        if denom == 0.0:
            continue
        rg = lp_norm(g_kappa_p(f, kappa, s, cover, n_big), p, weight=wfn) / denom
        rm = lp_norm(m_tilde_s(f, s, cover), p, weight=wfn) / denom
        ratios_g.append(rg)
        ratios_m.append(rm)
        if "shift" in params:
            shifts.append(abs(float(params["shift"])))
        items.append({"id": label, "params": dict(params),
                      "value": {"series_ratio": rg, "cover_ratio": rm}})
    if not ratios_g:
        raise ValueError("empty corpus")
    agg = {
        "series_max": max(ratios_g),
        "series_median": float(np.median(ratios_g)),
        "cover_max": max(ratios_m),
        "cover_median": float(np.median(ratios_m)),
        "gate_stable": gate.stable,
    }
    trend_ok = True
    if len(set(shifts)) >= 3 and len(shifts) == len(ratios_m):
        xv = np.log2(1.0 + np.asarray(shifts))
        for key, rr in (("series_trend", ratios_g), ("cover_trend", ratios_m)):
            sl, _, _ = least_squares_line(xv, np.log2(np.asarray(rr)))
            agg[key] = sl
            trend_ok = trend_ok and abs(sl) <= trend
    stats_ok = (
        agg["series_max"] <= spread * agg["series_median"]
        and agg["cover_max"] <= spread * agg["cover_median"]
    )
    if not gate.stable:
        verdict = "hypothesis_unverified"
    else:
        verdict = "pass" if stats_ok and trend_ok else "fail"
    cfg = config_hash(
        {"check": "weighted_maximal", "p": p, "s": s, "theta": theta, "kappa": kappa,
         "w": w.label, "n": grid.n, "L": grid.half_length, "corpus": len(items)}
    )
    return VerificationReport(
        experiment="weighted_maximal_bounds",
        config_hash=cfg,
        seed=0,
        items=items,
        aggregate=agg,
        verdict=verdict,
    )
