"""Critical-ball covers and localized maximal operators.

The cover comes from greedy Vitali selection on the 1/5-radius lattice
family: kept centers are pairwise more than 2/5 apart, so unit balls around
them cover the box and the sigma-dilates have multiplicity O(sigma).

Every "sup over all balls" below is realized over a structured family
(centers 8k on a stride-8 sublattice, dyadic radii), which keeps results
reproducible, and every family window mean comes from a prefix sum.  Family
windows, cover rows and the first point of each Q_j and 8-dilate are arcs
of grid._ball_arcs, the one membership rule.  All points of
one residue class mod 8 in one block of 8, a slot, lie in the windows of the
same run of centers (Gil and Werman 1993), so every sup over the windows
that hold a point is a sparse-table range max per slot, all radii from one
table, and one take spreads the slots over the points.  m_loc and
m_sharp_loc take it on the whole circle, as the one-row case of a (rows, n)
core: one doubled prefix sum per stack, per radius one gather of the window
means, and one slot range max for every row, planned once per grid and
alpha.  The mean oscillation takes, per radius and row, three passes over
(n/8) count values in one work buffer: a copy of the windows from a strided
view of the row, the centring and abs in place, and a pairwise reduce per
window.  That is the floor of the fs target in numpy.
m_tilde_s runs all critical balls at once, ball j as row j, on the slots of
Q_j.  Its index work depends only on the cover and is planned on a cover's
first call, kept for the last two covers: for each window, the ends in one
doubled prefix of |f|^s of its part inside row j's 8-dilate, over the radii
up to the first whose window holds the whole dilate, so the work per ball
does not grow with the box.  A call takes one cumsum of |f|^s over the
doubled circle, two gathers, a subtract and a divide for all windows, the
table, a power of the slots and one take and max over the covering balls.
g_kappa_p reads each ball's average over a dyadic dilate as the sum of a
few pairwise blocks of |f|^p, one per binary digit of the ball's point
count, so an average far from the mass of f keeps its own relative
accuracy.  Both read the cover's balls as arcs; only its radii 1 and 2
are ever read as (balls, points) index windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import corpus_blocks
from .function_classes import stabilization_criteria, stabilized_characteristic
from .grid import (
    PeriodicGrid,
    SampledFunction,
    _ball_arcs,
    _sweep_radii,
    ball_windows,
    lp_norms,
    sweep_family,
)
from .report import Criterion, VerificationReport, ratio_family, trend_criterion

__all__ = [
    "CriticalCover",
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


@dataclass(frozen=True)
class CriticalCover:
    """Unit balls Q_j = B(x_j, 1) whose union covers the box; centers[j] = x_j."""

    grid: PeriodicGrid
    centers: tuple[float, ...]

    def windows(self, radius: float) -> np.ndarray:
        """Read-only (balls, points) array: row j holds the ascending
        indices of B(x_j, radius)."""
        return _cover_windows(self, radius)

    def meeting(self, indices) -> "CriticalCover":
        """The balls Q_j that hold one of the grid points indices, in order.

        The result does not cover the box.  g_kappa_p and m_tilde_s on it
        are exact at those points, where every Q_j holding the point is kept,
        and -inf off the union of the kept balls.
        """
        marked = np.zeros(self.grid.n, dtype=bool)
        marked[indices] = True
        keep = marked[self.windows(1.0)].any(axis=1)
        return CriticalCover(self.grid, tuple(c for c, k in zip(self.centers, keep) if k))

    def multiplicity(self, sigma: float = 1.0) -> np.ndarray:
        """Pointwise count of sigma-dilates covering each grid point: +1 at
        each arc's start and -1 past its end on the doubled line, one
        integer cumsum, and the two halves folded onto the circle."""
        n = self.grid.n
        starts, counts = _cover_arcs(self, sigma)
        steps = np.bincount(starts, minlength=2 * n + 1) - np.bincount(starts + counts,
                                                                       minlength=2 * n + 1)
        depth = np.cumsum(steps[: 2 * n])
        return depth[:n] + depth[n:]

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


@lru_cache(maxsize=32)
def _cover_windows(cover: CriticalCover, radius: float) -> np.ndarray:
    # the centers are lattice points, so every ball of one radius holds the
    # same number of points and the rows form one group
    ((_, rows),) = ball_windows(cover.grid, cover.centers, radius)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _cover_arcs(cover: CriticalCover, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (starts, counts) of B(x_j, radius) for every ball
    (grid._ball_arcs): arc j holds counts[j] points from starts[j]."""
    arcs = _ball_arcs(cover.grid, cover.centers, radius)
    for a in arcs:
        a.flags.writeable = False
    return arcs


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


def _check_family_radius(grid: PeriodicGrid, alpha: float) -> None:
    """The structured family starts at radius 8 dx, which alpha must reach."""
    r_min = 8.0 * grid.spacing
    if alpha < r_min:
        raise ValueError(f"alpha {alpha} below the minimum family radius {r_min}")


def _family_windows(grid: PeriodicGrid, alpha: float):
    """(radius, starts, count) per sweep radius 8 dx, 16 dx, .. up to alpha
    (grid._sweep_radii), then alpha itself if it is not one: the balls around
    the points 8k are the arcs (grid._ball_arcs) of count points from starts[k]."""
    _check_family_radius(grid, alpha)
    radii = _sweep_radii(grid, alpha)
    if radii[-1] < alpha * (1.0 - 1e-12):
        radii.append(alpha)
    for r in radii:
        starts, counts = _ball_arcs(grid, grid.axis_points()[::8], r)
        (count,) = set(counts.tolist())
        if count >= grid.n:
            raise ValueError("window exceeds the grid period")
        yield r, starts, count


def _slot_plan(points: np.ndarray, halves, c: int):
    """Slot-level range-max plan of the family windows of the ascending
    half-widths halves, at rows of points (each row consecutive integers in
    any order, not reduced mod n = 8c).

    Point x = 8b + i lies in the windows of the centers 8k, k = b +
    ceil((i - half) / 8) .. b + floor((i + half) / 8) (mod c).  Residues whose
    two offsets agree at every half form a class ({0} and {1..7} when every
    half is a multiple of 8); a slot is one class in one block b.  Returns the
    (rows, M) table columns r c + k (per half, the centers from the first that
    the row's runs reach, so no run crosses its segment), per half the width
    w = 2^floor(log2 ell), ell = (2 half + 1) // 8, with the (2, rows, S)
    columns of each slot's first and last w-block (a sparse table; Bender and
    Farach-Colton 2000), and each point's slot.  Slots that hold no point
    read columns clipped into their segment.  Exact for half >= 4.
    """
    i = np.arange(8)
    h = np.asarray(halves)[:, None, None]
    ends = np.concatenate([-((h - i) // 8), (i + h) // 8], axis=1)
    _, rep, cls = np.unique(ends.reshape(-1, 8).T, axis=0, return_index=True,
                            return_inverse=True)
    first, last = points.min(axis=1, keepdims=True), points.max(axis=1, keepdims=True)
    blocks = (first // 8 + np.arange(int(np.max(last // 8 - first // 8)) + 1))[..., None]
    columns, radii = [], []
    for r, (half, (lo, hi)) in enumerate(zip(halves, ends[:, :, rep])):
        k0 = -((half - first) // 8)
        m = int(np.max((last + half) // 8 - k0)) + 1
        width = 1 << (((2 * half + 1) // 8).bit_length() - 1)
        run = np.stack([blocks + lo, blocks + hi - width + 1]) - k0[..., None]
        offset = sum(col.shape[1] for col in columns)
        radii.append((width, (np.clip(run, 0, m - width) + offset).reshape(2, len(points), -1)))
        columns.append(r * c + (k0 + np.arange(m)) % c)
    slot = (points // 8 - first // 8) * len(rep) + cls.ravel()[points % 8]
    return np.concatenate(columns, axis=1), radii, slot


def _slot_range_max(table: np.ndarray, radii) -> np.ndarray:
    """Max over the radii of each slot's run max, from one sparse table.

    table: the window values in _slot_plan's columns, (rows, M) with reads
    shared by every row, or raveled with flat reads.  The table climbs its
    last axis once, level 2s = max(level s[..., :-s], level s[..., s:]), and
    each radius reads its slots at its width's level; max is exact, so any
    order gives the same bits.
    """
    out, step = None, 1
    for width, reads in radii:
        while step < width:
            table = np.maximum(table[..., :-step], table[..., step:])
            step *= 2
        got = np.maximum(np.take(table, reads[0], axis=-1), np.take(table, reads[1], axis=-1))
        out = got if out is None else np.maximum(out, got, out=out)
    return out


def _frozen_int32(index: np.ndarray) -> np.ndarray:
    """A read-only int32 copy of a plan's index array."""
    index = index.astype(np.int32)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=32)
def _family_plan(grid: PeriodicGrid, alpha: float):
    """The family windows up to alpha and the slot plan of the whole circle:
    table columns, slot reads shared by every row, each point's slot."""
    windows = tuple(_family_windows(grid, alpha))
    columns, radii, slot = _slot_plan(np.arange(grid.n)[None],
                                      [count // 2 for _, _, count in windows], grid.n // 8)
    return (windows, _frozen_int32(columns[0]),
            tuple((width, _frozen_int32(reads[:, 0])) for width, reads in radii),
            _frozen_int32(slot[0]))


def _check_finite_rows(x: np.ndarray) -> None:
    """Refuse a (rows, n) stack holding a non-finite sample: through the
    prefix sums it would reach windows that do not hold it."""
    bad = ~np.isfinite(x)
    if bad.any():
        row, index = np.argwhere(bad)[0]
        raise ValueError(f"row {row} has a non-finite sample at index {index}")


def _doubled_prefix(x: np.ndarray) -> np.ndarray:
    """0, then the prefix sums of the doubled samples along the last axis of x,
    so every periodic window of a row is one difference of two entries."""
    n = x.shape[-1]
    cs = np.zeros(x.shape[:-1] + (2 * n + 1,))
    cs[..., 1 : n + 1] = cs[..., n + 1 :] = x
    np.cumsum(cs[..., 1:], axis=-1, out=cs[..., 1:])
    return cs


def _window_means(rows: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(rows, J) means of each row of a (rows, n) stack over row j of a (J, K)
    index array.  A (rows * J, K) view reduces them as a (J, K) gather would,
    bit for bit; a mean over the last axis of (rows, J, K) may not."""
    gathered = np.take(rows, windows, axis=1)
    return np.mean(gathered.reshape(-1, windows.shape[1]), axis=1).reshape(gathered.shape[:2])


def _sup_over_family_rows(x: np.ndarray, grid: PeriodicGrid, alpha: float, osc: bool):
    """Family sup, row by row of a real (rows, n) stack, of the window means;
    with osc, of the mean oscillation."""
    _check_finite_rows(x)
    count_rows, n = x.shape
    family, columns, radii, slot = _family_plan(grid, alpha)
    cs = _doubled_prefix(x)
    vals = np.empty((count_rows, len(family), n // 8))
    if osc:
        # one deviation buffer for every row and radius, sized for the widest
        work = np.empty(n // 8 * max(count for _, _, count in family))
    for k, (_, starts, count) in enumerate(family):
        means = (cs[:, starts + count] - cs[:, starts]) / count
        if osc:
            # the window around center 8k starts at point 8k of the row
            # padded by half on each side: a strided view, no gather
            half = count // 2
            padded = np.concatenate([x[:, n - half :], x, x[:, :half]], axis=1)
            windows = sliding_window_view(padded, count, axis=1)[:, ::8]
            dev = work[: n // 8 * count].reshape(n // 8, count)
            for r in range(count_rows):
                # a contiguous copy first: centring the overlapping strided
                # view through a broadcast reads it at a fraction of copy speed
                np.copyto(dev, windows[r])
                dev -= means[r, :, None]
                np.add.reduce(np.abs(dev, out=dev), axis=1, out=vals[r, k])
            vals[:, k] /= count
        else:
            vals[:, k] = means
    table = np.take(vals.reshape(count_rows, -1), columns, axis=1)
    return np.take(_slot_range_max(table, radii), slot, axis=1)


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
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
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
    arcs = [_cover_arcs(cover, r) for r in radii]
    top = max((int(counts.max()) for _, counts in arcs), default=1)
    blocks = _pairwise_blocks(powered, top.bit_length())
    totals = np.zeros(len(cover.centers))
    for k, (starts, counts) in enumerate(arcs):
        # the centers are lattice points, so every ball of one radius holds
        # the same number of points
        (count,) = set(counts.tolist())
        # the window of count points from each start: one block per binary
        # digit of count, largest first
        sums, offset = 0.0, 0
        for level in reversed(range(count.bit_length())):
            if count >> level & 1:
                sums = sums + blocks[level][starts + offset]
                offset += 1 << level
        # Python float powers: numpy's array power can differ in the last ulp
        avgs = np.array([m ** (1.0 / p) for m in (sums / count).tolist()])
        totals += 2.0 ** (-n_big * k) * avgs
    totals += box_avg * 2.0 ** (-n_big * len(radii)) / (1.0 - 2.0 ** (-n_big))
    return SampledFunction(grid, np.max(np.append(totals, -np.inf)[_covering(cover)], axis=0))


def _pairwise_blocks(x: np.ndarray, levels: int) -> list[np.ndarray]:
    """Level l: the sums of the 2^l consecutive samples of the doubled row x
    from each point on, each a pairwise sum of two level l - 1 blocks.

    Every block sum of non-negative samples is then within l units of
    roundoff of the exact sum, relative to itself and not to the row's total,
    which a prefix difference would be (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 4.2).
    """
    blocks = [np.concatenate([x, x])]
    for level in range(1, levels):
        half = 1 << (level - 1)
        blocks.append(blocks[-1][:-half] + blocks[-1][half:])
    return blocks


@lru_cache(maxsize=32)
def _covering(cover: CriticalCover) -> np.ndarray:
    """The balls Q_j holding each grid point x, ascending in column x of a
    read-only (max multiplicity, n) table, padded with J: a max over axis 0
    of J + 1 values, the last -inf, is the max over the balls holding x."""
    q = cover.windows(1.0)
    order = np.argsort(q, axis=None, kind="stable")
    mult = np.bincount(q.ravel(), minlength=cover.grid.n)
    table = np.full((int(mult.max()), cover.grid.n), len(q))
    rank = np.arange(q.size) - np.repeat(np.cumsum(mult) - mult, mult)
    table[rank, q.ravel()[order]] = order // q.shape[1]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class _CoverMaximalPlan:
    """The f-independent index work of m_tilde_s on one cover, read-only.

    lo, hi: (J, M) ends, in the doubled prefix of |f|^s, of the part of the
    window at row j's table column that lies in the 8-dilate of Q_j;
    counts: (M,) window lengths.  split: the flat (J M) places whose part is
    two arcs, a window that reaches round the circle past the dilate's gap
    (only for L under about 9.5), and lo2, hi2 the ends of their second arc.
    radii: per radius, the table width and flat slot reads.  spread:
    _covering's table in flat slots of the (J, S) slot maxima, padded with
    J S.
    """

    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    split: np.ndarray
    lo2: np.ndarray
    hi2: np.ndarray
    radii: tuple[tuple[int, np.ndarray], ...]
    spread: np.ndarray


def _dilate_family(grid: PeriodicGrid, size: int) -> list:
    """The family windows up to L/2 (_family_windows) through the first whose
    half-width reaches size // 2 + 4.

    Around the center 8k nearest x_j (|8k - x_j| <= 4 points) that window
    holds all of the size-point dilate.  Each larger window that holds a
    point of Q_j reads a sub-arc of the dilate over more points, so its mean
    is at most the dilate's total over that window's count.  The sub-arc's
    prefix difference is at most the whole arc's (a monotone prefix, one
    place per arc), so the order holds after rounding too, and the max at
    every point of Q_j keeps its bits.
    """
    family = []
    for window in _family_windows(grid, grid.half_length / 2.0):
        family.append(window)
        if window[2] // 2 >= size // 2 + 4:
            break
    return family


@lru_cache(maxsize=2)
def _cover_maximal_plan(cover: CriticalCover) -> _CoverMaximalPlan:
    grid = cover.grid
    n, c = grid.n, grid.n // 8
    first, sizes = _cover_arcs(cover, 8.0)
    q_first, q_sizes = _cover_arcs(cover, 1.0)
    (size,), (size_q,) = set(sizes.tolist()), set(q_sizes.tolist())
    rows = len(first)
    family = _dilate_family(grid, size)
    # row j's points: Q_j's arc from its first point, not reduced mod n
    columns, radii, slot = _slot_plan(q_first[:, None] + np.arange(size_q),
                                      [count // 2 for _, _, count in family], c)
    # for L >= 8 every segment holds under c centers, so no window repeats
    assert np.bincount(columns[0] // c).max() < c
    counts = np.array([count for _, _, count in family])[columns[0] // c]
    # Each window, from u points past the first point of row j's dilate on
    # the circle, meets the dilate in [u, size) and in the next turn's
    # [0, u + count - n), both in the dilate's own coordinates: one place in
    # the prefix for each arc of the circle, whichever window reads it.
    u = (np.concatenate([starts for _, starts, _ in family])[columns] - first[:, None]) % n
    lo, hi = np.minimum(u, size), np.minimum(u + counts, size)
    hi_next = np.clip(u + counts - n, 0, size)
    live = lo < hi
    split = np.flatnonzero(live & (hi_next > 0))
    lo2 = first[split // lo.shape[1]]
    hi2 = lo2 + hi_next.ravel()[split]
    lo = first[:, None] + np.where(live, lo, 0)
    hi = first[:, None] + np.where(live, hi, hi_next)
    # each covering ball's slot of the point, at its place t on the ball's arc
    balls, row, slots = _covering(cover), np.arange(rows)[:, None], radii[0][1].shape[2]
    j = np.minimum(balls, rows - 1)
    t = np.minimum((np.arange(n) - q_first[j]) % n, size_q - 1)
    spread = np.where(balls < rows, j * slots + slot[j, t], rows * slots)
    return _CoverMaximalPlan(
        _frozen_int32(lo), _frozen_int32(hi), _frozen_int32(counts),
        _frozen_int32(split), _frozen_int32(lo2), _frozen_int32(hi2),
        tuple((w, _frozen_int32(row * columns.shape[1] + reads)) for w, reads in radii),
        _frozen_int32(spread))


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
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    grid = f.grid
    _check_dilates_fit(grid)
    _check_finite_rows(f.values[None])
    plan = _cover_maximal_plan(cover)
    # |f|^s >= 0, so every later entry minus an earlier one is >= 0
    prefix = _doubled_prefix(np.abs(f.values) ** s)
    sums = np.take(prefix, plan.hi) - np.take(prefix, plan.lo)
    sums.reshape(-1)[plan.split] += np.take(prefix, plan.hi2) - np.take(prefix, plan.lo2)
    slots = np.append(_slot_range_max((sums / plan.counts).ravel(), plan.radii) ** (1.0 / s),
                      -np.inf)
    return SampledFunction(grid, np.max(np.take(slots, plan.spread), axis=0))


# ---------------------------------------------------------------------------
# Weighted checks.
# ---------------------------------------------------------------------------


def fs_inequality_rows(
    stacks,
    w,
    p: float,
    cover: CriticalCover,
    beta: float = 0.5,
    alpha_sharp: float = 4.0,
) -> list[tuple[float, float, float, float]]:
    """(lhs, sharp, cover term, lhs / rhs) for each row g of each (rows, n)
    stack in stacks, in turn, sampled on the cover's grid.

    lhs = int |M_loc,beta g|^p w, and the right side is
    int |M_sharp_loc,alpha g|^p w + sum_k w(Q_k) avg_{2Q_k}(|g|)^p.
    The sharp function needs real g: a row is refused, as
    SampledFunction.real_values refuses it, when its imaginary part exceeds
    1e-9 max(1, max |g|).
    """
    grid = cover.grid
    wv = w.real_values(1e-12) if isinstance(w, SampledFunction) else w.values
    # w(Q_k), the same product per ball as a Python float multiply
    w_balls = (np.sum(wv[cover.windows(1.0)], axis=1) * grid.spacing).tolist()
    q2 = cover.windows(2.0)
    out = []
    for stack in stacks:
        if stack.shape[1:] != grid.shape:
            raise ValueError(f"row shape {stack.shape[1:]} != grid shape {grid.shape}")
        rows = len(stack)
        magnitude = np.abs(stack)
        if np.iscomplexobj(stack):
            # fmax, like Python's max, passes over a NaN row maximum
            scale = np.fmax(1.0, np.max(magnitude, axis=1))
            if np.any(np.max(np.abs(stack.imag), axis=1) > 1e-9 * scale):
                raise ValueError("values have a non-negligible imaginary part")
        maximal = np.concatenate([_sup_over_family_rows(magnitude, grid, beta, osc=False),
                                  _sup_over_family_rows(stack.real, grid, alpha_sharp, osc=True)])
        # one weight check and one reduction for both integrals of every row
        norms = lp_norms(grid, maximal, p, weight=wv)
        for lhs_norm, sharp_norm, avgs in zip(norms[:rows], norms[rows:],
                                              _window_means(magnitude, q2).tolist()):
            lhs, sharp = lhs_norm**p, sharp_norm**p
            tail = 0.0
            for wq, avg in zip(w_balls, avgs):
                tail += wq * avg**p
            rhs = sharp + tail
            out.append((lhs, sharp, tail, lhs / rhs if rhs > 0 else np.inf))
    return out


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
    carry a "shift" used for the translation-trend regression.  The weight
    must pass the A_{p/s}^theta stabilization gate first; otherwise the
    verdict is hypothesis_unverified and the numbers are still reported.
    Each ratio family is judged by report.ratio_family at cap spread and,
    when the shifts vary, by report.trend_criterion within +-trend.
    """
    _check_maximal_exponents(p, s)
    grid = w.grid
    gate = stabilized_characteristic(w, p / s, theta, sweep_family(grid))
    ratios_g, ratios_m, shifts = [], [], []
    wv = w.values
    # per block of items, one weighted reduction for each of the three norms
    for block, rows in corpus_blocks(list(f_corpus), grid.n):
        norms = [lp_norms(grid, np.stack(values), p, weight=wv) for values in (
            rows, [g_kappa_p(f, kappa, s, cover, n_big).values for _, f, _ in block],
            [m_tilde_s(f, s, cover).values for _, f, _ in block])]
        for (_, _, params), denom, g_norm, m_norm in zip(block, *norms):
            if denom == 0.0:
                continue
            ratios_g.append(g_norm / denom)
            ratios_m.append(m_norm / denom)
            if "shift" in params:
                shifts.append(abs(float(params["shift"])))
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
