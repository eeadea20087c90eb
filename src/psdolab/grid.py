"""Periodic grids, sampled functions, balls, and the discrete transform pair.

Everything downstream lives on a uniform grid over the periodic box [-L, L)
with N points (N a power of two).  The matching frequency lattice is
xi = (pi/L) * m for integer m in [-N/2, N/2); it is itself the point set of a
periodic grid (the reciprocal grid), which is where spectra live.  The
transform pair is unitary, so the L2 norm taken with each grid's own measure
is preserved exactly.  Every array of samples, phases or spectra keeps its
input's precision and is at least double (_working), so a grid whose half
length is a float runs in double and one whose half length is np.longdouble
runs in long double, arcs and index plans alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "PeriodicGrid",
    "SampledFunction",
    "Ball",
    "BallFamily",
    "make_grid",
    "sample",
    "dft",
    "idft",
    "dft_rows",
    "idft_rows",
    "inner",
    "lp_norm",
    "lp_norms",
    "ball_mask",
    "ball_indices",
    "ball_windows",
    "sweep_family",
]

MIN_POINTS_PER_BALL = 8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on [-L, L), L = half_length, N points."""

    n: int
    half_length: float

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n) or self.n < 64:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")
        if not self.half_length > 0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")

    @property
    def spacing(self) -> float:
        # exact in floats: division of 2L by a power of two
        return 2.0 * self.half_length / self.n

    @property
    def freq_spacing(self) -> float:
        return np.pi / self.half_length

    @property
    def xi_max(self) -> float:
        """Magnitude of the unpaired lattice mode, pi*(N/2)/L."""
        return self.freq_spacing * (self.n // 2)

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def size(self) -> int:
        return self.n

    def axis_points(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.n)

    def axis_freqs(self) -> np.ndarray:
        return self.freq_spacing * (np.arange(self.n) - self.n // 2)

    def reciprocal(self) -> "PeriodicGrid":
        """Grid whose point set is this grid's frequency lattice."""
        return PeriodicGrid(self.n, self.n * self.freq_spacing / 2.0)

    def is_compatible(self, other: "PeriodicGrid") -> bool:
        return (
            self.n == other.n
            and abs(self.half_length - other.half_length) <= 1e-12 * self.half_length
        )

    def wrap(self, displacement: np.ndarray) -> np.ndarray:
        """Reduce displacements to the fundamental window [-L, L)."""
        two_l = 2.0 * self.half_length
        return (np.asarray(displacement) + self.half_length) % two_l - self.half_length


def make_grid(n: int, half_length: float) -> PeriodicGrid:
    return PeriodicGrid(n, float(half_length))


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values on a periodic grid in their working precision (_working, which
    wraps an array already there without a copy); real_values(tol) refuses
    an imaginary part above tol * max(1, max |value|)."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _working(self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", vals)

    def real_values(self, tol: float = 1e-9) -> np.ndarray:
        return _real_rows(self.values, tol)


def _working(x) -> np.ndarray:
    """x as an array in its working precision, the package's one precision
    rule: samples, phases and spectra keep their input's precision and are at
    least double.  The floor is np.float64, not 1.0, which numpy 2 reads as
    a weak Python float that would leave float32 as it is."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, np.float64), copy=False)


def _real_rows(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The real part of one row, or of each row of a (rows, n) stack; a row
    whose imaginary part exceeds tol * max(1, max |value|) is refused (fmax,
    like Python's max, passes over a NaN row maximum)."""
    if np.iscomplexobj(values):
        scale = np.fmax(1.0, np.max(np.abs(values), axis=-1))
        if np.any(np.max(np.abs(values.imag), axis=-1) > tol * scale):
            raise ValueError("values have a non-negligible imaginary part")
    return values.real


def _built_real(values) -> np.ndarray:
    """The real part of an input built from a real formula, a weight or the
    multiplier b, refused as _real_rows refuses it above an imaginary part of
    1e-12 max(1, max |value|).  Rows a transform computes keep 1e-9."""
    return _real_rows(np.asarray(values), 1e-12)


def sample(grid: PeriodicGrid, fn: Callable) -> SampledFunction:
    """Evaluate fn on the grid points, keeping the dtype rule of SampledFunction."""
    return SampledFunction(grid, fn(grid.axis_points()))


# ---------------------------------------------------------------------------
# Transform pair.
#
# dft(f)(xi) = (2pi)^{-1/2} * sum_x f(x) e^{-i x xi} dx  on the lattice,
# idft(g)(x) = (2pi)^{-1/2} * sum_xi g(xi) e^{+i x xi} dxi.
# Implemented by FFT between two shifts; unitary w.r.t. each grid's own
# counting measure, so Parseval is exact up to roundoff.  n is even, so
# ifftshift and fftshift are one and the same swap of the two halves, which
# two slice copies make (np.roll takes twice as long).  The _rows forms act
# on a (rows, n) stack along the last axis, one FFT call per stack; each row
# comes out bit for bit as its one-row transform, which dft and idft are.
# ---------------------------------------------------------------------------


def _half_swap(values: np.ndarray) -> np.ndarray:
    """values with the two halves of its last axis swapped: fftshift and
    ifftshift of an even-length axis."""
    half = values.shape[-1] // 2
    out = np.empty_like(values)
    out[..., :half] = values[..., half:]
    out[..., half:] = values[..., :half]
    return out


def _shifted_fft(values: np.ndarray, transform) -> np.ndarray:
    return _half_swap(transform(_half_swap(values), axis=-1))


def dft_rows(grid: PeriodicGrid, rows: np.ndarray) -> np.ndarray:
    """dft of each row of a (rows, n) stack sampled on grid."""
    return _shifted_fft(rows, np.fft.fft) * (grid.spacing / (2.0 * np.pi) ** 0.5)


def idft_rows(grid: PeriodicGrid, rows: np.ndarray) -> np.ndarray:
    """idft of each row of a (rows, n) stack of spectra on grid, a reciprocal grid."""
    g_out = grid.reciprocal()
    return _shifted_fft(rows, np.fft.ifft) * ((2.0 * np.pi) ** 0.5 / g_out.spacing)


def dft(f: SampledFunction) -> SampledFunction:
    return SampledFunction(f.grid.reciprocal(), dft_rows(f.grid, f.values))


def idft(f: SampledFunction) -> SampledFunction:
    return SampledFunction(f.grid.reciprocal(), idft_rows(f.grid, f.values))


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """<f, g> = sum f * conj(g) * dx."""
    if not f.grid.is_compatible(g.grid):
        raise ValueError("inner product requires functions on the same grid")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.spacing)


def _weight_values(w, grid: PeriodicGrid) -> np.ndarray:
    """A weight's samples on grid, the one weight form: an array of the
    grid's shape that is built real and strictly positive."""
    wv = _working(_built_real(w))
    if wv.shape != grid.shape:
        raise ValueError("weight shape does not match grid")
    if np.min(wv) <= 0.0:
        raise ValueError("weight must be strictly positive")
    return wv


def _check_exponent(name: str, value: float) -> None:
    """An L^p exponent (or the s of an s-mean) must be at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def lp_norms(grid: PeriodicGrid, rows: np.ndarray, p: float, weight=None) -> list[float]:
    """lp_norm of each row of a (rows, n) stack sampled on grid; weight is
    None or an array (_weight_values)."""
    _check_exponent("p", p)
    a = np.abs(rows) ** p
    if weight is not None:
        a = a * _weight_values(weight, grid)
    # Python float powers: numpy's array power can differ in the last ulp
    return [s ** (1.0 / p) for s in (np.sum(a, axis=-1) * grid.spacing).tolist()]


def lp_norm(f: SampledFunction, p: float, weight=None) -> float:
    """(sum |f|^p w dx)^(1/p), w an array on f's grid; weight defaults to 1."""
    return lp_norms(f.grid, f.values[None, :], p, weight)[0]


# ---------------------------------------------------------------------------
# Balls.  Membership uses periodic distance; the radius cap r <= L keeps each
# ball one lattice arc that never wraps onto itself.  Dilates and annuli are
# plain set algebra on grid indices, so dyadic annuli partition a dilate exactly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: tuple[float]
    radius: float

    def __post_init__(self) -> None:
        c = np.ravel(self.center)
        if c.shape != (1,):
            raise ValueError(f"ball center must be one coordinate, got {self.center}")
        object.__setattr__(self, "center", (float(c[0]),))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def dilate(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)

    def fully_inside(self, grid: PeriodicGrid) -> bool:
        return bool(_inside_box(grid, self.center[0], self.radius))


def _inside_box(grid: PeriodicGrid, centers, radii):
    """Whether each ball B(c, r) lies inside the box, |c| + r < L: strict,
    since the box is [-L, L) and a closed ball touching +L wraps."""
    return np.abs(centers) + radii < grid.half_length


def _slack(bound):
    """bound with the package's relative slack 1e-12, which absorbs the
    roundoff of a radius, a wrap or a lattice extent computed another way."""
    return bound * (1.0 + 1e-12)


def _inside(d2: np.ndarray, radius: float) -> np.ndarray:
    """Whether each squared periodic distance d2 lies within the radius."""
    return d2 <= _slack(radius) ** 2


def _ball_arcs(grid: PeriodicGrid, centers, radius: float):
    """(starts, counts): the package's one membership rule.  B(centers[i],
    radius) is the periodic lattice arc of counts[i] points from starts[i].

    With k = floor(r/dx), lattice offsets up to k - 1 from the nearest lattice
    point lie inside by a margin of dx/2 and offsets past k + 1 outside, so
    only the arc ends +-k and +-(k + 1) take the distance test.  An arc whose
    ends meet holds all n points and starts at 0.
    """
    if radius > grid.half_length:
        raise ValueError(f"ball radius {radius} exceeds half box {grid.half_length}")
    centers = _working(centers)
    n, dx = grid.n, grid.spacing
    k = int(np.floor(radius / dx))
    mid = np.floor((centers + grid.half_length) / dx + 0.5).astype(int)
    # the same arithmetic as axis_points(), on the arc ends only
    idx = (mid[:, None] + np.array([-k - 1, -k, k, k + 1])) % n
    ends = _inside(grid.wrap(-grid.half_length + dx * idx - centers[:, None]) ** 2, radius)
    start = mid - (k - 1) - np.maximum(ends[:, 1], 2 * ends[:, 0])
    counts = np.clip(mid + (k - 1) + np.maximum(ends[:, 2], 2 * ends[:, 3]) - start + 1, 0, n)
    return np.where(counts < n, start % n, 0), counts


def ball_windows(grid: PeriodicGrid, centers, radius: float):
    """Ascending indices of the grid points in B(c, radius), many centers c at once.

    Returns (positions, rows) groups, one per point count in order of first
    appearance (lattice centers form one): rows[i] is the arc (_ball_arcs)
    of centers[positions[i]], a wrapped arc read as 0..e-1, start..n-1.
    """
    start, counts = _ball_arcs(grid, centers, radius)
    wrapped = np.maximum(start + counts - grid.n, 0)
    groups = []
    for count in dict.fromkeys(counts.tolist()):
        pos = np.flatnonzero(counts == count)
        col, e = np.arange(count), wrapped[pos, None]
        groups.append((pos, np.where(col < e, col, start[pos, None] + col - e)))
    return tuple(groups)


def ball_indices(grid: PeriodicGrid, ball: Ball) -> np.ndarray:
    """Ascending indices of the grid points in the ball: ball_windows of one center."""
    ((_, rows),) = ball_windows(grid, ball.center, ball.radius)
    return rows[0]


def ball_mask(grid: PeriodicGrid, ball: Ball) -> np.ndarray:
    mask = np.zeros(grid.n, dtype=bool)
    mask[ball_indices(grid, ball)] = True
    return mask


# ---------------------------------------------------------------------------
# Windows: every reduction over ball arcs.  A window is the arc of one ball
# (_ball_arcs); the functions below turn arcs into gathers, sums, means,
# maxima and mean oscillations, and no other module slices or gathers one.
# The class sweeps and the cover's radius 1 and 2 balls are (balls, points)
# index windows, one gather per radius reduced along the points.  The sups
# over all balls run over a structured family (centers 8k, dyadic radii),
# whose window means are differences of one doubled prefix sum, and take
# their max per slot, the points whose windows are one run of centers (Gil
# and Werman 1993), from one sparse table (_slot_plan); m_tilde_s does the
# same on the slots of each critical ball, over the window parts inside its
# 8-dilate (_cover_plan).  A radius whose windows are at least as long as
# the dilate reads two columns per ball there, clipped into each slot's run,
# and the radii stop after the first whose window at the first of the two
# holds every ball's whole dilate (_edge_center).  g_kappa_p sums pairwise
# blocks, so an average far from the mass of f keeps its own relative
# accuracy (_arc_means).  The index work that depends only on the grid and
# the arcs is built once, by _plan.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _plan(build, *key):
    """build(*key), built once per key: the one plan cache of the windows,
    keyed by the grid and what fixes the arcs.  Every array of a plan,
    nested in tuples, is read-only."""
    plan = build(*key)
    parts = [plan]
    while parts:
        part = parts.pop()
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
        elif isinstance(part, tuple):
            parts.extend(part)
    return plan


def _family_groups(grid: PeriodicGrid, family: BallFamily):
    """(positions in family, index matrix) groups from one gather per radius;
    row i of a matrix holds the indices of family.ball(positions[i])."""
    radii, centers = np.array(family.ball_radii), np.array(family.centers)
    groups = []
    for r in dict.fromkeys(family.ball_radii):
        pos = np.flatnonzero(radii == r)
        for sub, rows in ball_windows(grid, centers[pos], r):
            if rows.shape[1] < MIN_POINTS_PER_BALL:
                raise ValueError(f"ball {family.ball(pos[sub[0]])} contains "
                                 f"{rows.shape[1]} grid points, needs >= {MIN_POINTS_PER_BALL}")
            groups.append((pos[sub], rows))
    return tuple(groups)


def _gathered(x, windows: np.ndarray, reduce=np.mean, **kwargs) -> np.ndarray:
    """reduce(v, axis=-1, **kwargs) of the samples v of the last axis of x
    in each row of a (J, K) index array (or in one index row): (..., J)."""
    return reduce(np.take(x, windows, axis=-1), axis=-1, **kwargs)


def _per_ball(x, groups, reduce=np.mean, **kwargs) -> list:
    """_gathered(x, rows, reduce, **kwargs) per ball of the (positions,
    index matrix) groups of a family (_family_groups), in family order: one
    list, or k lists from a reduce that gives k values per row ((k, J))."""
    out = None
    for pos, rows in groups:
        got = _gathered(x, rows, reduce, **kwargs)
        if out is None:
            out = np.empty(got.shape[:-1] + (sum(len(p) for p, _ in groups),),
                           dtype=_working(got).dtype)
        out[..., pos] = got
    return [] if out is None else out.tolist()


def _log_mean(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """log mean exp(v) along axis, from the max: no exp overflows, and the
    largest term is exp(0) = 1, so no mean underflows to 0 (Blanchard,
    Higham and Higham, IMA J. Numer. Anal. 41, 2021)."""
    top = np.max(v, axis=axis, keepdims=True)
    return np.log(np.mean(np.exp(v - top), axis=axis)) + np.squeeze(top, axis=axis)


def _oscillation(v: np.ndarray, axis: int = -1, s: float | tuple = 1.0,
                 center=None) -> np.ndarray:
    """mean |v - center|^s along axis, center the mean of v unless given;
    for a tuple s, one such mean per entry, stacked first, from one centring."""
    if center is None:
        center = np.mean(v, axis=axis, keepdims=True)
    dev = np.abs(v - center)
    if isinstance(s, tuple):
        return np.stack([np.mean(dev ** e, axis=axis) for e in s])
    return np.mean(dev ** s, axis=axis)


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
    cs = np.zeros(x.shape[:-1] + (2 * n + 1,), dtype=_working(x).dtype)
    cs[..., 1 : n + 1] = cs[..., n + 1 :] = x
    np.cumsum(cs[..., 1:], axis=-1, out=cs[..., 1:])
    return cs


def _arc_means(x: np.ndarray, grid: PeriodicGrid, centers, radii) -> list[np.ndarray]:
    """Per radius, the means of the samples x over the balls B(centers[j],
    radius), which hold one count of points: each sum a few pairwise blocks,
    one per binary digit of the count, largest first.

    Level l holds the sums of the 2^l consecutive samples of the doubled x
    from each point on, each a pairwise sum of two level l - 1 blocks.  Every
    block sum of non-negative samples is then within l units of roundoff of
    the exact sum, relative to itself and not to the row's total, which a
    prefix difference would be (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2).
    """
    arcs = [_plan(_ball_arcs, grid, centers, r) for r in radii]
    top = max((int(counts.max()) for _, counts in arcs), default=1)
    blocks = [np.concatenate([x, x])]
    for level in range(1, top.bit_length()):
        half = 1 << (level - 1)
        blocks.append(blocks[-1][:-half] + blocks[-1][half:])
    means = []
    for starts, counts in arcs:
        (count,) = set(counts.tolist())
        sums, offset = 0.0, 0
        for level in reversed(range(count.bit_length())):
            if count >> level & 1:
                sums = sums + blocks[level][starts + offset]
                offset += 1 << level
        means.append(sums / count)
    return means


def _depth(grid: PeriodicGrid, centers, radius: float) -> np.ndarray:
    """Pointwise count of the balls B(centers[j], radius) holding each grid
    point: +1 at each arc's start and -1 past its end on the doubled line,
    one integer cumsum, and the two halves folded onto the circle."""
    n = grid.n
    starts, counts = _plan(_ball_arcs, grid, centers, radius)
    steps = np.bincount(starts, minlength=2 * n + 1) - np.bincount(starts + counts,
                                                                   minlength=2 * n + 1)
    depth = np.cumsum(steps[: 2 * n])
    return depth[:n] + depth[n:]


def _covering(grid: PeriodicGrid, centers) -> np.ndarray:
    """The unit balls B(centers[j], 1) holding each grid point x, ascending in
    column x of a (max multiplicity, n) table, padded with J: _spread_max of
    J values reads, at x, the max over the balls holding x."""
    ((_, q),) = _plan(ball_windows, grid, centers, 1.0)
    order = np.argsort(q, axis=None, kind="stable")
    mult = np.bincount(q.ravel(), minlength=grid.n)
    table = np.full((int(mult.max()), grid.n), len(q), dtype=int)
    rank = np.arange(q.size) - np.repeat(np.cumsum(mult) - mult, mult)
    table[rank, q.ravel()[order]] = order // q.shape[1]
    return table


def _spread_max(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per column of a table of places in values, the max of values there;
    the place len(values) reads -inf."""
    return np.max(np.take(np.append(values, -np.inf), table), axis=0)


def _family_windows(grid: PeriodicGrid, alpha: float) -> tuple:
    """(radius, starts, count) per sweep radius 8 dx, 16 dx, .. up to alpha
    (_sweep_radii), then alpha itself if it is not one: the balls around the
    points 8k are the arcs (_ball_arcs) of count points from starts[k].  The
    family starts at radius 8 dx, which alpha must reach."""
    radii = _sweep_radii(grid, alpha, "alpha")
    if _slack(radii[-1]) < alpha:
        radii.append(alpha)
    windows = []
    for r in radii:
        starts, counts = _ball_arcs(grid, grid.axis_points()[::8], r)
        (count,) = set(counts.tolist())
        if count >= grid.n:
            raise ValueError("window exceeds the grid period")
        windows.append((r, starts, count))
    return tuple(windows)


def _slot_plan(points: np.ndarray, halves, c: int, pairs=None):
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
    Farach-Colton 2000), in ascending w, and each point's slot.  Slots that
    hold no point read columns clipped into their segment.  Exact for
    half >= 4.  pairs, when given, holds per half None or the (rows, 1)
    centers k_j (_edge_center): that half's columns are then k_j, k_j + 1
    only, which each slot reads clipped into its run at width 1.
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
        if pairs is None or pairs[r] is None:
            k0 = -((half - first) // 8)
            m = int(np.max((last + half) // 8 - k0)) + 1
            width = 1 << (((2 * half + 1) // 8).bit_length() - 1)
        else:
            k0, m, width = pairs[r], 2, 1
        run = np.stack([blocks + lo, blocks + hi - width + 1]) - k0[..., None]
        offset = sum(col.shape[1] for col in columns)
        radii.append((width, (np.clip(run, 0, m - width) + offset).reshape(2, len(points), -1)))
        columns.append(r * c + (k0 + np.arange(m)) % c)
    slot = (points // 8 - first // 8) * len(rep) + cls.ravel()[points % 8]
    # _slot_range_max climbs its table once, so the reads go in ascending width
    return np.concatenate(columns, axis=1), sorted(radii, key=lambda radius: radius[0]), slot


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


def _family_plan(grid: PeriodicGrid, alpha: float):
    """The family windows up to alpha and the slot plan of the whole circle:
    table columns, slot reads shared by every row, each point's slot."""
    windows = _family_windows(grid, alpha)
    columns, radii, slot = _slot_plan(np.arange(grid.n)[None],
                                      [count // 2 for _, _, count in windows], grid.n // 8)
    return windows, columns[0], tuple((width, reads[:, 0]) for width, reads in radii), slot[0]


def _sup_over_family_rows(x: np.ndarray, grid: PeriodicGrid, alpha: float, osc: bool):
    """Family sup, row by row of a real (rows, n) stack, of the window means;
    with osc, of the mean oscillation."""
    _check_finite_rows(x)
    count_rows, n = x.shape
    family, columns, radii, slot = _plan(_family_plan, grid, alpha)
    cs = _doubled_prefix(x)
    vals = np.empty((count_rows, len(family), n // 8), dtype=cs.dtype)
    if osc:
        # one deviation buffer for every row and radius, sized for the widest
        work = np.empty(n // 8 * max(count for _, _, count in family), dtype=cs.dtype)
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


class _CoverPlan(NamedTuple):
    """The f-independent index work of m_tilde_s on critical balls Q_j.

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
    radii: tuple
    spread: np.ndarray


def _edge_center(lead: np.ndarray, count: int) -> np.ndarray:
    """The last stride-8 centers k_a whose count-point family windows start
    at or before lead, the first point of each row's dilate (not mod n).

    For windows of at least the dilate's size points, window k_a + 1 ends at
    or after the dilate's last point, so the run of every point of the
    dilate holds k_a or k_a + 1.  Cut to the dilate, a window is one prefix
    difference from lead up to k_a, and one to the last point from k_a + 1:
    over a monotone prefix the cut means rise up to k_a and fall from
    k_a + 1, after rounding too.  No window that long meets the dilate
    round the circle too (that needs L under about 9.5).  Once window k_a
    holds the whole dilate, a larger window reads a sub-arc of it (one
    place per arc) over more points, so its mean is no larger and it
    decides no max.
    """
    return (lead + count // 2) // 8


def _cover_plan(grid: PeriodicGrid, centers) -> _CoverPlan:
    """The _CoverPlan of the critical balls B(centers[j], 1)."""
    n, c = grid.n, grid.n // 8
    first, sizes = _ball_arcs(grid, centers, 8.0)
    q_first, q_sizes = _ball_arcs(grid, centers, 1.0)
    (size,), (size_q,) = set(sizes.tolist()), set(q_sizes.tolist())
    rows = len(first)
    # row j's points: Q_j's arc from its first point, not reduced mod n
    points = q_first[:, None] + np.arange(size_q)
    lead = (q_first - (q_first - first) % n)[:, None]
    # the radii up to L/2, through the first whose window k_a holds every dilate
    family = []
    for window in _family_windows(grid, grid.half_length / 2.0):
        family.append(window)
        if np.all(8 * _edge_center(lead, window[2]) + window[2] // 2 >= lead + size - 1):
            break
    columns, radii, slot = _slot_plan(
        points, [count // 2 for _, _, count in family], c,
        [_edge_center(lead, count) if count >= size else None for _, _, count in family])
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
    balls, slots = _plan(_covering, grid, centers), radii[0][1].shape[2]
    j = np.minimum(balls, rows - 1)
    t = np.minimum((np.arange(n) - q_first[j]) % n, size_q - 1)
    spread = np.where(balls < rows, j * slots + slot[j, t], rows * slots)
    return _CoverPlan(lo, hi, counts, split, lo2, hi2,
                      tuple((w, np.arange(rows)[:, None] * columns.shape[1] + reads)
                            for w, reads in radii), spread)


def _cut_means(x: np.ndarray, plan: _CoverPlan) -> np.ndarray:
    """Per row j and table column of the plan, raveled, the mean of the
    samples x over the window's part inside the 8-dilate of Q_j: two reads
    of one doubled prefix of x for every window."""
    prefix = _doubled_prefix(x)
    sums = np.take(prefix, plan.hi) - np.take(prefix, plan.lo)
    sums.reshape(-1)[plan.split] += np.take(prefix, plan.hi2) - np.take(prefix, plan.lo2)
    return (sums / plan.counts).ravel()

@dataclass(frozen=True)
class BallFamily:
    """Balls B(centers[i], ball_radii[i]) as two float tuples, in family
    order; the tuples hash by value, so a family keys a cache."""

    centers: tuple[float, ...]
    ball_radii: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.centers) != len(self.ball_radii):
            raise ValueError("a ball family needs one radius per center")

    def ball(self, i: int) -> Ball:
        return Ball((self.centers[i],), self.ball_radii[i])

    def radii(self) -> tuple[float, ...]:
        """The distinct radii, ascending."""
        return tuple(sorted(set(self.ball_radii)))


def _sweep_radii(grid: PeriodicGrid, cap: float, name: str = "radius cap") -> list[float]:
    """The dyadic radii of sweep_family: 8*dx, 16*dx, ... up to the cap,
    which the error names as name; the least radius must fit under it."""
    if cap > grid.half_length:
        raise ValueError("radius cap exceeds the half box")
    r = 8.0 * grid.spacing
    if r > _slack(cap):
        raise ValueError(f"{name} {cap} below the minimum family radius {r}")
    radii = []
    while r <= _slack(cap):
        radii.append(r)
        r *= 2.0
    return radii


def sweep_family(
    grid: PeriodicGrid, radius_cap: float | None = None, inside_only: bool = False
) -> BallFamily:
    """Centers every n/32 points, radii dyadic from 8*dx up to the cap, center-major.

    inside_only drops balls that would cross the box edge (Ball.fully_inside:
    |c| + r < L); use it whenever the sampled function models a non-periodic
    function of the line.
    """
    cap = radius_cap if radius_cap is not None else grid.half_length / 2.0
    centers, radii = (a.ravel() for a in np.meshgrid(
        grid.axis_points()[:: grid.n // 32], _sweep_radii(grid, cap), indexing="ij"))
    if inside_only:
        keep = _inside_box(grid, centers, radii)
        centers, radii = centers[keep], radii[keep]
    return BallFamily(tuple(centers.tolist()), tuple(radii.tolist()))
