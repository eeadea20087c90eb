"""Periodic grids, sampled functions, balls, and the discrete transform pair.

Everything downstream lives on a uniform grid over the periodic box [-L, L)
with N points (N a power of two).  The matching frequency lattice is
xi = (pi/L) * m for integer m in [-N/2, N/2); it is itself the point set of a
periodic grid (the reciprocal grid), which is where spectra live.  The
transform pair is unitary, so the L2 norm taken with each grid's own measure
is preserved exactly.  Samples are float64 when real (weights, multipliers,
maximal functions) and complex128 otherwise (spectra, operator outputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    """Values on a periodic grid, float64 when real and complex128 otherwise
    (either wrapped without a copy); real_values(tol) refuses an imaginary
    part above tol * max(1, max |value|)."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", vals)

    def real_values(self, tol: float = 1e-9) -> np.ndarray:
        if np.iscomplexobj(self.values):
            scale = max(1.0, float(np.max(np.abs(self.values), initial=0.0)))
            if np.max(np.abs(self.values.imag)) > tol * scale:
                raise ValueError("values have a non-negligible imaginary part")
        return self.values.real


def sample(grid: PeriodicGrid, fn: Callable) -> SampledFunction:
    """Evaluate fn on the grid points, keeping the dtype rule of SampledFunction."""
    return SampledFunction(grid, fn(grid.axis_points()))


# ---------------------------------------------------------------------------
# Transform pair.
#
# dft(f)(xi) = (2pi)^{-1/2} * sum_x f(x) e^{-i x xi} dx  on the lattice,
# idft(g)(x) = (2pi)^{-1/2} * sum_xi g(xi) e^{+i x xi} dxi.
# Implemented by FFT with fftshift bookkeeping; unitary w.r.t. each grid's
# own counting measure, so Parseval is exact up to roundoff.  The _rows forms
# act on a (rows, n) stack along the last axis, one FFT call per stack; each
# row comes out bit for bit as its one-row transform, which dft and idft are.
# ---------------------------------------------------------------------------


def _shifted_fft(values: np.ndarray, transform) -> np.ndarray:
    shift = np.fft.ifftshift(values, axes=-1)
    return np.fft.fftshift(transform(shift, axis=-1), axes=-1)


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
    if w is None:
        return None
    if isinstance(w, SampledFunction):
        if not w.grid.is_compatible(grid):
            raise ValueError("weight grid does not match")
        wv = w.real_values(1e-12)
    else:
        wv = np.asarray(w, dtype=float)
        if wv.shape != grid.shape:
            raise ValueError("weight shape does not match grid")
    if np.min(wv) <= 0.0:
        raise ValueError("weight must be strictly positive")
    return wv


def lp_norms(grid: PeriodicGrid, rows: np.ndarray, p: float, weight=None) -> list[float]:
    """lp_norm of each row of a (rows, n) stack sampled on grid."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    wv = _weight_values(weight, grid)
    a = np.abs(rows) ** p
    if wv is not None:
        a = a * wv
    # Python float powers: numpy's array power can differ in the last ulp
    return [s ** (1.0 / p) for s in (np.sum(a, axis=-1) * grid.spacing).tolist()]


def lp_norm(f: SampledFunction, p: float, weight=None) -> float:
    """(sum |f|^p w dx)^(1/p); weight defaults to 1."""
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
        c = np.ravel(np.asarray(self.center, dtype=float))
        if c.shape != (1,):
            raise ValueError(f"ball center must be one coordinate, got {self.center}")
        object.__setattr__(self, "center", (float(c[0]),))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def dilate(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)

    def fully_inside(self, grid: PeriodicGrid) -> bool:
        # strict: the box is [-L, L), so a closed ball touching +L wraps
        return abs(self.center[0]) + self.radius < grid.half_length


def _inside(d2: np.ndarray, radius: float) -> np.ndarray:
    # tiny slack absorbs roundoff of the wrap for boundary lattice points
    return d2 <= (radius * (1.0 + 1e-12)) ** 2


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
    centers = np.asarray(centers, dtype=float)
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


def _sweep_radii(grid: PeriodicGrid, cap: float) -> list[float]:
    """The dyadic radii of sweep_family: 8*dx, 16*dx, ... up to the cap."""
    if cap > grid.half_length:
        raise ValueError("radius cap exceeds the half box")
    r = 8.0 * grid.spacing
    radii = []
    while r <= cap * (1 + 1e-12):
        radii.append(r)
        r *= 2.0
    if not radii:
        raise ValueError("radius cap below the minimum ball radius")
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
        keep = np.abs(centers) + radii < grid.half_length
        centers, radii = centers[keep], radii[keep]
    return BallFamily(tuple(centers.tolist()), tuple(radii.tolist()))
