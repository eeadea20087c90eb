"""Smooth dyadic partition of unity on the frequency lattice.

The profile is the classic exp(-1/t) bump: identically 1 on the unit ball,
identically 0 outside the double, glued smoothly on 1 <= |xi| <= 2.  Piece 0
is the profile itself; piece k >= 1 is the difference of dilates, supported
on the shell 2^(k-1) <= |xi| <= 2^(k+1).  The pieces telescope, so partial
sums are exactly a dilated profile and the partition of unity is exact on
the lattice up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid, _slack

__all__ = ["LPFamily", "make_lp_family", "evaluate_partition_residual"]


def smooth_step(t) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


def bump_profile(r) -> np.ndarray:
    """Radial bump: 1 for |r| <= 1, 0 for |r| >= 2, smooth in between."""
    return smooth_step(2.0 - np.abs(np.asarray(r, dtype=float)))


@dataclass(frozen=True, eq=False)
class LPFamily:
    """Dyadic frequency decomposition tied to one grid's lattice."""

    grid: PeriodicGrid
    max_index: int

    def __post_init__(self) -> None:
        if self.max_index < 1:
            raise ValueError("family needs at least pieces 0 and 1")

    @property
    def piece_count(self) -> int:
        return self.max_index + 1

    def _check_index(self, k: int, name: str = "piece index") -> None:
        """A piece index (or a truncation, named so) must lie in 0..max_index."""
        if not 0 <= k <= self.max_index:
            raise ValueError(f"{name} {k} outside 0..{self.max_index}")

    def piece_profile(self, k: int, radius) -> np.ndarray:
        """phi_k as a function of |xi|."""
        self._check_index(k)
        r = np.abs(np.asarray(radius, dtype=float))
        if k == 0:
            return bump_profile(r)
        return bump_profile(r / 2.0**k) - bump_profile(r / 2.0 ** (k - 1))

    def resolves(self, k: int) -> bool:
        """The package's one resolved-piece rule: piece k's support ends
        inside the lattice, 2^(k+1) <= xi_max.  The relative slack (_slack)
        keeps a box one ulp above L = pi*n/2^(k+2), whose xi_max rounds to
        one ulp under 2^(k+1)."""
        return 2.0 ** (k + 1) <= _slack(self.grid.xi_max)

    def piece_on_lattice(self, k: int) -> np.ndarray:
        return self.piece_profile(k, self.grid.axis_freqs())

    def band_mask(self, k_top: int) -> np.ndarray:
        """sum_{k<=k_top} phi_k on the lattice, via the exact telescoped form."""
        self._check_index(k_top, "index")
        return bump_profile(np.abs(self.grid.axis_freqs()) / 2.0**k_top)


def make_lp_family(grid: PeriodicGrid) -> LPFamily:
    # pieces whose support shell starts above the lattice are dropped
    max_index = math.ceil(math.log2(grid.xi_max))
    return LPFamily(grid, max_index)


def evaluate_partition_residual(family: LPFamily) -> float:
    """max over lattice |xi| <= 2^(K-1) of |sum_k phi_k(xi) - 1|."""
    rad = np.abs(family.grid.axis_freqs())
    total = np.zeros(rad.shape)
    for k in range(family.piece_count):
        total += family.piece_profile(k, rad)
    window = rad <= 2.0 ** (family.max_index - 1)
    return float(np.max(np.abs(total[window] - 1.0)))
