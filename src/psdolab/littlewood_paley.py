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

from .fitting import least_squares_line, median
from .grid import PeriodicGrid
from .report import Criterion, VerificationReport

__all__ = [
    "smooth_step",
    "bump_profile",
    "LPFamily",
    "make_lp_family",
    "evaluate_partition_residual",
    "derivative_bound_check",
]


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

    def piece_profile(self, k: int, radius) -> np.ndarray:
        """phi_k as a function of |xi|."""
        if not 0 <= k <= self.max_index:
            raise ValueError(f"piece index {k} outside 0..{self.max_index}")
        r = np.abs(np.asarray(radius, dtype=float))
        if k == 0:
            return bump_profile(r)
        return bump_profile(r / 2.0**k) - bump_profile(r / 2.0 ** (k - 1))

    def resolves(self, k: int) -> bool:
        """The package's one resolved-piece rule: piece k's support ends
        inside the lattice, 2^(k+1) <= xi_max.  The 1e-12 relative slack
        keeps a box one ulp above L = pi*n/2^(k+2), whose xi_max rounds to
        one ulp under 2^(k+1)."""
        return 2.0 ** (k + 1) <= self.grid.xi_max * (1.0 + 1e-12)

    def piece_on_lattice(self, k: int) -> np.ndarray:
        return self.piece_profile(k, self.grid.axis_freqs())

    def band_mask(self, k_top: int) -> np.ndarray:
        """sum_{k<=k_top} phi_k on the lattice, via the exact telescoped form."""
        if not 0 <= k_top <= self.max_index:
            raise ValueError(f"index {k_top} outside 0..{self.max_index}")
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


def _central_derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    out = values
    for _ in range(order):
        out = np.gradient(out, h, edge_order=2)
    return out


def derivative_bound_check(family: LPFamily, alpha: int) -> VerificationReport:
    """Check sup |d^alpha phi_k| ~ 2^(-k*alpha).

    Scaled sups 2^(k*alpha) * sup|d^alpha phi_k| must stay within a factor 2
    of the k=1 value; the raw sups must decay with log2-slope about -alpha.
    Each piece is sampled on its own dilated window [0, 2^(k+1)] with a fixed
    point count, so the finite-difference resolution is the same for every
    piece.  On the lattice the coarse pieces are under-resolved and their
    spiky glue derivatives read low, which would poison the k=1 reference.
    """
    if not 1 <= alpha <= 3:
        raise ValueError("derivative order must be 1..3")
    items = []
    raw = []
    for k in range(family.piece_count):
        xi = np.linspace(0.0, 2.0 ** (k + 1), 4096)
        h = xi[1] - xi[0]
        vals = family.piece_profile(k, xi)
        sup = float(np.max(np.abs(_central_derivative(vals, h, alpha))))
        raw.append(sup)
        items.append(
            {
                "id": f"piece-{k}",
                "params": {"k": k, "alpha": alpha},
                "value": sup * 2.0 ** (k * alpha),
            }
        )
    scaled = np.array([it["value"] for it in items])
    ks = np.arange(1, family.piece_count)
    slope, _, _ = least_squares_line(ks, np.log2(np.array(raw[1:])))
    top = float(np.max(scaled))
    return VerificationReport(
        experiment=f"lp-derivative-bound-alpha{alpha}",
        items=items,
        aggregate={
            "max": top,
            "median": median(scaled),
            "slope": slope,
        },
        criteria=[Criterion("max", top, "<=", 2.0 * float(scaled[1]), "2*piece_1")],
    )
