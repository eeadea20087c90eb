"""Symbols and amplitudes: presets, dyadic localization, class probing.

An evaluator is a vectorized callable a(x, y, xi); each argument is a scalar
or a broadcastable array.  Symbols (y-independent) simply ignore the y slot.

The declared class of a symbol is the growth contract
    |d_xi^a d_x^b d_y^c a| <= C <xi>^(m - rho*a + delta*(b+c)),
with x-derivatives dropped for the rough (L-infinity style) kinds.  The
estimator checks it empirically: finite differences on the lattice, sups per
dyadic frequency shell, and a growth slope across the top shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fitting import least_squares_line
from .grid import PeriodicGrid
from .littlewood_paley import LPFamily
from .report import Criterion

__all__ = [
    "SymbolSpec",
    "MembershipEntry",
    "ClassMembershipReport",
    "japanese_bracket",
    "preset_symbol",
    "dyadic_piece",
    "estimate_class_membership",
]

KINDS = ("smooth_symbol", "smooth_amplitude", "rough_symbol", "rough_amplitude")


def japanese_bracket(x) -> np.ndarray:
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True, eq=False)
class SymbolSpec:
    """An evaluator together with its declared growth class."""

    evaluator: Callable
    order: float
    rho: float
    delta: float
    kind: str
    label: str
    multiplier: bool = False  # true when the evaluator depends on xi only
    # the real x-factor c of a symbol a(x, y, xi) = c(x) a(0, 0, xi), c(0) = 1
    modulation: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.modulation is not None and (self.multiplier or not self.is_symbol):
            raise ValueError("a modulation needs a symbol kind that is not a multiplier")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def is_symbol(self) -> bool:
        return self.kind.endswith("_symbol")

    @property
    def is_separable(self) -> bool:
        """True when a(x, y, xi) = c(x) a(0, 0, xi), so one FFT pair applies it."""
        return self.multiplier or self.modulation is not None

    @property
    def is_rough(self) -> bool:
        return self.kind.startswith("rough")

    def __call__(self, x, y, xi):
        return self.evaluator(x, y, xi)


def _triangle_wave(x) -> np.ndarray:
    """Periodic triangle wave, period 2, range [-1, 1]; Lipschitz, not C^1."""
    t = np.mod(np.asarray(x, dtype=float), 2.0)
    return 1.0 - 2.0 * np.abs(t - 1.0)


def preset_symbol(name: str, **params) -> SymbolSpec:
    """Named symbol presets.

    identity              a = 1
    bessel_order_m        a(xi) = <xi>^m                     (m, rho=1, delta=0)
    rough_x_modulated     a(x,xi) = (2 + tri(x)) <xi>^m      Lipschitz in x only;
                              modulation c = 2 + tri, c(0) = 1
    oscillating_amplitude a(x,y,xi) = <xi>^m exp(i(<xi>^(1-rho)
                              + <xi>^delta psi(x,y)))        (m, rho, delta)
    """
    if name == "identity":
        def ev_identity(x, y, xi):
            return np.ones(np.shape(xi), dtype=np.complex128)

        return SymbolSpec(ev_identity, 0.0, 1.0, 0.0, "smooth_symbol", "identity", True)

    if name == "bessel_order_m":
        m = float(params["m"])

        def ev_bessel(x, y, xi, _m=m):
            return japanese_bracket(xi) ** _m + 0.0j

        return SymbolSpec(
            ev_bessel, m, 1.0, 0.0, "smooth_symbol", f"bessel_order_m(m={m:g})", True
        )

    if name == "rough_x_modulated":
        m = float(params["m"])

        def mod_rough(x):
            return 2.0 + _triangle_wave(x)

        def ev_rough(x, y, xi, _m=m):
            return mod_rough(x) * japanese_bracket(xi) ** _m + 0.0j

        return SymbolSpec(
            ev_rough, m, 1.0, 0.0, "rough_symbol", f"rough_x_modulated(m={m:g})", False,
            mod_rough,
        )

    if name == "oscillating_amplitude":
        m = float(params["m"])
        rho = float(params.get("rho", 0.5))
        delta = float(params.get("delta", 0.0))
        scale = float(params.get("spatial_scale", 16.0))

        def ev_osc(x, y, xi, _m=m, _r=rho, _d=delta, _s=scale):
            w = np.pi / _s
            psi = np.sin(w * x) * np.cos(w * y)
            br = japanese_bracket(xi)
            phase = br ** (1.0 - _r) + br**_d * psi
            return br**_m * np.exp(1j * phase)

        return SymbolSpec(
            ev_osc,
            m,
            rho,
            delta,
            "smooth_amplitude",
            f"oscillating_amplitude(m={m:g},rho={rho:g},delta={delta:g})",
            False,
        )

    raise ValueError(f"unknown symbol preset {name!r}")


def dyadic_piece(sym: SymbolSpec, family: LPFamily, k: int) -> SymbolSpec:
    """Localize a symbol to the k-th dyadic frequency shell."""
    if not 0 <= k <= family.max_index:
        raise ValueError(f"piece index {k} outside 0..{family.max_index}")

    def ev(x, y, xi, _k=k):
        return sym.evaluator(x, y, xi) * family.piece_profile(_k, xi)

    return SymbolSpec(
        ev, sym.order, sym.rho, sym.delta, sym.kind, f"{sym.label}|piece{k}", sym.multiplier,
        sym.modulation,
    )


# ---------------------------------------------------------------------------
# Empirical class membership.
# ---------------------------------------------------------------------------

_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}

_SUP_FLOOR = 1e-8
_SLOPE_BOUND = 0.5


@dataclass(frozen=True)
class MembershipEntry:
    alpha: int
    beta: int
    gamma: int
    sup: float
    shell_sups: tuple[float, ...]
    slope: float
    last3_ratio: float
    bounded: bool


@dataclass(frozen=True)
class ClassMembershipReport:
    label: str
    order: float
    rho: float
    delta: float
    kind: str
    entries: tuple[MembershipEntry, ...]

    @property
    def criterion(self) -> Criterion:
        """Every entry bounded: the largest shell growth slope under the bound
        (an entry under the sup floor reads slope 0)."""
        return Criterion("class_membership", max(e.slope for e in self.entries),
                         "<", _SLOPE_BOUND)

    def entry(self, alpha: int, beta: int = 0, gamma: int = 0) -> MembershipEntry:
        for e in self.entries:
            if (e.alpha, e.beta, e.gamma) == (alpha, beta, gamma):
                return e
        raise KeyError((alpha, beta, gamma))


def _shell_samples(grid: PeriodicGrid):
    """Lattice xi samples grouped by complete dyadic shells 2^(k-1) < |xi| <= 2^k."""
    xi = grid.axis_freqs()
    pos = xi[xi > 0]
    k_top = int(np.floor(np.log2(grid.xi_max)))
    shells = []
    for k in range(2, k_top + 1):
        in_shell = pos[(pos > 2.0 ** (k - 1)) & (pos <= 2.0**k)]
        if in_shell.size == 0:
            continue
        idx = np.linspace(0, in_shell.size - 1, 12).astype(int)
        idx = idx[np.diff(idx, prepend=-1) > 0]  # ascending: drop repeats in order
        vals = in_shell[idx]
        shells.append((k, np.concatenate([vals, -vals])))
    if len(shells) < 3:
        raise ValueError("grid resolves too few dyadic shells for class probing")
    return shells


def _fd_mixed(ev, xs, ys, xis, alpha, beta, gamma, hx, hxi) -> np.ndarray:
    """Central-difference d_xi^alpha d_x^beta d_y^gamma of the evaluator."""
    acc = None
    for ox, cx in _STENCILS[beta].items():
        for oy, cy in _STENCILS[gamma].items():
            for oxi, cxi in _STENCILS[alpha].items():
                term = ev(xs + ox * hx, ys + oy * hx, xis + oxi * hxi)
                term = np.asarray(term, dtype=np.complex128) * (cx * cy * cxi)
                acc = term if acc is None else acc + term
    return acc / (hx ** (beta + gamma) * hxi**alpha)


def estimate_class_membership(sym: SymbolSpec, grid: PeriodicGrid) -> ClassMembershipReport:
    """Probe the declared growth class on the grid's frequency lattice.

    Per derivative combo of total order 1..3, normalized sups are taken over
    dyadic shells; the verdict is "bounded" when the log2 growth rate across
    the top complete shells stays below 0.5 per shell (a symbol whose
    declared order is too small by 1 shows rate about +1 and is rejected).
    x-derivatives are skipped for rough kinds, y-derivatives for plain
    symbols.
    """
    m, rho, delta = sym.order, sym.rho, sym.delta
    shells = _shell_samples(grid)
    span = 0.75 * grid.half_length
    xs = np.linspace(-span, span, 9)[:, None, None]
    ys = np.linspace(-span, span, 9)[None, :, None] if not sym.is_symbol else np.zeros(
        (1, 1, 1)
    )
    hx, hxi = grid.spacing, grid.freq_spacing

    entries = []
    for alpha in range(0, 4):
        for beta in range(0, 4 - alpha):
            for gamma in range(0, 4 - alpha - beta):
                if alpha + beta + gamma == 0:
                    continue
                if sym.is_rough and beta > 0:
                    continue
                if sym.is_symbol and gamma > 0:
                    continue
                shell_sups = []
                for k, xi_vals in shells:
                    xis = xi_vals[None, None, :]
                    deriv = _fd_mixed(sym.evaluator, xs, ys, xis, alpha, beta, gamma, hx, hxi)
                    bound = japanese_bracket(xis) ** (
                        m - rho * alpha + delta * (beta + gamma)
                    )
                    shell_sups.append(float(np.max(np.abs(deriv) / bound)))
                shell_sups = np.array(shell_sups)
                tail = shell_sups[-min(4, len(shell_sups)):]
                last3 = shell_sups[-min(3, len(shell_sups)):]
                if np.max(tail) < _SUP_FLOOR:
                    slope, ratio, bounded = 0.0, 1.0, True
                else:
                    ks = np.arange(len(tail), dtype=float)
                    slope, _, _ = least_squares_line(ks, np.log2(np.maximum(tail, 1e-300)))
                    lo = max(float(np.min(last3)), 1e-300)
                    ratio = float(np.max(last3)) / lo
                    bounded = slope < _SLOPE_BOUND
                entries.append(
                    MembershipEntry(
                        alpha,
                        beta,
                        gamma,
                        float(np.max(shell_sups)),
                        tuple(float(s) for s in shell_sups),
                        float(slope),
                        float(ratio),
                        bool(bounded),
                    )
                )
    return ClassMembershipReport(sym.label, m, rho, delta, sym.kind, tuple(entries))
