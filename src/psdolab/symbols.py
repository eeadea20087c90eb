"""Symbols and amplitudes: presets and class probing.

An evaluator is a vectorized callable a(x, y, xi); each argument is a scalar
or a broadcastable array.  Symbols (y-independent) simply ignore the y slot.
The evaluator is the definition, which class probing and the difference
tables read; operators apply a symbol's expansion, a few separated terms
a(x, y, xi) = sum_{p,q} c_p(x) d_q(y) sigma_pq(xi) equal to the evaluator
on the frequency lattice.

The declared class of a symbol is the growth contract
    |d_xi^a d_x^b d_y^c a| <= C <xi>^(m - rho*a + delta*(b+c)),
with x-derivatives dropped for the rough (L-infinity style) kinds.  The
estimator checks it empirically: finite differences on the lattice, sups per
dyadic frequency shell, and a growth slope across the top shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .fitting import least_squares_line
from .grid import PeriodicGrid, _working
from .report import Criterion, log2_floor

__all__ = ["SymbolSpec", "preset_symbol", "estimate_class_membership"]

KINDS = ("smooth_symbol", "smooth_amplitude", "rough_symbol", "rough_amplitude")


def japanese_bracket(x) -> np.ndarray:
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + _working(x) ** 2)


@dataclass(frozen=True, eq=False)
class Expansion:
    """a(x, y, xi) = sum_r c_{p_r}(x) d_{q_r}(y) sigma_r(xi) on one set of
    frequencies, terms[r] = (p_r, q_r).  The factors c_p, d_q are vectorized
    callables, None for the constant 1 (no multiply is spent on it); sigma(r)
    builds the read-only r-th xi-factor from stored rows per call, so no
    terms-by-frequencies table is held."""

    x_factors: tuple
    y_factors: tuple
    terms: tuple[tuple[int, int], ...]
    sigma: Callable[[int], np.ndarray]


@dataclass(frozen=True, eq=False)
class SymbolSpec:
    """An evaluator, its separated expansion and its declared growth class.

    expansion(xi) builds the Expansion of the evaluator on the frequencies xi.
    """

    evaluator: Callable
    order: float
    rho: float
    delta: float
    kind: str
    label: str
    expansion: Callable[[np.ndarray], Expansion]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def is_symbol(self) -> bool:
        return self.kind.endswith("_symbol")

    @property
    def is_rough(self) -> bool:
        return self.kind.startswith("rough")


def _triangle_wave(x) -> np.ndarray:
    """Periodic triangle wave, period 2, range [-1, 1]; Lipschitz, not C^1."""
    t = np.mod(_working(x), 2.0)
    return 1.0 - 2.0 * np.abs(t - 1.0)


def _one_term(ev, modulation: Callable | None = None) -> Callable:
    """The expansion c(x) a(0, 0, xi) of a symbol whose x dependence factors
    out with c(0) = 1; c = None is a multiplier."""

    def expansion(xi):
        s = _working(ev(0.0, 0.0, xi))
        s.flags.writeable = False
        return Expansion((modulation,), (None,), ((0, 0),), lambda r: s)

    return expansion


# a Jacobi-Anger term whose peak |J_j J_l| over the lattice is at most this
# is dropped; the dropped peaks sum to about 1.5e-15 at delta = 0
_TERM_FLOOR = 1e-16


def _bessel_j(top: int, z: np.ndarray) -> np.ndarray:
    """J_0(z)..J_top(z) at every z >= 0, shape (top + 1,) + z.shape.

    Miller's algorithm (DLMF 3.6(iii)): the recurrence
    J_{k-1} = (2k/z) J_k - J_{k+1} runs down from 2 max(z) + 40 orders above
    top, rescaled before it overflows, and is normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1.
    """
    z = _working(z)
    zs = np.where(z > 0.0, z, 1.0)
    start = top + 2 * int(np.max(z, initial=0.0)) + 40
    start += start % 2
    out = np.zeros((top + 1,) + z.shape, dtype=z.dtype)
    above, cur = np.zeros_like(z), np.full_like(z, 1e-200)
    norm = 2.0 * cur
    for k in range(start, 0, -1):
        above, cur = cur, (2.0 * k / zs) * cur - above  # cur is now J_{k-1}
        if k - 1 <= top:
            out[k - 1] = cur
        if k % 2 == 1:
            norm += cur if k == 1 else 2.0 * cur
        big = np.abs(cur) > 1e200
        if big.any():
            for arr in (above, cur, norm):
                arr[big] *= 1e-200
            out[k - 1:, big] *= 1e-200
    out /= norm
    out[:, z == 0.0] = np.eye(top + 1, 1)
    return out


def _amplitude_expansion(m: float, rho: float, delta: float, scale: float) -> Callable:
    """The oscillating amplitude as a Jacobi-Anger series.

    psi = sin(wx) cos(wy) = (sin w(x+y) + sin w(x-y)) / 2, so with t = <xi>^delta
        e^{i t psi} = sum_{j,l} J_j(t/2) J_l(t/2) e^{i(j+l)wx} e^{i(j-l)wy},
    that is c_p = e^{ipwx}, d_q = e^{iqwy} and
    sigma_pq = <xi>^m e^{i<xi>^(1-rho)} J_j(t/2) J_l(t/2), j = (p+q)/2,
    l = (p-q)/2.  This is exact for every delta; only the J rows are stored.
    """
    w = np.pi / scale

    def wave(k):
        return None if k == 0 else (lambda x: np.exp(1j * (k * w) * x))

    def expansion(xi):
        br = japanese_bracket(xi)
        base = br**m * np.exp(1j * br ** (1.0 - rho))
        z = br**delta / 2.0
        jk = _bessel_j(int(np.max(z)) + 40, z)
        mags = np.abs(jk)
        peak = np.array([np.max(row * mags, axis=1) for row in mags]) > _TERM_FLOOR
        top = int(np.max(np.nonzero(peak)[0]))
        # J_{-k} = (-1)^k J_k; row k + top of signed holds J_k
        signed = np.concatenate([jk[top:0:-1] * (-1.0) ** np.arange(top, 0, -1)[:, None],
                                 jk[:top + 1]])
        pairs = sorted({(sj * j, sl * l) for j, l in np.argwhere(peak)
                        for sj in (1, -1) for sl in (1, -1)})
        ps = sorted({j + l for j, l in pairs})
        qs = sorted({j - l for j, l in pairs})
        terms = tuple((ps.index(j + l), qs.index(j - l)) for j, l in pairs)

        def sigma(r):
            j, l = pairs[r]
            return base * (signed[j + top] * signed[l + top])

        return Expansion(tuple(wave(p) for p in ps), tuple(wave(q) for q in qs), terms,
                         sigma)

    return expansion


def preset_symbol(name: str, **params) -> SymbolSpec:
    """Named symbol presets, each with its separated expansion.

    identity              a = 1                               one term, c = d = 1
    bessel_order_m        a(xi) = <xi>^m                      one term, c = d = 1
                              (m, rho=1, delta=0)
    rough_x_modulated     a(x,xi) = (2 + tri(x)) <xi>^m       Lipschitz in x only;
                              one term, c = 2 + tri, c(0) = 1
    oscillating_amplitude a(x,y,xi) = <xi>^m exp(i(<xi>^(1-rho)
                              + <xi>^delta psi(x,y)))        (m, rho, delta)
                              Jacobi-Anger terms, c_p = e^{ipwx}, d_q = e^{iqwy}
    """
    if name == "identity":
        def ev_identity(x, y, xi):
            return np.ones_like(_working(xi)) + 0j

        return SymbolSpec(ev_identity, 0.0, 1.0, 0.0, "smooth_symbol", "identity",
                          _one_term(ev_identity))

    if name == "bessel_order_m":
        m = float(params["m"])

        def ev_bessel(x, y, xi):
            return japanese_bracket(xi) ** m + 0.0j

        return SymbolSpec(ev_bessel, m, 1.0, 0.0, "smooth_symbol", f"bessel_order_m(m={m:g})",
                          _one_term(ev_bessel))

    if name == "rough_x_modulated":
        m = float(params["m"])

        def mod_rough(x):
            return 2.0 + _triangle_wave(x)

        def ev_rough(x, y, xi):
            return mod_rough(x) * japanese_bracket(xi) ** m + 0.0j

        return SymbolSpec(ev_rough, m, 1.0, 0.0, "rough_symbol",
                          f"rough_x_modulated(m={m:g})", _one_term(ev_rough, mod_rough))

    if name == "oscillating_amplitude":
        m = float(params["m"])
        rho = float(params.get("rho", 0.5))
        delta = float(params.get("delta", 0.0))
        scale = float(params.get("spatial_scale", 16.0))
        if not scale > 0.0:
            raise ValueError(f"spatial_scale must be positive, got {scale}")

        def ev_osc(x, y, xi):
            w = np.pi / scale
            psi = np.sin(w * x) * np.cos(w * y)
            br = japanese_bracket(xi)
            phase = br ** (1.0 - rho) + br**delta * psi
            return br**m * np.exp(1j * phase)

        return SymbolSpec(ev_osc, m, rho, delta, "smooth_amplitude",
                          f"oscillating_amplitude(m={m:g},rho={rho:g},delta={delta:g})",
                          _amplitude_expansion(m, rho, delta, scale))

    raise ValueError(f"unknown symbol preset {name!r}")


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


def _fd_mixed(ev, alpha, beta, gamma, hx, hxi) -> np.ndarray:
    """Central-difference d_xi^alpha d_x^beta d_y^gamma of the evaluator,
    where ev(ox, oy, oxi) gives its values at one stencil offset.

    The x/y stencil of each xi offset is summed before the xi weight scales
    it, so the x weights cancel exactly on an evaluator that does not read x:
    its x-differences read 0.0, not the xi stencil's roundoff over hx."""
    acc = 0.0
    for oxi, cxi in _STENCILS[alpha].items():
        part = 0.0
        for ox, cx in _STENCILS[beta].items():
            for oy, cy in _STENCILS[gamma].items():
                part = part + ev(ox, oy, oxi) * (cx * cy)
        acc = acc + part * cxi
    return acc / (hx ** (beta + gamma) * hxi**alpha)


def estimate_class_membership(sym: SymbolSpec, grid: PeriodicGrid) -> ClassMembershipReport:
    """Probe the declared growth class on the grid's frequency lattice.

    Per derivative combo of total order 1..3, normalized sups are taken over
    dyadic shells; the verdict is "bounded" when the log2 growth rate across
    the top complete shells stays below 0.5 per shell (a symbol whose
    declared order is too small by 1 shows rate about +1 and is rejected).
    x-derivatives are skipped for rough kinds, y-derivatives for plain
    symbols.  Every shell's xi samples sit in one row, and the evaluator
    runs once per distinct stencil offset, its values shared by every combo.
    """
    m, rho, delta = sym.order, sym.rho, sym.delta
    shells = _shell_samples(grid)
    xis = np.concatenate([xi_vals for _, xi_vals in shells])[None, None, :]
    starts = np.cumsum([0] + [xi_vals.size for _, xi_vals in shells[:-1]])
    span = 0.75 * grid.half_length
    xs = np.linspace(-span, span, 9)[:, None, None]
    ys = xs.reshape(1, 9, 1) if not sym.is_symbol else np.zeros_like(xs[:1])
    hx, hxi = grid.spacing, grid.freq_spacing

    @cache
    def values(ox, oy, oxi):
        term = sym.evaluator(xs + ox * hx, ys + oy * hx, xis + oxi * hxi)
        return _working(term)

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
                deriv = _fd_mixed(values, alpha, beta, gamma, hx, hxi)
                bound = japanese_bracket(xis) ** (m - rho * alpha + delta * (beta + gamma))
                ratio = np.abs(deriv) / bound
                shell_sups = np.maximum.reduceat(
                    np.max(ratio.reshape(-1, ratio.shape[-1]), axis=0), starts)
                tail = shell_sups[-min(4, len(shell_sups)):]
                if np.max(tail) < _SUP_FLOOR:
                    slope, bounded = 0.0, True
                else:
                    ks = np.arange(len(tail))
                    slope, _, _ = least_squares_line(ks, log2_floor(tail))
                    bounded = slope < _SLOPE_BOUND
                entries.append(MembershipEntry(
                    alpha, beta, gamma, float(np.max(shell_sups)),
                    tuple(float(s) for s in shell_sups), float(slope), bool(bounded)))
    return ClassMembershipReport(sym.label, m, rho, delta, sym.kind, tuple(entries))
