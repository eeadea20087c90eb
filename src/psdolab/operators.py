"""Discrete pseudo-differential operators on periodic grids.

The action realized here is the lattice form of
    T_a f(x) = (2pi)^(-1) sum_xi sum_y a(x, y, xi) e^{i(x-y)xi} f(y) dy dxi,
and every symbol reaches it through its separated expansion
a(x, y, xi) = sum_{p,q} c_p(x) d_q(y) sigma_pq(xi) (symbols.py):
    T_a f = sum_p c_p * idft(sum_q sigma_pq * dft(d_q f)),
one forward FFT per distinct y-factor d_q and one inverse FFT per distinct
x-factor c_p, with a factor that is 1 costing no multiply.  A multiplier or
rough_x_modulated is one term, so it runs as two FFTs and one pointwise
product; with a = 1 the composition collapses to idft(dft(f)), so the
identity is exact and pins every constant.  The oscillating amplitude is a
few hundred Jacobi-Anger terms over a few dozen factors each side.

Application, adjoint and both commutators act on stacks: (rows, n) arrays of
samples, transformed along the last axis, so a block of functions costs one
FFT per factor.  apply, apply_adjoint and commutator are the one-row case of
the same cores (the _rows functions), and each row of a stack comes out bit
for bit as its one-row result.  Kernel rows, columns and the offset rows of
kernels.py are the same sums with one slot held at a 1-D array of points
(_held): each sigma row is built once per call, and each factor of the free
slot costs one inverse FFT for all the points.

Adjoints are the exact conjugate transposes of the assembled action (matrix
free: the same sums run in reversed order), so the pairing
<T f, g> = <f, T* g> holds to rounding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import PeriodicGrid, SampledFunction, _built_real, dft_rows, idft_rows
from .littlewood_paley import LPFamily, make_lp_family
from .symbols import SymbolSpec

__all__ = [
    "OperatorInstance",
    "make_operator",
    "apply",
    "apply_rows",
    "apply_adjoint",
    "apply_adjoint_rows",
    "commutator",
    "commutator_rows",
    "adjoint_commutator_rows",
    "kernel_column",
    "kernel_row",
    "adjoint_kernel_row",
]


@dataclass(eq=False)
class OperatorInstance:
    """A symbol bound to a grid, on the whole lattice or truncated.

    truncation None applies the symbol on the whole lattice; an index k cuts
    it to the pieces 0..k of the grid's dyadic family (which must be fully
    resolved by the lattice).  Either way the symbol is applied through its
    separated expansion on the lattice, which _terms builds once per operator.
    """

    symbol: SymbolSpec
    grid: PeriodicGrid
    truncation: int | None = None

    def __post_init__(self) -> None:
        if self.truncation is not None:
            self.family._check_index(self.truncation, "truncation")
            if not self.family.resolves(self.truncation):
                raise ValueError(
                    "grid Nyquist does not cover the truncated piece support"
                )

    # -- small shared pieces -------------------------------------------------

    @cached_property
    def family(self) -> LPFamily:
        return make_lp_family(self.grid)

    @cached_property
    def band(self) -> np.ndarray | None:
        """The truncation's band on the lattice; None on the whole lattice."""
        return None if self.truncation is None else self.family.band_mask(self.truncation)

    def _check_grid(self, f: SampledFunction) -> None:
        if not f.grid.is_compatible(self.grid):
            raise ValueError("function grid does not match operator grid")

    @cached_property
    def _terms(self):
        """The symbol's expansion on the frequency lattice, with its x- and
        y-factors sampled on the grid (None where a factor is 1)."""
        ex = self.symbol.expansion(self.grid.axis_freqs())
        if self.symbol.is_symbol and any(d is not None for d in ex.y_factors):
            raise ValueError(f"a {self.symbol.kind} expansion takes no y-factor")
        pts = self.grid.axis_points()
        cs, ds = ([None if f is None else np.asarray(f(pts)) for f in fs]
                  for fs in (ex.x_factors, ex.y_factors))
        return ex, cs, ds


def make_operator(symbol: SymbolSpec, grid: PeriodicGrid) -> OperatorInstance:
    """The symbol on the whole lattice of grid."""
    return OperatorInstance(symbol, grid)


# ---------------------------------------------------------------------------
# Forward application.  The cores act on a (rows, n) stack of samples; the
# one-function entry points are their one-row case.
# ---------------------------------------------------------------------------


def _combine(factors: list, parts: dict) -> np.ndarray:
    """sum over o of factors[o] * parts[o], a None factor standing for 1."""
    out = None
    for o, part in parts.items():
        if factors[o] is not None:
            part = factors[o] * part
        out = part if out is None else out + part
    return out


def _mode_sums(op: OperatorInstance, spectra: list, adjoint: bool) -> dict:
    """Per factor o of the output slot, idft of the sum over its terms r of
    s_r * band * spectra[i_r], i_r the term's factor of the input slot and
    s_r = sigma_r, or conj(sigma_r) with the slots swapped for the adjoint."""
    ex = op._terms[0]
    acc = {}
    for r, (p, q) in enumerate(ex.terms):
        i, o = (p, q) if adjoint else (q, p)
        s = np.conj(ex.sigma(r)) if adjoint else ex.sigma(r)
        if op.band is not None:
            s = s * op.band
        term = spectra[i] * s
        acc[o] = acc[o] + term if o in acc else term
    recip = op.grid.reciprocal()
    return {o: idft_rows(recip, t) for o, t in acc.items()}


def apply_rows(op: OperatorInstance, rows: np.ndarray) -> np.ndarray:
    """T_a f for each row f of a (rows, n) stack on the operator's grid:
    sum_p c_p idft(sum_q sigma_pq band dft(d_q f))."""
    _, cs, ds = op._terms
    spectra = [dft_rows(op.grid, rows if d is None else d * rows) for d in ds]
    return _combine(cs, _mode_sums(op, spectra, adjoint=False))


def apply(op: OperatorInstance, f: SampledFunction) -> SampledFunction:
    """T_a f on the operator's grid."""
    op._check_grid(f)
    return SampledFunction(op.grid, apply_rows(op, f.values[None, :])[0])


# ---------------------------------------------------------------------------
# Adjoint application: conjugate transpose of the forward sums.
# ---------------------------------------------------------------------------


def apply_adjoint_rows(op: OperatorInstance, rows: np.ndarray) -> np.ndarray:
    """T_a^* u for each row u of a (rows, n) stack, the exact discrete adjoint:
    sum_q conj(d_q) idft(sum_p conj(sigma_pq) band dft(conj(c_p) u))."""
    _, cs, ds = op._terms
    spectra = [dft_rows(op.grid, rows if c is None else np.conj(c) * rows) for c in cs]
    conj_ds = [None if d is None else np.conj(d) for d in ds]
    return _combine(conj_ds, _mode_sums(op, spectra, adjoint=True))


def apply_adjoint(op: OperatorInstance, u: SampledFunction) -> SampledFunction:
    """T_a^* u, the exact discrete adjoint of apply."""
    op._check_grid(u)
    return SampledFunction(op.grid, apply_adjoint_rows(op, u.values[None, :])[0])


# ---------------------------------------------------------------------------
# Commutators with a multiplication operator.
# ---------------------------------------------------------------------------


def _commutator_with(transform, op: OperatorInstance, b: SampledFunction, rows: np.ndarray):
    """[b, S] u = b (S u) - S (b u) for each row u of a stack, S u = transform(op, u)."""
    bv = _built_real(b.values)
    return bv * transform(op, rows) - transform(op, bv * rows)


def commutator_rows(op: OperatorInstance, b: SampledFunction, rows: np.ndarray) -> np.ndarray:
    """[b, T_a] f = b (T_a f) - T_a (b f) for each row f of a (rows, n) stack."""
    return _commutator_with(apply_rows, op, b, rows)


def adjoint_commutator_rows(
    op: OperatorInstance, b: SampledFunction, rows: np.ndarray
) -> np.ndarray:
    """[b, T_a^*] u = b (T_a^* u) - T_a^* (b u) for each row u of a (rows, n) stack."""
    return _commutator_with(apply_adjoint_rows, op, b, rows)


def commutator(op: OperatorInstance, b: SampledFunction, f: SampledFunction) -> SampledFunction:
    """[b, T_a] f = b (T_a f) - T_a (b f)."""
    op._check_grid(f)
    return SampledFunction(op.grid, commutator_rows(op, b, f.values[None, :])[0])


# ---------------------------------------------------------------------------
# Kernel rows.  K(x, y) = (2pi)^(-1) sum_m a(x,y,xi_m) e^{i(x-y)xi_m} dxi
# with one slot at a point anywhere and the other on the lattice (or, for
# the offset rows of kernels.py, at x - z for lattice offsets z).  x is one
# point or a 1-D array of points, and a row or column has shape
# x.shape + (n,).  _held holds a slot at all the points at once: it folds
# the expansion to one (points, n) stack of coefficient rows per factor of
# the free slot, building each sigma row once, so each factor costs one
# inverse FFT for all the points.  Rows, columns and offset rows are that
# core plus one _lattice_sum per factor.
# ---------------------------------------------------------------------------


def _lattice_sum(grid: PeriodicGrid, coef: np.ndarray) -> np.ndarray:
    """sum_m coef_m e^{i z xi_m} at every lattice z, for each row of a (..., n)
    stack of coefficients: one scaled idft_rows."""
    return idft_rows(grid.reciprocal(), coef) * ((2.0 * np.pi) ** 0.5 / grid.freq_spacing)


def _kernel_weights(op: OperatorInstance, x: np.ndarray, sign: float) -> np.ndarray:
    """dxi / (2pi) per mode (times the band), times e^{sign i x xi_m} per point of x."""
    g = op.grid
    w = np.full(g.n, g.freq_spacing / (2.0 * np.pi))
    w = w if op.band is None else op.band * w
    return w * np.exp(sign * 1j * (g.axis_freqs() * x[..., None]))


def _held(op: OperatorInstance, x: np.ndarray, slot: int, weight: np.ndarray) -> dict:
    """The expansion with its x slot (slot 0) or y slot (slot 1) held at each
    point of x, one point or a 1-D array: per factor o of the other slot, the
    x.shape + (n,) stack (sum over o's terms r of f_r(x) sigma_r) * weight,
    f_r the held slot's factor of term r and weight one row or one row per
    point.  Each sigma row is built once; where no term of o has a held
    factor and weight is one row, o keeps one row for all the points."""
    ex = op._terms[0]
    values = [None if f is None else f(x[..., None]) for f in (ex.x_factors, ex.y_factors)[slot]]
    acc = {}
    for r, pq in enumerate(ex.terms):
        s = ex.sigma(r)
        if values[pq[slot]] is not None:
            s = values[pq[slot]] * s
        o = pq[1 - slot]
        acc[o] = acc[o] + s if o in acc else s
    return {o: s * weight for o, s in acc.items()}


def kernel_column(op: OperatorInstance, x: float | np.ndarray) -> np.ndarray:
    """K(., x): the kernel against its first argument, over the grid, per point of x."""
    x = np.asarray(x, dtype=float)
    _, cs, _ = op._terms
    held = _held(op, x, 1, _kernel_weights(op, x, -1.0))
    return _combine(cs, {p: _lattice_sum(op.grid, c) for p, c in held.items()})


def kernel_row(op: OperatorInstance, x: float | np.ndarray) -> np.ndarray:
    """K(x, .): the kernel against its second argument, over the grid, per point of x."""
    x = np.asarray(x, dtype=float)
    _, _, ds = op._terms
    held = _held(op, x, 0, _kernel_weights(op, x, 1.0))
    return _combine(ds, {q: np.conj(_lattice_sum(op.grid, np.conj(c))) for q, c in held.items()})


def _offset_rows(op: OperatorInstance, xs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_m a(x, x - z, xi_m) weight_m e^{i z xi_m} at every lattice offset z,
    one (read-only) row per base point x of xs; a symbol with no x- or
    y-factor takes one transform, broadcast over the base points."""
    ex = op._terms[0]
    ys = xs[:, None] - op.grid.axis_points()
    ds = [None if d is None else d(ys) for d in ex.y_factors]
    parts = {q: _lattice_sum(op.grid, c) for q, c in _held(op, xs, 0, weight).items()}
    return np.broadcast_to(_combine(ds, parts), (len(xs), op.grid.n))


def adjoint_kernel_row(op: OperatorInstance, x: float | np.ndarray) -> np.ndarray:
    """K*(x, .) = conj(K(., x)): row of the adjoint's kernel, per point of x."""
    return np.conj(kernel_column(op, x))
