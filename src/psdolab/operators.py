"""Discrete pseudo-differential operators on periodic grids.

The action realized here is the lattice form of
    T_a f(x) = (2pi)^(-1) sum_xi sum_y a(x, y, xi) e^{i(x-y)xi} f(y) dy dxi,
with the unitary transforms of grid.py doing both sums whenever the x
dependence factors out, a(x, y, xi) = c(x) a(0, 0, xi): then T_a f is
c * idft(a(0, 0, .) * dft(f)), two FFTs and one pointwise product, and a
multiplier is the case c = 1.  With a = 1 the composition collapses to
idft(dft(f)), so the identity is exact and pins every constant.  Any other
evaluator runs the direct mode sums of the amplitude path, N^3 in cost and
refused beyond the budget.

Application, adjoint and both commutators act on stacks: (rows, n) arrays of
samples, transformed along the last axis, so a block of functions costs one
FFT pair.  apply, apply_adjoint, commutator and adjoint_commutator are the
one-row case of the same cores (the _rows functions), and each row of a
stack comes out bit for bit as its one-row result.  The amplitude path sums
row by row.

Adjoints are the exact conjugate transposes of the assembled action (matrix
free: the same sums run in reversed order), so the pairing
<T f, g> = <f, T* g> holds to rounding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, SampledFunction, dft_rows, idft, idft_rows
from .littlewood_paley import LPFamily, make_lp_family
from .symbols import SymbolSpec

__all__ = [
    "OperatorInstance",
    "make_operator",
    "apply",
    "apply_rows",
    "apply_dyadic_piece",
    "apply_adjoint",
    "apply_adjoint_rows",
    "commutator",
    "commutator_rows",
    "adjoint_commutator",
    "adjoint_commutator_rows",
    "kernel_column",
    "kernel_row",
    "adjoint_kernel_row",
]

_CHUNK = 256
# amplitude application costs n^3; grids above this n are refused
_AMPLITUDE_BUDGET = 512


@dataclass(eq=False)
class OperatorInstance:
    """A symbol bound to a grid, a dyadic family, and an application mode.

    mode "full" applies the symbol on the whole lattice; mode "dyadic"
    truncates to frequency pieces 0..truncation (which must be fully resolved
    by the lattice).  Amplitude application, which also serves symbols whose
    x dependence does not factor out, costs N^3 and is refused above
    N = 512.
    """

    symbol: SymbolSpec
    grid: PeriodicGrid
    family: LPFamily
    mode: str = "full"
    truncation: int | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("full", "dyadic"):
            raise ValueError(f"mode must be 'full' or 'dyadic', got {self.mode!r}")
        if self.mode == "dyadic":
            if self.truncation is None:
                raise ValueError("dyadic mode requires a truncation index")
            if not 0 <= self.truncation <= self.family.max_index:
                raise ValueError(
                    f"truncation {self.truncation} outside 0..{self.family.max_index}"
                )
            if 2.0 ** (self.truncation + 1) > self.grid.xi_max:
                raise ValueError(
                    "grid Nyquist does not cover the truncated piece support"
                )

    # -- small shared pieces -------------------------------------------------

    def _mode_band(self) -> np.ndarray | None:
        if self.mode == "dyadic":
            return self.family.band_mask(self.truncation)
        return None

    def _check_grid(self, f: SampledFunction) -> None:
        if not f.grid.is_compatible(self.grid):
            raise ValueError("function grid does not match operator grid")

    def _spectrum(self) -> np.ndarray:
        """a(0, 0, xi) on the frequency lattice, read-only, shape grid.shape."""
        vals = self.symbol.evaluator(0.0, 0.0, self.grid.axis_freqs())
        return np.broadcast_to(np.asarray(vals, dtype=np.complex128), self.grid.shape)

    def _modulation(self) -> np.ndarray | None:
        """c(x) on the grid for a modulated symbol; None when c = 1."""
        mod = self.symbol.modulation
        return None if mod is None else np.asarray(mod(self.grid.axis_points()), dtype=float)

    def _amplitude_allowed(self) -> None:
        cost = self.grid.n**3
        if cost > _AMPLITUDE_BUDGET**3:
            raise ValueError(
                f"amplitude mode cost n^3 = {cost} exceeds budget "
                f"{_AMPLITUDE_BUDGET}^3; use a coarser grid"
            )

    def _exp_matrix(self) -> np.ndarray:
        """exp(-i y_j xi_m) on the 1D lattice, cached."""
        if "exp_matrix" not in self._cache:
            yv = self.grid.axis_points()
            xiv = self.grid.axis_freqs()
            self._cache["exp_matrix"] = np.exp(-1j * np.outer(yv, xiv))
        return self._cache["exp_matrix"]


def make_operator(
    symbol: SymbolSpec,
    grid: PeriodicGrid,
    mode: str = "full",
    truncation: int | None = None,
    family: LPFamily | None = None,
) -> OperatorInstance:
    fam = family if family is not None else make_lp_family(grid)
    return OperatorInstance(symbol, grid, fam, mode, truncation)


# ---------------------------------------------------------------------------
# Forward application.  The cores act on a (rows, n) stack of samples; the
# one-function entry points are their one-row case.
# ---------------------------------------------------------------------------


def _apply_symbol_spectral(
    op: OperatorInstance, rows: np.ndarray, band: np.ndarray | None
) -> np.ndarray:
    """c * idft(a(0, 0, .) * band * dft(f)) for each row f."""
    g = op.grid
    amp = op._spectrum().copy()
    if band is not None:
        amp *= band
    out = idft_rows(g.reciprocal(), dft_rows(g, rows) * amp)
    mod = op._modulation()
    return out if mod is None else mod * out


def _apply_amplitude(
    op: OperatorInstance, fv: np.ndarray, band: np.ndarray | None
) -> np.ndarray:
    op._amplitude_allowed()
    g = op.grid
    xv = g.axis_points()
    xiv = g.axis_freqs()
    E = op._exp_matrix()
    fe = E * (fv * g.spacing)[:, None]  # (y, m): e^{-i y xi} f(y) dy
    scale = g.freq_spacing / (2.0 * np.pi)
    out = np.empty(g.n, dtype=np.complex128)
    y_arg = xv[:, None]
    xi_arg = xiv[None, :]
    for i, x in enumerate(xv):
        amp = np.asarray(op.symbol.evaluator(x, y_arg, xi_arg), dtype=np.complex128)
        s = np.sum(np.broadcast_to(amp, fe.shape) * fe, axis=0)
        if band is not None:
            s = s * band
        out[i] = scale * np.sum(s * np.exp(1j * x * xiv))
    return out


def _forward(op: OperatorInstance, rows: np.ndarray, band: np.ndarray | None) -> np.ndarray:
    if op.symbol.is_separable:
        return _apply_symbol_spectral(op, rows, band)
    return np.stack([_apply_amplitude(op, fv, band) for fv in rows])


def apply_rows(op: OperatorInstance, rows: np.ndarray) -> np.ndarray:
    """T_a f for each row f of a (rows, n) stack on the operator's grid."""
    return _forward(op, rows, op._mode_band())


def apply(op: OperatorInstance, f: SampledFunction) -> SampledFunction:
    """T_a f on the operator's grid."""
    op._check_grid(f)
    return SampledFunction(op.grid, apply_rows(op, f.values[None, :])[0])


def apply_dyadic_piece(op: OperatorInstance, k: int, f: SampledFunction) -> SampledFunction:
    """Apply the frequency-localized piece T_{a phi_k}."""
    op._check_grid(f)
    if not 0 <= k <= op.family.max_index:
        raise ValueError(f"piece index {k} outside 0..{op.family.max_index}")
    band = op.family.piece_on_lattice(k)
    return SampledFunction(op.grid, _forward(op, f.values[None, :], band)[0])


# ---------------------------------------------------------------------------
# Adjoint application: conjugate transpose of the forward sums.
# ---------------------------------------------------------------------------


def _adjoint_symbol_spectral(
    op: OperatorInstance, rows: np.ndarray, band: np.ndarray | None
) -> np.ndarray:
    """idft(conj(a(0, 0, .) * band) * dft(c u)) for each row u; c and band are real."""
    g = op.grid
    mod = op._modulation()
    amp = np.conj(op._spectrum())
    if band is not None:
        amp *= band
    return idft_rows(g.reciprocal(), dft_rows(g, rows if mod is None else mod * rows) * amp)


def _adjoint_amplitude(
    op: OperatorInstance, uv: np.ndarray, band: np.ndarray | None
) -> np.ndarray:
    op._amplitude_allowed()
    g = op.grid
    xv = g.axis_points()
    xiv = g.axis_freqs()
    E = op._exp_matrix()
    ge = E * (uv * g.spacing)[:, None]  # (x, m): e^{-i x xi} u(x) dx
    scale = g.freq_spacing / (2.0 * np.pi)
    out = np.empty(g.n, dtype=np.complex128)
    x_arg = xv[:, None]
    xi_arg = xiv[None, :]
    for j, y in enumerate(xv):
        amp = np.conj(
            np.asarray(op.symbol.evaluator(x_arg, y, xi_arg), dtype=np.complex128)
        )
        s = np.sum(np.broadcast_to(amp, ge.shape) * ge, axis=0)
        if band is not None:
            s = s * band
        out[j] = scale * np.sum(s * np.exp(1j * y * xiv))
    return out


def apply_adjoint_rows(op: OperatorInstance, rows: np.ndarray) -> np.ndarray:
    """T_a^* u for each row u of a (rows, n) stack, the exact discrete adjoint."""
    band = op._mode_band()
    if op.symbol.is_separable:
        return _adjoint_symbol_spectral(op, rows, band)
    return np.stack([_adjoint_amplitude(op, uv, band) for uv in rows])


def apply_adjoint(op: OperatorInstance, u: SampledFunction) -> SampledFunction:
    """T_a^* u, the exact discrete adjoint of apply."""
    op._check_grid(u)
    return SampledFunction(op.grid, apply_adjoint_rows(op, u.values[None, :])[0])


# ---------------------------------------------------------------------------
# Commutators with a multiplication operator.
# ---------------------------------------------------------------------------


def _check_real(b: SampledFunction) -> None:
    scale = max(1.0, float(np.max(np.abs(b.values))))
    if np.max(np.abs(b.values.imag)) > 1e-12 * scale:
        raise ValueError("commutator multiplier must be real-valued")


def commutator_rows(op: OperatorInstance, b: SampledFunction, rows: np.ndarray) -> np.ndarray:
    """[b, T_a] f = b (T_a f) - T_a (b f) for each row f of a (rows, n) stack."""
    _check_real(b)
    return b.values * apply_rows(op, rows) - apply_rows(op, b.values * rows)


def adjoint_commutator_rows(
    op: OperatorInstance, b: SampledFunction, rows: np.ndarray
) -> np.ndarray:
    """[b, T_a^*] u = b (T_a^* u) - T_a^* (b u) for each row u of a (rows, n) stack."""
    _check_real(b)
    return b.values * apply_adjoint_rows(op, rows) - apply_adjoint_rows(op, b.values * rows)


def commutator(op: OperatorInstance, b: SampledFunction, f: SampledFunction) -> SampledFunction:
    """[b, T_a] f = b (T_a f) - T_a (b f)."""
    op._check_grid(f)
    return SampledFunction(op.grid, commutator_rows(op, b, f.values[None, :])[0])


def adjoint_commutator(
    op: OperatorInstance, b: SampledFunction, u: SampledFunction
) -> SampledFunction:
    """[b, T_a^*] u = b (T_a^* u) - T_a^* (b u)."""
    op._check_grid(u)
    return SampledFunction(op.grid, adjoint_commutator_rows(op, b, u.values[None, :])[0])


# ---------------------------------------------------------------------------
# Kernel rows.  K(x, y) = (2pi)^(-1) sum_m a(x,y,xi_m) e^{i(x-y)xi_m} dxi
# with x fixed anywhere and the other slot on the lattice.  For a symbol a
# row K(x, .) is one inverse FFT of a(x, .); a column K(., x) is one too when
# a(z, xi) = c(z) a(0, xi) factors, times c on the lattice.  Amplitudes and
# symbols that do not factor sum mode by mode.
# ---------------------------------------------------------------------------


def _lattice_sum(grid: PeriodicGrid, coef: np.ndarray) -> np.ndarray:
    """sum_m coef_m e^{i z xi_m} at every lattice z: one scaled idft."""
    spec = SampledFunction(grid.reciprocal(), coef)
    return idft(spec).values * ((2.0 * np.pi) ** 0.5 / grid.freq_spacing)


def _symbol_at(op: OperatorInstance, x: float) -> np.ndarray:
    """a(x, xi_m) over the lattice modes at one fixed x (symbols only)."""
    vals = op.symbol.evaluator(x, x, op.grid.axis_freqs())
    return np.broadcast_to(np.asarray(vals, dtype=np.complex128), op.grid.shape)


def _kernel_weights(op: OperatorInstance, x: float = 0.0, sign: float = 0.0) -> np.ndarray:
    """dxi / (2pi) per mode (times the mode band), times e^{sign i x xi_m}."""
    g = op.grid
    band = op._mode_band()
    w = np.full(g.n, g.freq_spacing / (2.0 * np.pi))
    w = w if band is None else band * w
    if not sign:
        return w
    return w * np.exp(sign * 1j * (g.axis_freqs() * x))


def _amplitude_kernel(
    op: OperatorInstance, x: float, others: np.ndarray, weight: np.ndarray, first: bool
) -> np.ndarray:
    """K(y, x) (first) or K(x, y) for each point y of others, one phase block per chunk."""
    xis = op.grid.axis_freqs()
    xi_arg = xis[None, :]
    sign = 1.0 if first else -1.0
    out = np.empty(len(others), dtype=np.complex128)
    for i0 in range(0, len(others), _CHUNK):
        moving = others[i0 : i0 + _CHUNK, None]
        phase = np.exp(1j * sign * ((moving - x) * xi_arg))
        slots = (moving, x) if first else (x, moving)
        vals = np.asarray(op.symbol.evaluator(*slots, xi_arg), dtype=np.complex128)
        vals = np.broadcast_to(vals, phase.shape)
        out[i0 : i0 + _CHUNK] = (vals * phase) @ weight
    return out


def kernel_column(op: OperatorInstance, x: float) -> np.ndarray:
    """K(., x): the kernel against its first argument, over the grid."""
    g = op.grid
    if not op.symbol.is_separable:
        return _amplitude_kernel(op, x, g.axis_points(), _kernel_weights(op), first=True)
    col = _lattice_sum(g, op._spectrum() * _kernel_weights(op, x, -1.0))
    mod = op._modulation()
    return col if mod is None else mod * col


def kernel_row(op: OperatorInstance, x: float) -> np.ndarray:
    """K(x, .): the kernel against its second argument, over the grid."""
    g = op.grid
    if not op.symbol.is_symbol:
        return _amplitude_kernel(op, x, g.axis_points(), _kernel_weights(op), first=False)
    coef = _symbol_at(op, x) * _kernel_weights(op, x, 1.0)
    return np.conj(_lattice_sum(g, np.conj(coef)))


def adjoint_kernel_row(op: OperatorInstance, x: float) -> np.ndarray:
    """K*(x, .) = conj(K(., x)): row of the adjoint's kernel."""
    return np.conj(kernel_column(op, x))
