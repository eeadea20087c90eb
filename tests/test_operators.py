import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psdolab as P
from psdolab import operators
from psdolab.corpus import BLOCK_ENTRIES, CorpusItem, corpus_blocks
from psdolab.grid import dft_rows, idft_rows, lp_norms
from psdolab.operators import (OperatorInstance, adjoint_commutator_rows, apply_adjoint_rows,
                               apply_rows, commutator_rows)
from psdolab.symbols import Expansion, japanese_bracket

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_identity_symbol_acts_as_identity(grid, packet):
    op = P.make_operator(P.preset_symbol("identity"), grid)
    out = P.apply(op, packet)
    assert np.max(np.abs(out.values - packet.values)) < 1e-12


def test_multiplier_application_is_diagonal_in_frequency(grid, packet):
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    op = P.make_operator(sym, grid)
    out = P.apply(op, packet)
    spec = P.dft(packet)
    xi = spec.grid.axis_points()
    scaled = P.SampledFunction(spec.grid, spec.values * (1.0 + xi ** 2) ** (-0.375))
    expect = P.idft(scaled)
    assert np.max(np.abs(out.values - expect.values)) < 1e-12


@pytest.mark.parametrize("preset,params", [
    ("bessel_order_m", {"m": -0.75}),
    ("rough_x_modulated", {"m": 0.0}),
])
def test_adjoint_pairing_is_exact(grid, packet, window, preset, params):
    op = P.make_operator(P.preset_symbol(preset, **params), grid)
    lhs = P.inner(P.apply(op, packet), window)
    rhs = P.inner(packet, P.apply_adjoint(op, window))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dyadic_pieces_telescope_to_full(grid, lp, bessel_op, packet):
    acc = np.zeros_like(packet.values)
    for k in range(lp.max_index + 1):
        forward_k, _ = _dense_reference(bessel_op, lp.piece_on_lattice(k).ravel())
        acc = acc + forward_k(packet)
    full = P.apply(bessel_op, packet).values
    assert np.max(np.abs(acc - full)) < 1e-12


def test_dyadic_mode_needs_truncation(grid):
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    with pytest.raises(ValueError):
        OperatorInstance(sym, grid, 40)


def test_truncated_operator_matches_on_bandlimited_input(grid, bessel_op, packet):
    opd = OperatorInstance(P.preset_symbol("bessel_order_m", m=-0.75), grid, 5)
    # the packet's spectrum dies well inside piece 5, so nothing is lost
    d = P.apply(opd, packet).values - P.apply(bessel_op, packet).values
    assert np.max(np.abs(d)) < 1e-12


def test_commutator_with_identity_vanishes(grid, packet):
    op = P.make_operator(P.preset_symbol("identity"), grid)
    b = P.preset_bmo("linear", grid)
    c = P.commutator(op, b, packet)
    assert np.max(np.abs(c.values)) < 1e-12


def test_commutator_is_linear_in_the_multiplier(grid, bessel_op, packet):
    b1 = P.preset_bmo("linear", grid)
    b2 = P.preset_bmo("triangle", grid)
    combo = P.SampledFunction(grid, 2.0 * b1.values - 3.0 * b2.values)
    lhs = P.commutator(bessel_op, combo, packet).values
    rhs = (2.0 * P.commutator(bessel_op, b1, packet).values
           - 3.0 * P.commutator(bessel_op, b2, packet).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_commutator_requires_real_multiplier(grid, bessel_op, packet):
    bad = P.SampledFunction(grid, 1j * np.ones(grid.shape))
    with pytest.raises(ValueError):
        P.commutator(bessel_op, bad, packet)


def test_adjoint_commutator_requires_real_multiplier(grid, bessel_op, packet):
    bad = P.SampledFunction(grid, np.ones(grid.shape) + 1e-9j)
    with pytest.raises(ValueError, match="imaginary"):
        adjoint_commutator_rows(bessel_op, bad, packet.values[None])


def test_adjoint_commutator_pairs_with_negative_sign(grid, bessel_op, packet, window):
    """([b, T])* = -[b, T*], so the two pairings cancel."""
    b = P.preset_bmo("linear", grid)
    cb = P.commutator(bessel_op, b, packet)
    ac = P.SampledFunction(grid, adjoint_commutator_rows(bessel_op, b, window.values[None])[0])
    assert abs(P.inner(cb, window) + P.inner(packet, ac)) < 1e-12


_COMMUTATOR_CASES = [
    (preset, params, n)
    for preset, params, sizes in [
        ("identity", {}, (256, 1024, 4096)),
        ("bessel_order_m", {"m": -0.75}, (256, 1024, 4096)),
        ("rough_x_modulated", {"m": 0.0}, (256, 1024, 4096)),
        ("oscillating_amplitude", {"m": -0.75, "rho": 0.5, "delta": 0.5}, (256, 1024)),
    ]
    for n in sizes
]

# (c, lam): [lam b + c, T] = lam [b, T].  Roundoff model per row f, with
# u = eps / 2: 4 u log2(n) (|c| + max(1, |lam|) |b|_inf) max(|T f|_inf, |f|_inf);
# every case reads at most 0.83 of the model with the factor 4 taken as 1.
_COMMUTATOR_RELATIONS = [(1.0, 1.0), (100.0, 1.0), (-1e4, 1.0), (0.0, 3.0), (0.0, 1.0 / 3.0)]


@pytest.mark.parametrize("preset, params, n", _COMMUTATOR_CASES)
def test_commutators_ignore_constants_and_scale_with_the_multiplier(preset, params, n):
    """[b + c, T] = [b, T] and [lam b, T] = lam [b, T], for the commutator and
    the adjoint commutator cores, with b = x, up to the roundoff model."""
    g = P.make_grid(n, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    b = P.preset_bmo("linear", g)
    rows = np.stack([f.values for _, f, _ in P.mixed_corpus(g, 4, 3)])
    b_sup = np.max(np.abs(b.values))
    for core, apply_core in ((commutator_rows, apply_rows),
                             (adjoint_commutator_rows, apply_adjoint_rows)):
        size = np.maximum(np.max(np.abs(apply_core(op, rows)), axis=1),
                          np.max(np.abs(rows), axis=1))
        base = core(op, b, rows)
        for c, lam in _COMMUTATOR_RELATIONS:
            got = core(op, P.SampledFunction(g, lam * b.values + c), rows)
            model = (4.0 * np.finfo(float).eps / 2.0 * np.log2(n)
                     * (abs(c) + max(1.0, abs(lam)) * b_sup) * size)
            err = np.max(np.abs(got - lam * base), axis=1)
            assert np.all(err <= model), (core.__name__, c, lam, err / model)


_REFLECTION_CASES = [(preset, params, n) for preset, params, n in _COMMUTATOR_CASES
                     if preset != "oscillating_amplitude"]


# R f(j) = f((n - j) mod n) is x -> -x on the lattice; it maps the frequency
# lattice onto itself and its unpaired mode onto itself, so R T = T R exactly
# for a symbol even in x and in xi (2 + tri is even).  Roundoff model per row
# f, with u = eps / 2: 4 u log2(n) |f|_inf sup |a| over the lattice; every
# case reads at most 0.59 of the model with the factor 4 taken as 1.
@pytest.mark.parametrize("preset, params, n", _REFLECTION_CASES)
def test_application_commutes_with_the_reflection(preset, params, n):
    """apply_rows and apply_adjoint_rows commute with the lattice reflection
    j -> (n - j) mod n, up to the roundoff model."""
    g = P.make_grid(n, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)),
                           np.stack([f.values for _, f, _ in P.mixed_corpus(g, 4, 3)])])
    # sup |a(x, x, xi)| over the lattice, 256 points x at a time
    sup_a = max(np.max(np.abs(op.symbol.evaluator(x[:, None], x[:, None], g.axis_freqs())))
                for x in np.split(g.axis_points(), n // 256))
    reflect = -np.arange(n) % n
    model = 4.0 * np.finfo(float).eps / 2.0 * np.log2(n) * np.max(np.abs(rows), axis=1) * sup_a
    for core in (apply_rows, apply_adjoint_rows):
        err = np.max(np.abs(core(op, rows[:, reflect]) - core(op, rows)[:, reflect]), axis=1)
        assert np.all(err <= model), (core.__name__, err / model)


def test_kernel_row_reproduces_application(grid_small):
    sym = P.preset_symbol("rough_x_modulated", m=0.0)
    op = P.make_operator(sym, grid_small)
    f = P.sample(grid_small, lambda x: np.exp(-0.3 * x ** 2))
    out = P.apply(op, f)
    pts = grid_small.axis_points()
    i = 77
    row = P.kernel_row(op, pts[i])
    quad = np.sum(row * f.values) * grid_small.spacing
    assert abs(quad - out.values[i]) < 1e-10


def test_grid_mismatch_rejected(grid, grid_small, bessel_op):
    f = P.sample(grid_small, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        P.apply(bessel_op, f)


def _reference_kernel(op, x, first):
    """Direct sum K(z, x) (first) or K(x, z) over lattice z, mode by mode."""
    g = op.grid
    xi = g.axis_freqs()[None, :]
    z = g.axis_points()[:, None]
    w = np.full(g.n, g.freq_spacing / (2.0 * np.pi))
    if op.truncation is not None:
        w = w * op.family.band_mask(op.truncation).ravel()
    if first:
        a = op.symbol.evaluator(z, x, xi)
        phase = np.exp(1j * (z - x) * xi)
    else:
        a = op.symbol.evaluator(x, z, xi)
        phase = np.exp(1j * (x - z) * xi)
    return np.sum(np.broadcast_to(a, phase.shape) * phase * w[None, :], axis=1)


# label -> (preset, params); the amplitudes are genuinely (x, y, xi)
# dependent and run as a few hundred Jacobi-Anger terms
_ROW_SYMBOLS = {
    "identity": ("identity", {}),
    "bessel_order_m": ("bessel_order_m", {"m": -0.75}),
    "rough_x_modulated": ("rough_x_modulated", {"m": 0.0}),
    "amplitude(delta=0)": ("oscillating_amplitude", {"m": -0.5, "rho": 0.5, "delta": 0.0}),
    "amplitude(delta=0.5)": ("oscillating_amplitude", {"m": -0.5, "rho": 0.5, "delta": 0.5}),
}


_ONE_TERM = ("bessel_order_m", "identity", "rough_x_modulated")


def _row_operator(label, n, half):
    """The labelled symbol's operator on an n-point grid, n capped at 256 for
    an amplitude, whose direct-sum reference costs n^3."""
    preset, params = _ROW_SYMBOLS[label]
    if preset == "oscillating_amplitude":
        n = min(n, 256)
    return P.make_operator(P.preset_symbol(preset, **params), P.make_grid(n, half))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([64, 128, 256]),
    preset=st.sampled_from(sorted(_ROW_SYMBOLS)),
    dyadic=st.booleans(),
    cell=st.integers(0, 10**6),
    frac=st.floats(0.05, 0.95),
)
def test_kernel_rows_match_direct_sum(n, preset, dyadic, cell, frac):
    op = _row_operator(preset, n, 16.0)
    g = op.grid
    if dyadic:
        op = P.band_limited_twin(op)
    x = g.axis_points()[cell % n] + frac * g.spacing  # strictly off the lattice
    col = _reference_kernel(op, x, first=True)
    row = _reference_kernel(op, x, first=False)
    for got, ref in [
        (P.kernel_row(op, x), row),
        (P.kernel_column(op, x), col),
        (P.adjoint_kernel_row(op, x), np.conj(col)),
    ]:
        assert got.shape == g.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dyadic", [False, True])
@pytest.mark.parametrize("preset", sorted(_ROW_SYMBOLS))
@settings(max_examples=6, deadline=None)
@given(
    n=st.sampled_from([64, 128, 256, 512, 1024, 2048]),
    cells=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    frac=st.floats(0.05, 0.95),
)
def test_stacked_kernel_rows_equal_one_point_calls(preset, dyadic, n, cells, frac):
    """kernel_row, kernel_column and adjoint_kernel_row over a 1-D array of
    off-lattice points give, row by row and bit for bit, what one call per
    point gives; a scalar point gives one (n,) row."""
    op = _row_operator(preset, n, 16.0)
    g = op.grid
    if dyadic:
        op = P.band_limited_twin(op)
    xs = g.axis_points()[np.asarray(cells) % g.n] + frac * g.spacing
    for fn in (P.kernel_row, P.kernel_column, P.adjoint_kernel_row):
        stacked = fn(op, xs)
        assert stacked.shape == (len(xs), g.n)
        for x, got in zip(xs.tolist(), stacked):
            one = fn(op, x)
            assert one.shape == g.shape
            assert np.array_equal(got, one)


def test_stacked_kernel_column_builds_each_sigma_row_once(monkeypatch):
    """One kernel_column call over 6 points of the amplitude builds each of
    its sigma rows once and takes one idft_rows per x-factor."""
    base = P.preset_symbol("oscillating_amplitude", m=-0.75, rho=0.5, delta=0.5)
    built = []

    def expansion(xi):
        ex = base.expansion(xi)

        def sigma(r):
            built.append(r)
            return ex.sigma(r)

        return Expansion(ex.x_factors, ex.y_factors, ex.terms, sigma)

    op = P.make_operator(dataclasses.replace(base, expansion=expansion), P.make_grid(256, 16.0))
    ex = op._terms[0]
    transforms = []

    def recorded(grid, rows):
        transforms.append(np.shape(rows))
        return idft_rows(grid, rows)

    monkeypatch.setattr(operators, "idft_rows", recorded)
    col = P.kernel_column(op, 0.3 + np.arange(6) * 1.7)
    assert col.shape == (6, 256)
    assert sorted(built) == list(range(len(ex.terms))) and len(ex.terms) > 1
    assert transforms == [(6, 256)] * len(ex.x_factors)


def _dense_reference(op, band):
    """T and T* as the direct mode sums
        T f(x_i) = sum_m e^{i x_i xi_m} w_m sum_j a(x_i, y_j, xi_m) e^{-i y_j xi_m} f(y_j),
    with w_m = band_m dxi dy / (2pi).  A symbol ignores the y slot, so its
    sums factor through the N x N matrix a(x_i, xi_m) e^{i x_i xi_m}; an
    amplitude assembles the kernel matrix one x_i at a time, N^3 in all."""
    g = op.grid
    x = g.axis_points()[:, None]
    xi = g.axis_freqs()[None, :]
    phase = np.exp(1j * x * xi)
    w = band * (g.freq_spacing / (2.0 * np.pi) * g.spacing)
    if op.symbol.is_symbol:
        sym = np.broadcast_to(op.symbol.evaluator(x, 0.0, xi), phase.shape) * phase

        def forward(f):
            return sym @ (w * (phase.conj().T @ f.values))

        def adjoint(u):
            return phase @ (w * (sym.conj().T @ u.values))

        return forward, adjoint

    kernel = np.stack([(op.symbol.evaluator(xv, x, xi) * phase.conj()) @ (w * phase[i])
                       for i, xv in enumerate(x[:, 0])])
    return (lambda f: kernel @ f.values), (lambda u: kernel.conj().T @ u.values)


def _assert_close(got, ref):
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([64, 128, 256, 512, 1024]),
    half=st.floats(4.0, 64.0),
    preset=st.sampled_from(sorted(_ROW_SYMBOLS)),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_application_matches_dense_mode_sum(n, half, preset, dyadic, seed):
    op = _row_operator(preset, n, half)
    g, n = op.grid, op.grid.n
    if dyadic:
        assume(g.xi_max >= 2.0)  # the twin keeps at least piece 0
        op = P.band_limited_twin(op)
    rng = np.random.default_rng(seed)
    f, u = (P.SampledFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for _ in range(2))
    full = np.ones(n) if op.truncation is None else op.family.band_mask(op.truncation).ravel()
    forward, adjoint = _dense_reference(op, full)
    tf, tu = P.apply(op, f), P.apply_adjoint(op, u)
    _assert_close(tf, forward(f))
    _assert_close(tu, adjoint(u))
    # the exact adjoint pairing <T f, u> = <f, T* u>
    scale = P.lp_norm(tf, 2.0) * P.lp_norm(u, 2.0)
    assert abs(P.inner(tf, u) - P.inner(f, tu)) <= 1e-12 * scale


def _tilted_bessel(x, y, xi):
    """<xi>^(-1/2) + sin(x) <xi>^(-1): x dependence that does not factor out."""
    br = japanese_bracket(xi)
    return br**-0.5 + np.sin(x) / br + 0.0j


def _tilted_expansion(xi):
    """_tilted_bessel as two separated terms: 1 * <xi>^(-1/2) + sin(x) * <xi>^(-1)."""
    br = japanese_bracket(xi)
    sigma = (br**-0.5 + 0.0j, 1.0 / br + 0.0j)
    return Expansion((None, np.sin), (None,), ((0, 0), (1, 0)), lambda r: sigma[r])


_TILTED = P.SymbolSpec(_tilted_bessel, -0.5, 1.0, 0.0, "smooth_symbol", "tilted",
                       _tilted_expansion)


def _tilted_amplitude(x, y, xi):
    """_tilted_bessel plus e^{iy} <xi>^(-1): a complex factor in the y slot."""
    return _tilted_bessel(x, y, xi) + np.exp(1j * y) / japanese_bracket(xi)


def _tilted_amplitude_expansion(xi):
    ex = _tilted_expansion(xi)
    sigma = (ex.sigma(0), ex.sigma(1), ex.sigma(1))
    return Expansion((None, np.sin), (None, lambda y: np.exp(1j * y)),
                     ((0, 0), (1, 0), (0, 1)), lambda r: sigma[r])


def test_non_factoring_symbol_takes_the_amplitude_path():
    """A symbol whose x dependence does not factor out runs as a sum of
    separated terms, two x-factors here, and matches the direct mode sums;
    so does an amplitude with a y-factor that is not even in y."""
    g = P.make_grid(64, 16.0)
    rng = np.random.default_rng(5)
    f, u = (P.SampledFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            for _ in range(2))
    amp = P.SymbolSpec(_tilted_amplitude, -0.5, 1.0, 0.0, "smooth_amplitude", "tilted_amp",
                       _tilted_amplitude_expansion)
    for sym in (_TILTED, amp):
        op = P.make_operator(sym, g)
        forward, adjoint = _dense_reference(op, np.ones(64))
        _assert_close(P.apply(op, f), forward(f))
        _assert_close(P.apply_adjoint(op, u), adjoint(u))
        x = 1.3 + 0.41 * g.spacing
        for got, ref in [(P.kernel_column(op, x), _reference_kernel(op, x, first=True)),
                         (P.kernel_row(op, x), _reference_kernel(op, x, first=False))]:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _stacked_and_one_row(op, b, rows, fns):
    """Each stacked core's rows next to the one-row entry point on the same
    functions (for the adjoint commutator, its core on one row)."""
    return [
        (apply_rows(op, rows), [P.apply(op, f) for f in fns]),
        (apply_adjoint_rows(op, rows), [P.apply_adjoint(op, f) for f in fns]),
        (commutator_rows(op, b, rows), [P.commutator(op, b, f) for f in fns]),
        (adjoint_commutator_rows(op, b, rows),
         [P.SampledFunction(f.grid, adjoint_commutator_rows(op, b, f.values[None])[0])
          for f in fns]),
    ]


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]),
    half=st.floats(4.0, 64.0),
    preset=st.sampled_from(_ONE_TERM),
    dyadic=st.booleans(),
    full_blocks=st.integers(0, 2),
    tail=st.integers(1, 10**6),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_blocks_equal_the_one_row_path(n, half, preset, dyadic, full_blocks, tail, p,
                                               seed):
    """A corpus run block by block through the stacked cores gives every item
    bit for bit what apply, apply_adjoint, commutator, the adjoint commutator
    core, dft, idft and lp_norm give it alone, and visits every item once, in
    order; the last block is ragged unless tail fills it."""
    op = _row_operator(preset, n, half)
    g, n = op.grid, op.grid.n
    if dyadic:
        assume(g.xi_max >= 2.0)  # the twin keeps at least piece 0
        op = P.band_limited_twin(op)
    step = BLOCK_ENTRIES // n
    count = full_blocks * step + 1 + tail % step
    rng = np.random.default_rng(seed)
    b = P.SampledFunction(g, rng.standard_normal(n))
    weight = rng.uniform(0.1, 10.0, n)
    items = [CorpusItem(f"row{i}", P.SampledFunction(g, rng.standard_normal(n)
                                                     + 1j * rng.standard_normal(n)), {})
             for i in range(count)]
    seen = []
    for block, rows in corpus_blocks(items, n):
        assert rows.shape == (len(block), n) and len(block) <= step
        fns = [item.fn for item in block]
        seen.extend(item.label for item in block)
        spectra = dft_rows(g, rows)
        pairs = _stacked_and_one_row(op, b, rows, fns) + [
            (spectra, [P.dft(f) for f in fns]),
            (idft_rows(g.reciprocal(), spectra), [P.idft(P.dft(f)) for f in fns]),
        ]
        for stacked, one_row in pairs:
            assert stacked.shape == rows.shape
            for got, ref in zip(stacked, one_row):
                assert np.array_equal(got, ref.values)
        for w in (None, weight):
            assert lp_norms(g, rows, p, weight=w) == [P.lp_norm(f, p, weight=w) for f in fns]
    assert seen == [item.label for item in items]


def test_non_factoring_symbol_stacks_row_by_row():
    """A two-term expansion, and the amplitude's Jacobi-Anger terms, sum each
    row of a stack as they sum one function."""
    g = P.make_grid(64, 16.0)
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    fns = [P.SampledFunction(g, row) for row in rows]
    b = P.SampledFunction(g, rng.standard_normal(64))
    for op in (P.make_operator(_TILTED, g), _row_operator("amplitude(delta=0.5)", 64, 16.0)):
        for stacked, one_row in _stacked_and_one_row(op, b, rows, fns):
            for got, ref in zip(stacked, one_row):
                assert np.array_equal(got, ref.values)


def test_rough_application_needs_no_scipy():
    """The runtime is numpy-only: a rough apply must not pull scipy in."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import psdolab as P\n"
        "cfg = P.load_config('presets/rough_bounded.cfg')\n"
        "g = cfg.make_grid()\n"
        "op = P.make_operator(cfg.make_symbol(), g)\n"
        "P.apply(op, P.sample(g, lambda x: np.exp(-x ** 2)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("preset, params, n", [case for case in _COMMUTATOR_CASES
                                               if case[2] <= 1024])
def test_commutators_equal_the_written_out_difference(preset, params, n):
    """Both commutator cores are b T(u) - T(b u) with their transform,
    bit for bit, dtype included."""
    g = P.make_grid(n, 16.0)
    op = P.make_operator(P.preset_symbol(preset, **params), g)
    b = P.preset_bmo("triangle", g)
    bv = b.real_values(1e-12)
    rows = np.stack([f.values for _, f, _ in P.mixed_corpus(g, 4, 3)])
    rows = rows * np.exp(1j * g.axis_points())
    for core, transform in ((commutator_rows, apply_rows),
                            (adjoint_commutator_rows, apply_adjoint_rows)):
        got = core(op, b, rows)
        want = bv * transform(op, rows) - transform(op, bv * rows)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
