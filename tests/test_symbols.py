import dataclasses
import pathlib

import numpy as np
import pytest

import psdolab as P
from psdolab.config import load_config
from psdolab.fitting import least_squares_line
from psdolab.symbols import (_SLOPE_BOUND, _STENCILS, _SUP_FLOOR, KINDS, ClassMembershipReport,
                             Expansion, MembershipEntry, _bessel_j, _shell_samples,
                             estimate_class_membership, japanese_bracket)


def test_japanese_bracket_values():
    assert japanese_bracket(0.0) == 1.0
    assert japanese_bracket(np.sqrt(3.0)) == pytest.approx(2.0)
    xs = np.array([10.0, 100.0])
    assert np.all(japanese_bracket(xs) > np.abs(xs))


def test_identity_preset_is_constant_one():
    sym = P.preset_symbol("identity")
    assert sym.order == 0.0
    assert sym.is_symbol
    vals = sym.evaluator(np.zeros((3, 1)), 0.0, np.linspace(-5, 5, 7)[None, :])
    assert np.max(np.abs(np.asarray(vals, dtype=complex) - 1.0)) == 0.0


def test_bessel_preset_matches_bracket_power():
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    xi = np.linspace(-40.0, 40.0, 9)[None, :]
    vals = np.asarray(sym.evaluator(np.zeros((1, 1)), 0.0, xi), dtype=complex)
    assert np.max(np.abs(vals - japanese_bracket(xi) ** -0.75)) < 1e-14
    assert sym.order == -0.75
    assert sym.rho == 1.0 and sym.delta == 0.0


def test_symbol_kinds_drive_dispatch_flags():
    xi = np.linspace(-40.0, 40.0, 9)
    mult = P.preset_symbol("bessel_order_m", m=0.0).expansion(xi)
    assert mult.x_factors == mult.y_factors == (None,) and mult.terms == ((0, 0),)
    rough = P.preset_symbol("rough_x_modulated", m=0.0)
    assert rough.kind == "rough_symbol"
    assert rough.expansion(xi).x_factors[0] is not None
    assert rough.is_symbol and rough.is_rough
    amp = P.preset_symbol("oscillating_amplitude", m=0.0, rho=1.0, delta=0.0,
                          spatial_scale=16.0)
    assert amp.kind == "smooth_amplitude"
    assert not amp.is_symbol


@pytest.mark.parametrize("scale", [0.0, -16.0])
def test_amplitude_needs_a_positive_spatial_scale(scale):
    """psi(x, y) = sin(pi x / s) cos(pi y / s) needs s > 0."""
    with pytest.raises(ValueError, match="spatial_scale must be positive"):
        P.preset_symbol("oscillating_amplitude", m=-0.75, rho=0.5, spatial_scale=scale)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        P.preset_symbol("nonsense")


def test_membership_estimates_bounded_shells(grid_small):
    rep = estimate_class_membership(P.preset_symbol("bessel_order_m", m=-0.75), grid_small)
    assert len(rep.entries) == 9
    assert all(e.bounded for e in rep.entries)
    assert rep.order == -0.75

    rough = estimate_class_membership(P.preset_symbol("rough_x_modulated", m=0.0), grid_small)
    assert all(e.bounded for e in rough.entries)


@pytest.mark.parametrize("n", [1024, 8192])
def test_class_slope_bound_splits_an_order_excess_of_half(n):
    """<xi>^(m+s) declared at order m grows by about s per dyadic shell: the
    class criterion passes at s = 0.45 and fails at s = 0.55.  At n = 256
    the top shells overshoot (0.62 at s = 0.45), so the split needs n >= 1024."""
    grid = P.make_grid(n, 16.0)
    for excess, ok in ((0.45, True), (0.55, False)):
        sym = dataclasses.replace(P.preset_symbol("bessel_order_m", m=-0.75 + excess),
                                  order=-0.75)
        assert sym.rho == 1.0
        criterion = estimate_class_membership(sym, grid).criterion
        assert criterion.ok is ok, (excess, criterion.value)
        assert abs(criterion.value - excess) < 0.05


@pytest.mark.parametrize("eps, ok", [(4.7e-10, True), (4.9e-10, False)])
def test_class_sup_floor_splits_a_scaled_order_excess(eps, ok):
    """eps <xi>^(1/4) declared at order -3/4 is too large by 1; its largest
    top-shell sup, at alpha = 3, is 20.9136 eps.  Under _SUP_FLOOR every
    entry reads slope 0 (4.7e-10: 9.83e-9); over it the excess shows
    (4.9e-10: 1.025e-8, slope 1.044)."""
    base = P.preset_symbol("bessel_order_m", m=0.25)
    sym = dataclasses.replace(base, order=-0.75,
                              evaluator=lambda x, y, xi: eps * base.evaluator(x, y, xi))
    rep = estimate_class_membership(sym, P.make_grid(1024, 16.0))
    top = max(rep.entries, key=lambda e: max(e.shell_sups[-4:]))
    assert top.alpha == 3
    assert max(top.shell_sups[-4:]) == pytest.approx(20.9136 * eps, rel=1e-5)
    assert (max(top.shell_sups[-4:]) < _SUP_FLOOR) is ok
    criterion = rep.criterion
    assert criterion.ok is ok
    assert criterion.value == (0.0 if ok else pytest.approx(1.044, abs=1e-3))


def test_modulation_factors_the_rough_preset(grid_small):
    """a(x, y, xi) = c(x) a(0, 0, xi) with c(0) = 1 is the rough preset's one
    expansion term."""
    sym = P.preset_symbol("rough_x_modulated", m=-0.5)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-20.0, 20.0, (2, 400))
    xi = rng.uniform(-1.2, 1.2, 400) * grid_small.xi_max
    ex = sym.expansion(xi)
    c = ex.x_factors[0]
    assert ex.y_factors == (None,) and ex.terms == ((0, 0),)
    assert c(0.0) == 1.0
    lhs = np.asarray(sym.evaluator(x, y, xi), dtype=complex)
    np.testing.assert_allclose(lhs, c(x) * ex.sigma(0), rtol=1e-14, atol=0.0)
    assert np.ptp(c(x)) > 1.0  # the x dependence is real


def _one_factor_expansion(x_factor, y_factor):
    def expansion(xi):
        s = np.ones(np.shape(xi), dtype=complex)
        return Expansion((x_factor,), (y_factor,), ((0, 0),), lambda r: s)

    return expansion


def test_y_factors_only_on_amplitudes(grid_small):
    """A symbol kind ignores the y slot, so an operator refuses a symbol-kind
    expansion with a y-factor; an x-factor runs on every kind."""
    ev = P.preset_symbol("identity").evaluator
    f = P.sample(grid_small, lambda x: np.exp(-x ** 2))
    for kind in KINDS:
        op = P.make_operator(P.SymbolSpec(ev, 0.0, 1.0, 0.0, kind, "mod",
                                          _one_factor_expansion(np.cos, None)), grid_small)
        assert np.array_equal(P.apply(op, f).values, np.cos(grid_small.axis_points())
                              * P.apply(P.make_operator(P.preset_symbol("identity"),
                                                        grid_small), f).values)
        spec = P.SymbolSpec(ev, 0.0, 1.0, 0.0, kind, "y", _one_factor_expansion(None, np.cos))
        if spec.is_symbol:
            with pytest.raises(ValueError, match="takes no y-factor"):
                P.apply(P.make_operator(spec, grid_small), f)
        else:
            P.apply(P.make_operator(spec, grid_small), f)


_AMPLITUDE = {"m": -0.5, "rho": 0.5, "spatial_scale": 16.0}


@pytest.mark.parametrize("preset,params", [
    ("identity", {}),
    ("bessel_order_m", {"m": -0.75}),
    ("rough_x_modulated", {"m": -0.5}),
    ("oscillating_amplitude", {**_AMPLITUDE, "delta": 0.0}),
    ("oscillating_amplitude", {**_AMPLITUDE, "delta": 0.5}),
    ("oscillating_amplitude", {**_AMPLITUDE, "delta": 1.0}),
])
def test_expansion_equals_the_evaluator_on_the_lattice(preset, params):
    """sum_r c_p(x) d_q(y) sigma_r(xi) against a(x, y, xi) at every lattice
    (x, y, xi) of a 128-point grid: operators apply the expansion, class
    probing and the difference tables read the evaluator."""
    g = P.make_grid(128, 16.0)
    sym = P.preset_symbol(preset, **params)
    xi, pts = g.axis_freqs(), g.axis_points()
    ex = sym.expansion(xi)
    assert len(set(ex.terms)) == len(ex.terms)
    on = [[np.ones(g.n) if f is None else f(pts) for f in fs]
          for fs in (ex.x_factors, ex.y_factors)]
    table = np.zeros((len(ex.x_factors), len(ex.y_factors), g.n), dtype=complex)
    for r, (p, q) in enumerate(ex.terms):
        table[p, q] = ex.sigma(r)
    got = np.einsum("xp,pqm,yq->xym", np.stack(on[0], 1), table, np.stack(on[1], 1),
                    optimize=True)
    ref = sym.evaluator(pts[:, None, None], pts[None, :, None], xi[None, None, :])
    assert np.max(np.abs(got - ref)) <= 2e-14 * np.max(np.abs(ref))


def test_bessel_rows_match_scipy():
    """The numpy-only J_k rows of the Jacobi-Anger terms against scipy."""
    special = pytest.importorskip("scipy.special")
    z = np.concatenate([[0.0, 1e-9, 0.5], np.linspace(0.0, 60.0, 601)])
    ref = special.jv(np.arange(121)[:, None], z[None, :])
    assert np.max(np.abs(_bessel_j(120, z) - ref)) <= 4e-15


@pytest.fixture(scope="module")
def preset_symbols():
    """Each preset file's symbol, then the amplitude in its class
    (rho 0.5, m -0.75, delta 0.5)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    syms = [load_config(path).make_symbol() for path in sorted((root / "presets").glob("*.cfg"))]
    return syms + [P.preset_symbol("oscillating_amplitude", m=-0.75, rho=0.5, delta=0.5)]


@pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096, 8192])
def test_class_probes_do_not_move_with_the_lattice(n, preset_symbols):
    """The class of a symbol does not depend on the grid.  At L = 8, 16 and
    64, a multiplier's x-differences read exactly 0.0, every symbol preset
    and the in-class amplitude stay in class, and the amplitude at rho = 1
    is refused."""
    rho_one = P.preset_symbol("oscillating_amplitude", m=-0.75, rho=1.0, delta=0.5)
    for half in (8.0, 16.0, 64.0):
        grid = P.make_grid(n, half)
        if grid.xi_max < 16.0:  # fewer than three complete dyadic shells
            with pytest.raises(ValueError, match="too few dyadic shells"):
                estimate_class_membership(rho_one, grid)
            continue
        bessel = estimate_class_membership(P.preset_symbol("bessel_order_m", m=-0.75), grid)
        x_entries = [e for e in bessel.entries if e.beta > 0]
        assert x_entries and all(s == 0.0 for e in x_entries for s in e.shell_sups), half
        for sym in preset_symbols:
            assert estimate_class_membership(sym, grid).criterion.ok, (half, sym.label)
        assert not estimate_class_membership(rho_one, grid).criterion.ok, half


def _reference_fd_mixed(ev, xs, ys, xis, alpha, beta, gamma, hx, hxi):
    """The probe's difference stencil evaluated in place, one evaluator call
    per term, in the same summation order."""
    acc = 0.0
    for oxi, cxi in _STENCILS[alpha].items():
        part = 0.0
        for ox, cx in _STENCILS[beta].items():
            for oy, cy in _STENCILS[gamma].items():
                term = ev(xs + ox * hx, ys + oy * hx, xis + oxi * hxi)
                part = part + np.asarray(term, dtype=np.complex128) * (cx * cy)
        acc = acc + part * cxi
    return acc / (hx ** (beta + gamma) * hxi**alpha)


def _reference_membership(sym, grid):
    """The class probe shell by shell: every combo and shell evaluates its
    own stencil and takes its own sup."""
    m, rho, delta = sym.order, sym.rho, sym.delta
    span = 0.75 * grid.half_length
    xs = np.linspace(-span, span, 9)[:, None, None]
    ys = (np.zeros((1, 1, 1)) if sym.is_symbol
          else np.linspace(-span, span, 9)[None, :, None])
    hx, hxi = grid.spacing, grid.freq_spacing
    entries = []
    for alpha in range(4):
        for beta in range(4 - alpha):
            for gamma in range(4 - alpha - beta):
                if (alpha + beta + gamma == 0 or (sym.is_rough and beta > 0)
                        or (sym.is_symbol and gamma > 0)):
                    continue
                sups = []
                for _, xi_vals in _shell_samples(grid):
                    xis = xi_vals[None, None, :]
                    deriv = _reference_fd_mixed(sym.evaluator, xs, ys, xis, alpha, beta,
                                                gamma, hx, hxi)
                    bound = japanese_bracket(xis) ** (m - rho * alpha + delta * (beta + gamma))
                    sups.append(float(np.max(np.abs(deriv) / bound)))
                sups = np.array(sups)
                tail = sups[-min(4, len(sups)):]
                if np.max(tail) < _SUP_FLOOR:
                    slope, bounded = 0.0, True
                else:
                    slope, _, _ = least_squares_line(np.arange(len(tail), dtype=float),
                                                     np.log2(np.maximum(tail, 1e-300)))
                    bounded = slope < _SLOPE_BOUND
                entries.append(MembershipEntry(alpha, beta, gamma, float(np.max(sups)),
                                               tuple(float(v) for v in sups), float(slope),
                                               bool(bounded)))
    return ClassMembershipReport(sym.label, m, rho, delta, sym.kind, tuple(entries))


@pytest.mark.parametrize("n", [256, 1024, 8192])
def test_class_probe_matches_the_shell_by_shell_reference(n, preset_symbols):
    """One xi row for all shells and one evaluator call per stencil offset
    give the same report, bit for bit, as the shell-by-shell probe."""
    rho_one = P.preset_symbol("oscillating_amplitude", m=-0.75, rho=1.0, delta=0.5)
    resolved = 0
    for half in (8.0, 16.0, 64.0):
        grid = P.make_grid(n, half)
        if grid.xi_max < 16.0:
            continue
        resolved += 1
        for sym in (*preset_symbols, rho_one):
            assert estimate_class_membership(sym, grid) == _reference_membership(sym, grid), (
                half, sym.label)
    assert resolved > 0


@pytest.mark.parametrize("name, params, distinct", [
    ("bessel_order_m", {"m": -0.75}, 13),
    ("rough_x_modulated", {"m": 0.0}, 5),
    ("oscillating_amplitude", {"m": -0.75, "rho": 0.5, "delta": 0.5}, 33),
])
def test_class_probe_evaluates_each_stencil_point_once(name, params, distinct):
    """The probe calls the evaluator once per distinct stencil offset
    (ox, oy, oxi), each call on every shell's samples at once."""
    sym = P.preset_symbol(name, **params)
    calls = []

    def counting(x, y, xi):
        calls.append(np.shape(xi))
        return sym.evaluator(x, y, xi)

    grid = P.make_grid(1024, 16.0)
    report = estimate_class_membership(dataclasses.replace(sym, evaluator=counting), grid)
    assert len(calls) == distinct
    samples = sum(xi_vals.size for _, xi_vals in _shell_samples(grid))
    assert all(shape[-1] == samples for shape in calls)
    assert report == estimate_class_membership(sym, grid)
