import numpy as np
import pytest

import psdolab as P
from psdolab.symbols import estimate_class_membership, japanese_bracket


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
    assert P.preset_symbol("bessel_order_m", m=0.0).multiplier
    rough = P.preset_symbol("rough_x_modulated", m=0.0)
    assert rough.kind == "rough_symbol"
    assert not rough.multiplier
    assert rough.is_symbol and rough.is_rough
    amp = P.preset_symbol("oscillating_amplitude", m=0.0, rho=1.0, delta=0.0,
                          spatial_scale=16.0)
    assert amp.kind == "smooth_amplitude"
    assert not amp.is_symbol


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        P.preset_symbol("nonsense")


def test_dyadic_piece_localizes_support(grid_small):
    fam = P.make_lp_family(grid_small)
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    piece = P.dyadic_piece(sym, fam, 3)
    xi = np.array([[0.5, 2.0, 6.0, 40.0]])
    vals = np.asarray(piece.evaluator(np.zeros((1, 1)), 0.0, xi), dtype=complex)[0]
    assert vals[0] == 0.0          # below the shell
    assert abs(vals[2]) > 0.0      # inside 4..16
    assert vals[3] == 0.0          # above the shell


def test_membership_estimates_bounded_shells(grid_small):
    rep = estimate_class_membership(P.preset_symbol("bessel_order_m", m=-0.75), grid_small)
    assert len(rep.entries) == 9
    assert all(e.bounded for e in rep.entries)
    assert rep.order == -0.75

    rough = estimate_class_membership(P.preset_symbol("rough_x_modulated", m=0.0), grid_small)
    assert all(e.bounded for e in rough.entries)


def test_modulation_factors_the_rough_preset_and_its_pieces(grid_small):
    """a(x, y, xi) = c(x) a(0, 0, xi) with c(0) = 1; dyadic pieces keep c."""
    sym = P.preset_symbol("rough_x_modulated", m=-0.5)
    fam = P.make_lp_family(grid_small)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-20.0, 20.0, (2, 400))
    xi = rng.uniform(-1.2, 1.2, 400) * grid_small.xi_max
    for s in [sym] + [P.dyadic_piece(sym, fam, k) for k in range(fam.max_index + 1)]:
        assert s.modulation is sym.modulation and s.is_separable
        assert s.modulation(0.0) == 1.0
        lhs = np.asarray(s.evaluator(x, y, xi), dtype=complex)
        rhs = s.modulation(x) * np.asarray(s.evaluator(0.0, 0.0, xi), dtype=complex)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=0.0)
    assert np.ptp(sym.modulation(x)) > 1.0  # the x dependence is real


def test_modulation_only_on_plain_symbols():
    ev = P.preset_symbol("identity").evaluator
    with pytest.raises(ValueError, match="modulation"):
        P.SymbolSpec(ev, 0.0, 1.0, 0.0, "smooth_amplitude", "amp", modulation=np.cos)
    with pytest.raises(ValueError, match="modulation"):
        P.SymbolSpec(ev, 0.0, 1.0, 0.0, "smooth_symbol", "mult", True, np.cos)
    assert P.SymbolSpec(ev, 0.0, 1.0, 0.0, "rough_symbol", "mod", modulation=np.cos).is_separable
