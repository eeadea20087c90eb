"""Acceptance gate: fifteen criteria, one printed verdict line each.

Each test prints its line through the capture so the verdicts are visible in
any pytest invocation, then asserts.  Tolerances are part of the contract and
are stated inline; measured reference values are frozen where the criterion
pins a number.
"""

import numpy as np
import pytest

import psdolab as P
from psdolab.config import load_config
from psdolab.corpus import gaussian_corpus, mixed_corpus
from psdolab.experiments import (run_all, run_boundedness_experiment,
                                 run_commutator_experiment,
                                 run_local_average_check,
                                 run_oscillation_check)
from psdolab.report import canonical_json


def emit(capsys, num, ok, text):
    with capsys.disabled():
        print(f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok


@pytest.fixture(scope="module")
def g1024():
    return P.make_grid(1024, 16.0)


@pytest.fixture(scope="module")
def g32():
    return P.make_grid(2048, 32.0)


@pytest.fixture(scope="module")
def bessel(g1024):
    return P.make_operator(P.preset_symbol("bessel_order_m", m=-0.75), g1024)


def test_c01_partition_of_unity(capsys, g1024):
    residual = P.evaluate_partition_residual(P.make_lp_family(g1024))
    emit(capsys, 1, residual <= 1e-10,
         f"dyadic partition residual = {residual:.3e} (tol 1e-10)")


def test_c02_identity_operator_corpus(capsys, g1024):
    op = P.make_operator(P.preset_symbol("identity"), g1024)
    worst = 0.0
    for _, f, _ in mixed_corpus(g1024, count=30, seed=7):
        worst = max(worst, float(np.max(np.abs(P.apply(op, f).values - f.values))))
    emit(capsys, 2, worst <= 1e-10,
         f"identity application sup-error = {worst:.3e} over 30 items (tol 1e-10)")


def test_c03_adjoint_pairing(capsys, g1024, bessel):
    rough = P.make_operator(P.preset_symbol("rough_x_modulated", m=0.0), g1024)
    items = list(mixed_corpus(g1024, count=8, seed=7))
    worst = 0.0
    for op in (bessel, rough):
        for (_, f, _), (_, u, _) in zip(items[:4], items[4:]):
            gap = abs(P.inner(P.apply(op, f), u) - P.inner(f, P.apply_adjoint(op, u)))
            worst = max(worst, gap)
    emit(capsys, 3, worst <= 1e-9,
         f"adjoint pairing gap = {worst:.3e} over smooth and rough paths (tol 1e-9)")


def test_c04_kernel_decay_slopes(capsys):
    g4 = P.make_grid(4096, 16.0)
    cases = [(0.0, 0, 1.0), (0.0, 2, -1.0), (-0.75, 2, -1.75)]
    rows, ok = [], True
    for m, ell, expected in cases:
        op = P.make_operator(P.preset_symbol("bessel_order_m", m=m), g4)
        (fit,) = P.fit_decay_in_k(op, (ell,), k_range=range(3, 8))
        ok = ok and abs(fit.slope - expected) <= 0.15
        rows.append(f"m={m:g},ell={ell}: {fit.slope:+.4f} vs {expected:+.2f}")
    emit(capsys, 4, ok, "dyadic decay slopes " + "; ".join(rows) + " (tol 0.15)")


def test_c05_difference_estimate(capsys, g1024, bessel):
    ball = P.Ball((0.0,), 0.5)
    low = P.fit_difference_estimate(bessel, ball, j_range=range(2, 5), k_range=range(0, 2))
    high = P.fit_difference_estimate(bessel, ball, j_range=range(2, 5), k_range=range(2, 6))
    same = P.fit_difference_estimate(bessel, ball, j_range=range(2, 5),
                                     k_range=range(2, 6), y_pairs=[(0.1, 0.1)])
    zero_exact = float(np.max(same.table)) == 0.0
    ok = (high.j_fit.passed and high.j_fit.slope <= -1.0
          and low.k_fit.slope > 0.0 and high.k_fit.slope < 0.0 and zero_exact)
    emit(capsys, 5, ok,
         f"difference table: j-slope {high.j_fit.slope:+.3f} <= -1, "
         f"k-slope {low.k_fit.slope:+.3f} below / {high.k_fit.slope:+.3f} above "
         f"the critical scale, zero-separation row exactly 0")


def test_c06_cover_multiplicity(capsys, g1024):
    cover = P.build_critical_cover(g1024)
    mults = {s: int(np.max(cover.multiplicity(s))) for s in (1.0, 2.0, 4.0, 8.0)}
    ok = all(m <= 10.0 * s for s, m in mults.items())
    emit(capsys, 6, ok,
         "cover multiplicity " + ", ".join(f"{s:g}x:{m}" for s, m in mults.items())
         + " (cap 10*sigma)")


def test_c07_characteristic_calculus(capsys, g1024):
    fam = P.sweep_family(g1024)
    unit = P.ap_theta_characteristic(P.preset_weight("unit", g1024), 2.0, 0.0, fam).value
    g512 = P.make_grid(512, 16.0)
    fam512 = P.sweep_family(g512)
    worst = 0.0
    for s in range(100):
        w = P.preset_weight("random_log_bounded", g512, seed=s)
        worst = max(worst, P.check_monotonicity(w, 2.0, 2.5, 0.0, fam512)
                    .aggregate["ratio_q_over_p"])
    strong = P.preset_weight("power_growth", g1024, gamma=2.0)
    flat = P.stabilized_characteristic(strong, 2.0, 0.0, fam)
    twisted = P.stabilized_characteristic(strong, 2.0, 2.0, fam)
    ok = (abs(unit - 1.0) <= 1e-10 and worst <= 1.0 + 1e-10
          and not flat.stable and twisted.stable)
    emit(capsys, 7, ok,
         f"characteristics: unit = {unit:.12f}, monotone over 100 random weights "
         f"(worst ratio {worst:.4f}), quadratic growth unstable untwisted / "
         f"stable twisted")


def test_c08_oscillation_norm_of_linear(capsys, g32):
    b = P.preset_bmo("linear", g32)
    fam = P.sweep_family(g32, radius_cap=16.0, inside_only=True)
    norm = P.bmo_theta_norm(b, 1.0, fam).value
    coeffs = []
    for cap in (2.0, 4.0, 8.0, 16.0):
        famc = P.sweep_family(g32, radius_cap=cap, inside_only=True)
        coeffs.append(P.bmo_theta_norm(b, 0.0, famc).value / cap)
    ok = 0.45 <= norm <= 0.5 and all(abs(c - 0.5) <= 0.05 for c in coeffs)
    emit(capsys, 8, ok,
         f"linear multiplier: twisted norm {norm:.5f} in [0.45, 0.5], "
         f"untwisted norm/cap {min(coeffs):.4f}..{max(coeffs):.4f} near 0.5")


def test_c09_exponential_integrability(capsys, g32):
    b = P.preset_bmo("linear", g32)
    rep = P.check_john_nirenberg_variant(b, 1.0, 2.0, P.Ball((0.0,), 0.5))
    part_i = [it["value"] for it in rep.items if it["id"] == "part_i"]
    part_ii = [it["value"] for it in rep.items if it["id"] == "part_ii"]
    finite = all(np.isfinite(part_ii))
    noninc = all(a >= b_ - 1e-12 for a, b_ in zip(part_ii, part_ii[1:]))
    ok = (rep.verdict == "pass" and rep.aggregate["max"] <= 2.0
          and rep.aggregate["skipped_dilates"] == 0 and finite and noninc
          and len(part_i) >= 4)
    emit(capsys, 9, ok,
         f"square-mean vs mean oscillation ratio max {rep.aggregate['max']:.4f} <= 2, "
         f"tail means finite and nonincreasing over k = 1..5")


def test_c10_sharp_function_control(capsys, g1024):
    cover = P.build_critical_cover(g1024)
    w = P.preset_weight("power_growth", g1024, gamma=1.5)
    ratios = np.array([
        P.check_fs_inequality(f, w, 2.0, cover).aggregate["ratio"]
        for _, f, _ in mixed_corpus(g1024, count=30, seed=7)
    ])
    ok = ratios.max() <= 4.0 * np.median(ratios)
    emit(capsys, 10, ok,
         f"sharp-function control over 30 items: max {ratios.max():.4f} <= "
         f"4 x median {np.median(ratios):.4f}")


def test_c11_weighted_maximal_bounds(capsys, g1024):
    cover = P.build_critical_cover(g1024)
    w = P.preset_weight("power_growth", g1024, gamma=1.5)
    half = g1024.half_length
    corpus = gaussian_corpus(g1024, centers=np.linspace(0.4 * half, 0.5 * half, 6),
                             widths=(0.6, 1.0, 1.8), modulations=(0,))
    rep = P.check_weighted_bounds_maximal(corpus, w, 2.0, 1.5, 1.5, cover)
    agg = rep.aggregate
    ok = (rep.verdict == "pass"
          and agg["series_max"] <= 4.0 * agg["series_median"]
          and agg["cover_max"] <= 4.0 * agg["cover_median"]
          and abs(agg["series_trend"]) <= 0.1 and abs(agg["cover_trend"]) <= 0.1)
    emit(capsys, 11, ok,
         f"maximal bounds at s=1.5, p=2, theta=1.5: spreads "
         f"{agg['series_max']/agg['series_median']:.2f}/"
         f"{agg['cover_max']/agg['cover_median']:.2f} (cap 4), trends "
         f"{agg['series_trend']:+.3f}/{agg['cover_trend']:+.3f} (cap 0.1)")


def test_c12_weighted_operator_bounds(capsys):
    smooth = run_boundedness_experiment(load_config())
    rough = run_boundedness_experiment(
        load_config(None, {"symbol.preset": "rough_x_modulated", "symbol.m": "0.0"}))
    ident = run_boundedness_experiment(load_config(None, {"symbol.preset": "identity"}))
    dev = max(abs(it["value"]["weighted_ratio"] - 1.0)
              for it in ident.items if "weighted_ratio" in it.get("value", {}))
    ok = (smooth.verdict == "pass" and rough.verdict == "pass"
          and ident.verdict == "pass" and dev <= 1e-12)
    emit(capsys, 12, ok,
         f"operator bounds: smoothing max {smooth.aggregate['max']:.4f}, rough max "
         f"{rough.aggregate['max']:.4f}, identity ratios within {dev:.2e} of 1")


def test_c13_weighted_commutator_bounds(capsys):
    linear = run_commutator_experiment(load_config())
    const = run_commutator_experiment(load_config(None, {"bmo.preset": "constant"}))
    ok = (linear.verdict == "pass" and const.verdict == "pass"
          and const.aggregate["zero_family"] and const.aggregate["max"] <= 1e-12)
    emit(capsys, 13, ok,
         f"commutator bounds: linear multiplier max {linear.aggregate['max']:.4f} "
         f"(slope {linear.aggregate['slope']:+.4f}), constant multiplier ratios "
         f"{const.aggregate['max']:.2e} (tol 1e-12)")


def test_c14_local_control_lemmas(capsys):
    avg = run_local_average_check(load_config())
    osc = run_oscillation_check(load_config())
    a, o = avg.aggregate, osc.aggregate
    ok = (avg.verdict == "pass" and osc.verdict == "pass"
          and o["zero_case_max"] == 0.0
          and a["plain_max"] <= 4.0 * a["plain_median"]
          and o["plain_max"] <= 4.0 * o["plain_median"])
    emit(capsys, 14, ok,
         f"local control: average spreads {a['plain_max']/a['plain_median']:.2f}, "
         f"oscillation spreads {o['plain_max']/o['plain_median']:.2f} (cap 4), "
         f"zero cases exactly 0")


def test_c15_deterministic_reports(capsys):
    cfg = load_config()
    first = run_all(cfg)
    second = run_all(cfg)
    same = all(canonical_json(first[k].to_json_dict())
               == canonical_json(second[k].to_json_dict()) for k in first)
    emit(capsys, 15, same and len(first) == 9,
         "independent re-runs produce byte-identical JSON for all 9 experiments")
