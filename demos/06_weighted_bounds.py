"""The headline experiments: weighted operator and commutator bounds.

Run:  python demos/06_weighted_bounds.py
"""

import numpy as np

import psdolab as P
from psdolab.corpus import gaussian_packet


def main() -> None:
    g = P.make_grid(1024, 16.0)
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    op = P.make_operator(sym, g)
    w = P.preset_weight("power_growth", g, gamma=1.5)
    b = P.preset_bmo("linear", g)
    p = 2.0

    print(f"operator: {sym.label};  weight: {w.label};  multiplier: b(x) = x")
    print("\nweighted ratio ||Tf|| / ||f|| and ||[b,T]f|| / ||f|| by packet center:")
    print(f"  {'center':>7s} {'operator':>9s} {'commutator':>11s}")
    for c in np.linspace(2.4, 6.0, 5):
        f = gaussian_packet(g, center=float(c), width=1.0)
        denom = P.lp_norm(f, p, weight=w.values)
        r_op = P.lp_norm(P.apply(op, f), p, weight=w.values) / denom
        r_cm = P.lp_norm(P.commutator(op, b, f), p, weight=w.values) / denom
        print(f"  {c:7.2f} {r_op:9.4f} {r_cm:11.4f}")

    ide = P.make_operator(P.preset_symbol("identity"), g)
    f = gaussian_packet(g, center=3.0, width=1.0)
    denom = P.lp_norm(f, p, weight=w.values)
    print(f"\nidentity symbol sanity: ratio "
          f"{P.lp_norm(P.apply(ide, f), p, weight=w.values) / denom:.12f}")

    rough = P.make_operator(P.preset_symbol("rough_x_modulated", m=0.0), g)
    r = P.lp_norm(P.apply(rough, f), p, weight=w.values) / denom
    print(f"rough bounded symbol: ratio {r:.4f} (no smoothness in x required)")

    print()
    print("Ratios stay flat as the packet translates toward the box edge: the")
    print("spatially discounted weight class is exactly the one that makes the")
    print("constant uniform.  Run `psdolab report all` for the full corpus")
    print("version with verdicts.")


if __name__ == "__main__":
    main()
