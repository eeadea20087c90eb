"""Weight characteristics with spatial discount, and oscillation norms.

Run:  python demos/04_weights_and_oscillation.py
"""

import psdolab as P


def main() -> None:
    g = P.make_grid(1024, 16.0)
    fam = P.sweep_family(g)

    unit = P.preset_weight("unit", g)
    print(f"unit weight characteristic: "
          f"{P.ap_theta_characteristic(unit, 2.0, 0.0, fam).value:.12f}")

    w = P.preset_weight("power_growth", g, gamma=1.5)
    mono = P.check_monotonicity(w, 2.0, 3.0, 1.5, fam)
    print(f"(1+|x|)^1.5: characteristic ratio q/p = "
          f"{mono.aggregate['ratio_q_over_p']:.4f} (classes nest upward)")
    below = P.check_openness(w, 2.0, 1.5, fam)
    print(f"(1+|x|)^1.5 at p = 1.9: growth slope "
          f"{below.aggregate['growth_slope']:.4f}  [{below.verdict}] (classes are open)")

    strong = P.preset_weight("power_growth", g, gamma=2.0)
    for theta in (0.0, 2.0):
        rep = P.stabilized_characteristic(strong, 2.0, theta, fam)
        tag = "stable" if rep.stable else "grows with the ball cap"
        print(f"(1+|x|)^2 at theta={theta:g}: values "
              f"{rep.values[0]:.3f} -> {rep.values[-1]:.3f}  [{tag}]")

    print()
    b = P.preset_bmo("linear", g)
    fam_in = P.sweep_family(g, inside_only=True)
    for theta in (1.0, 0.0):
        norm = P.bmo_theta_norm(b, theta, fam_in)
        ball = norm.maximizing_ball
        where = f"B({ball.center[0]:g}, {ball.radius:g})" if ball else "n/a"
        print(f"b(x) = x, theta={theta:g}: oscillation norm {norm.value:.4f} "
              f"attained at {where}")

    jn = P.check_john_nirenberg_variant(b, 1.0, 2.0, P.Ball((0.0,), 0.5))
    print(f"square-mean oscillation over mean oscillation: max "
          f"{jn.aggregate['max']:.4f} across dilates  [{jn.verdict}]")

    print()
    print("The spatial discount (1+|x|)^(-theta) is what lets polynomially")
    print("growing weights and multipliers into the theory; theta=0 recovers")
    print("the classical norms and rejects them.")


if __name__ == "__main__":
    main()
