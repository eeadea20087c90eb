"""The dyadic frequency partition: residual, supports, derivative scaling.

Run:  python demos/02_dyadic_partition.py
"""

import numpy as np

import psdolab as P


def main() -> None:
    g = P.make_grid(1024, 16.0)
    fam = P.make_lp_family(g)
    print(f"pieces 0..{fam.max_index} on a lattice reaching |xi| = {g.xi_max:.1f}")
    print(f"partition residual on the covered band: "
          f"{P.evaluate_partition_residual(fam):.3e}")

    r = np.linspace(0.0, 80.0, 2001)
    print("\npiece supports (first and last live radius):")
    for k in range(min(6, fam.piece_count)):
        v = fam.piece_profile(k, r)
        live = r[np.abs(v) > 0]
        print(f"  k={k}: [{live.min():6.2f}, {live.max():6.2f}]  "
              f"(nominal shell [{0.0 if k == 0 else 2.0 ** (k - 1):g}, {2.0 ** (k + 1):g}])")

    print("\nderivative sups, rescaled by 2^(k*alpha):")
    for alpha in (1, 2, 3):
        rep = P.derivative_bound_check(fam, alpha)
        scaled = [it["value"] for it in rep.items]
        print(f"  alpha={alpha}: raw-slope {rep.aggregate['slope']:+.3f}, "
              f"scaled sups {min(scaled):.4g}..{max(scaled):.4g}  [{rep.verdict}]")

    print()
    print("The pieces telescope, so partial sums are a single dilated profile;")
    print("the scaled derivative sups are k-independent because each piece is")
    print("an exact dilation of piece 1.")


if __name__ == "__main__":
    main()
