"""The dyadic frequency partition: residual and supports.

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

    print()
    print("The pieces telescope, so partial sums are a single dilated profile.")


if __name__ == "__main__":
    main()
