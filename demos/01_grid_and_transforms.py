"""Tour of the periodic grid and the unitary transform pair.

Run:  python demos/01_grid_and_transforms.py
"""

import numpy as np

import psdolab as P


def main() -> None:
    g = P.make_grid(512, 16.0)
    print(f"grid: n={g.n}, box [-{g.half_length:g}, {g.half_length:g}), "
          f"spacing {g.spacing:.4f}, top frequency {g.xi_max:.2f}")

    f = P.sample(g, lambda x: np.exp(-0.5 * (x - 2.0) ** 2) * np.exp(1j * 3.0 * x))
    back = P.idft(P.dft(f))
    print(f"transform round trip error: {np.max(np.abs(back.values - f.values)):.3e}")

    u = P.sample(g, lambda x: np.cos(0.7 * x) * np.exp(-0.1 * x ** 2))
    lhs = P.inner(f, u)
    rhs = P.inner(P.dft(f), P.dft(u))
    print(f"pairing preserved under the transform: gap {abs(lhs - rhs):.3e}")

    spec = P.dft(f)
    xi = spec.grid.axis_points()
    peak = xi[np.argmax(np.abs(spec.values))]
    print(f"modulated packet spectrum peaks at xi = {peak:.3f} (modulation was 3.0)")

    ball = P.Ball((2.0,), 1.5)
    avg = np.mean(f.values[P.ball_indices(g, ball)])
    print(f"mean of the packet over B(2, 1.5): {avg.real:.4f} + {avg.imag:.4f}i")
    print(f"box mass of |f|^2: {P.lp_norm(f, 2.0) ** 2:.4f}")

    print()
    print("The transform pair is exactly unitary on the lattice, so operator")
    print("adjoints later in the suite are exact conjugate transposes.")


if __name__ == "__main__":
    main()
