import numpy as np
import pytest

import psdolab as P
from psdolab.operators import OperatorInstance


def full_scans(grid, centers, radius):
    """Brute force: the periodic distance test on every grid point, a
    (centers, n) mask with row i for B(centers[i], radius)."""
    d2 = grid.wrap(grid.axis_points() - np.asarray(centers, dtype=float)[:, None]) ** 2
    return d2 <= (radius * (1.0 + 1e-12)) ** 2


def full_scan(grid, ball):
    """The indices of full_scans for one ball.  The ball tests take it as
    the oracle for every ball index row."""
    return np.flatnonzero(full_scans(grid, ball.center, ball.radius)[0])


@pytest.fixture(scope="session")
def grid():
    return P.make_grid(1024, 16.0)


@pytest.fixture(scope="session")
def grid_small():
    return P.make_grid(256, 16.0)


@pytest.fixture(scope="session")
def lp(grid):
    return P.make_lp_family(grid)


@pytest.fixture(scope="session")
def bessel_op(grid):
    sym = P.preset_symbol("bessel_order_m", m=-0.75)
    return OperatorInstance(sym, grid)


@pytest.fixture(scope="session")
def packet(grid):
    return P.sample(grid, lambda x: np.exp(-0.5 * (x - 2.0) ** 2) * np.exp(1j * 3.0 * x))


@pytest.fixture(scope="session")
def window(grid):
    return P.sample(grid, lambda x: np.cos(0.7 * x) * np.exp(-0.1 * x ** 2))
