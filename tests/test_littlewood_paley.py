import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdolab as P
from psdolab.fitting import least_squares_line
from psdolab.littlewood_paley import bump_profile, smooth_step


def test_smooth_step_endpoints():
    vals = smooth_step(np.array([-0.5, 0.0, 0.5, 1.0, 2.0]))
    assert vals[0] == 0.0
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(0.5)
    assert vals[3] == 1.0
    assert vals[4] == 1.0


def test_bump_profile_plateau_and_support():
    r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    v = bump_profile(r)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
    assert v[3] == 0.0 and v[4] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), st.floats(4.0, 64.0))
def test_partition_sums_to_one_exactly(n, half_length):
    # telescoping construction: the pieces sum to 1 with no roundoff left
    lp = P.make_lp_family(P.make_grid(n, half_length))
    assert P.evaluate_partition_residual(lp) == 0.0


def test_piece_supports_are_dyadic_shells(lp):
    r = np.linspace(0.0, 100.0, 4001)
    for k in range(1, lp.piece_count):
        v = lp.piece_profile(k, r)
        live = r[np.abs(v) > 0]
        assert live.min() >= 2.0 ** (k - 1)
        assert live.max() <= 2.0 ** (k + 1)
    v0 = lp.piece_profile(0, r)
    assert np.all(v0[r > 2.0] == 0.0)
    assert np.all(v0[r <= 1.0] == 1.0)


def test_family_max_index_covers_nyquist(grid, lp):
    assert 2.0 ** lp.max_index >= grid.xi_max
    assert lp.max_index == 7


def test_partial_sum_is_dilated_profile(lp):
    r = np.linspace(0.0, 40.0, 801)
    total = np.zeros_like(r)
    for k in range(0, 4):
        total += lp.piece_profile(k, r)
    assert np.max(np.abs(total - bump_profile(r / 8.0))) < 1e-12


@pytest.mark.parametrize("alpha,scaled_sup", [(1, 4.0), (2, 39.3623), (3, 884.276)])
def test_derivative_bounds_scale_dyadically(lp, alpha, scaled_sup):
    """sup |d^alpha phi_k| ~ 2^(-k alpha).  Each piece is sampled on its own
    dilated window [0, 2^(k+1)] with a fixed point count, so the finite
    differences resolve every piece alike; on the lattice the coarse pieces
    are under-resolved and their glue derivatives read low."""
    raw = []
    for k in range(lp.piece_count):
        xi = np.linspace(0.0, 2.0 ** (k + 1), 4096)
        d = lp.piece_profile(k, xi)
        for _ in range(alpha):
            d = np.gradient(d, xi[1] - xi[0], edge_order=2)
        raw.append(float(np.max(np.abs(d))))
    scaled = [sup * 2.0 ** (k * alpha) for k, sup in enumerate(raw)]
    slope, _, _ = least_squares_line(np.arange(1, lp.piece_count), np.log2(raw[1:]))
    assert slope == pytest.approx(-float(alpha), abs=1e-9)
    assert max(scaled) <= 2.0 * scaled[1]
    assert max(scaled) == pytest.approx(scaled_sup, rel=1e-3)
