import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from psdolab.fitting import least_squares_line, median

# a small pool makes repeated values and signed infinities common
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1.0, -2.5, 1e308, np.inf, -np.inf]),
    st.just(np.nan),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_values, min_size=1, max_size=60))
def test_median_matches_numpy(sample):
    """Odd and even sizes, repeats, +-inf and NaN: the value np.median gives."""
    with np.errstate(all="ignore"):
        expected = np.median(np.array(sample))
    got = median(sample)
    assert got == expected or (np.isnan(got) and np.isnan(expected))


_U = np.finfo(float).eps / 2


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(-1e6, 1e6))
def test_line_fit_matches_the_long_double_closed_form(size, seed, level):
    """Slope and intercept against the long-double normal equations.  With
    x centred on its rounded mean x_bar and y on y_0, each product and
    exactly rounded sum is off by a few u, so the slope is within
    8 u (sum |dx| |y - y_0| + |x_bar| |sum (y - y_0)|) / sum dx^2 and the
    intercept within 4 u |y|_max + |x_bar| times that.  A constant series
    reads slope exactly 0.0."""
    rng = np.random.default_rng(seed)
    x = np.unique(rng.uniform(-10.0, 10.0, size) * 10.0 ** rng.integers(-3, 4))
    if x.size < 2:
        return
    y = level + rng.standard_normal() * x + rng.standard_normal(x.size)
    slope, intercept, _ = least_squares_line(x, y)
    xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
    dx = xl - xl.mean()
    exact = np.sum(dx * (yl - yl.mean())) / np.sum(dx * dx)
    shifted = np.abs(yl - yl[0])
    slope_bound = 8 * _U * (np.sum(np.abs(dx) * shifted)
                            + abs(xl.mean()) * np.sum(shifted)) / np.sum(dx * dx)
    assert abs(slope - exact) <= slope_bound
    intercept_bound = 4 * _U * np.max(np.abs(yl)) + abs(xl.mean()) * slope_bound
    assert abs(intercept - (yl.mean() - exact * xl.mean())) <= intercept_bound
    flat, _, _ = least_squares_line(x, np.full(x.size, level))
    assert flat == 0.0
