import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from psdolab.fitting import median

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
