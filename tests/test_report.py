"""The one ratio rule, the one ratio-family rule, the one trend rule and the
writers of report.py."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdolab.report import (
    ZERO_FLOOR,
    bound_ratio,
    canonical_json,
    log2_floor,
    ratio_family,
    trend_criterion,
    write_csv,
)


def _names(criteria):
    return [c.name for c in criteria]


# (lhs, rhs, ratio): a positive right side, 0 / 0, lhs > 0 = rhs, and a NaN
# on either side
_BOUND_RATIOS = [(3.0, 2.0, 1.5), (0.0, 0.0, 0.0), (2.0, 0.0, math.inf),
                 (math.nan, 2.0, math.nan), (math.nan, 0.0, math.nan), (0.0, math.nan, math.nan),
                 (2.0, math.nan, math.nan)]


@pytest.mark.parametrize("lhs,rhs,expected", _BOUND_RATIOS)
def test_bound_ratio_of_floats(lhs, rhs, expected):
    """Floats give a Python float: lhs / rhs, or where the right side
    vanishes, 0 if the left side does and inf if not; NaN stays NaN."""
    got = bound_ratio(lhs, rhs)
    assert type(got) is float
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_bound_ratio_of_arrays_is_the_float_rule_elementwise():
    """Arrays broadcast, a (rows, J) left side against a (J,) right side,
    each entry as the float rule gives it, with no warning."""
    lhs, rhs, expected = (np.array(column) for column in zip(*_BOUND_RATIOS))
    with np.errstate(all="raise"):
        got = bound_ratio(np.stack([lhs, 2.0 * lhs]), rhs)
    assert got.shape == (2, len(_BOUND_RATIOS))
    np.testing.assert_array_equal(got[0], expected)
    np.testing.assert_array_equal(got[1], [bound_ratio(2.0 * a, b) for a, b in zip(lhs, rhs)])


def test_log2_floor_reads_a_vanishing_value_at_1e_300():
    """log2 of each value, a value under 1e-300 (0 included) read as 1e-300:
    a finite point, with no warning."""
    with np.errstate(all="raise"):
        got = log2_floor([0.0, 1e-320, 0.25, 8.0])
    np.testing.assert_array_equal(got, [np.log2(1e-300)] * 2 + [-2.0, 3.0])


def test_ratio_family_judges_the_spread_of_a_finite_family():
    agg, criteria = ratio_family("plain_", [1.0, 2.0, 3.0, 9.0], 4.0)
    assert agg == {"plain_max": 9.0, "plain_median": 2.5}
    assert _names(criteria) == ["plain_max_finite", "plain_max"]
    finite, spread = criteria
    assert finite.ok and finite.comparison == "<" and finite.threshold == math.inf
    assert (spread.value, spread.comparison, spread.threshold) == (9.0, "<=", 10.0)
    assert spread.bound == "4*plain_median" and spread.ok
    _, (_, tight) = ratio_family("", [1.0, 2.0, 3.0, 9.0], 3.5)
    assert tight.name == "max" and tight.bound == "3.5*median" and not tight.ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_or_inf_max_fails_max_finite(bad):
    agg, criteria = ratio_family("", [1.0, bad, 2.0], 4.0)
    assert math.isnan(agg["max"]) if math.isnan(bad) else agg["max"] == math.inf
    assert _names(criteria) == ["max_finite", "max"]
    assert not criteria[0].ok and not criteria[1].ok


@pytest.mark.parametrize("values", [[0.0, 0.0, 0.0], [1e-16, 3e-13, ZERO_FLOOR]])
def test_a_family_at_the_float_floor_is_a_zero_family_without_a_spread(values):
    """Every ratio at most 1e-12: the max is judged against that floor alone,
    so a spread among roundoff-sized ratios decides nothing."""
    agg, criteria = ratio_family("commutator_", values, 4.0)
    assert agg["commutator_max"] == max(values)
    assert _names(criteria) == ["commutator_max_finite", "zero_family"]
    zero = criteria[1]
    assert zero.ok and (zero.comparison, zero.threshold) == ("<=", ZERO_FLOOR)


def test_a_max_just_above_the_floor_is_judged_by_its_spread():
    _, criteria = ratio_family("", [1e-20, 1e-20, 2e-12], 4.0)
    assert _names(criteria) == ["max_finite", "max"] and not criteria[1].ok


def test_trend_fits_log2_ratio_against_log2_one_plus_shift():
    shifts = [0.0, 1.0, 3.0, 7.0]
    ratios = [(1.0 + s) ** 0.25 for s in shifts]
    slope, criteria = trend_criterion("series_trend", ratios, shifts, 0.1)
    assert slope == pytest.approx(0.25, abs=1e-12)
    (crit,) = criteria
    assert crit.name == "|series_trend|" and crit.comparison == "<=" and crit.threshold == 0.1
    assert crit.value == pytest.approx(0.25, abs=1e-12) and not crit.ok
    flat, (ok,) = trend_criterion("slope", [2.0] * 4, shifts, 0.1)
    assert abs(flat) < 1e-12 and ok.ok


@pytest.mark.parametrize("ratios,shifts", [
    ([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0]),        # two distinct shifts
    ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),             # one shift per ratio fails
    ([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0]),
    ([1.0, 0.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0]),        # a ratio at 0
    ([1.0, 2.0, -3.0, 4.0], [0.0, 1.0, 2.0, 3.0]),       # a negative ratio
])
def test_no_trend_without_three_shifts_one_per_ratio_and_positive_ratios(ratios, shifts):
    assert trend_criterion("slope", ratios, shifts, 0.1) == (None, [])


def test_no_trend_on_a_nan_ratio():
    assert trend_criterion("slope", [1.0, np.nan, 2.0], [0.0, 1.0, 2.0], 0.1) == (None, [])


def test_no_trend_when_an_item_carries_no_shift():
    """corpus.item_shift reads None for an item without a shift: no trend is
    fitted, not even on the other items' shifts."""
    ratios, shifts = [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0]
    assert trend_criterion("slope", ratios, shifts, 10.0)[0] is not None
    assert trend_criterion("slope", ratios, [*shifts[:3], None], 10.0) == (None, [])


# ---------------------------------------------------------------------------
# The writers: canonical_json is json.dumps(sort_keys=True, indent=2)'s text.
# ---------------------------------------------------------------------------

# every code point, surrogates and control characters too
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 2.2250738585072009e-308, 1e308])
_LEAVES = (st.none() | st.booleans() | st.integers(-(2**200), 2**200) | _FLOATS | _TEXT)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_canonical_json_is_the_text_of_json_dumps(doc):
    assert canonical_json(doc) == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, b"x", [1, {"k": np.bool_(True)}]])
def test_canonical_json_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        canonical_json(bad)


def test_canonical_json_refuses_a_non_str_key():
    """The one deliberate difference: json would write the key 1 as "1"."""
    assert json.dumps({1: "a"}, sort_keys=True, indent=2) == '{\n  "1": "a"\n}'
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_json({"nested": {1: "a"}})


def test_csv_writes_a_numpy_float_as_a_float(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("id", "key", "value"),
              [("x", "v", np.float64(0.1)), ("y", "v", 0.1), ("z", "count", 3)])
    assert path.read_text() == "id,key,value\nx,v,0.1\ny,v,0.1\nz,count,3\n"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) == 0.1
