"""The one ratio-family rule and the one trend rule of report.py."""

import math

import numpy as np
import pytest

from psdolab.report import ZERO_FLOOR, ratio_family, trend_criterion


def _names(criteria):
    return [c.name for c in criteria]


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
