"""Least-squares line fits and the sample median of the diagnostics."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["least_squares_line", "median", "r_squared"]


def least_squares_line(x, y) -> tuple[float, float, float]:
    """Fit y = slope*x + intercept; returns (slope, intercept, r_squared).

    The closed form from centred sums, each exactly rounded (math.fsum), so
    no CPU or LAPACK build moves it.  y is centred on its first value: the
    shift leaves the fit unchanged, and a constant series reads slope 0.0.
    """
    xs, ys = list(map(float, x)), list(map(float, y))
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = math.fsum(xs) / len(xs)
    dx = [v - x_mean for v in xs]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("need two distinct x values to fit a line")
    slope = math.fsum(d * (v - ys[0]) for d, v in zip(dx, ys)) / sxx
    intercept = math.fsum(ys) / len(ys) - slope * x_mean
    return slope, intercept, r_squared(xs, ys, slope, intercept)


def r_squared(x, y, slope: float, intercept: float) -> float:
    y = np.asarray(y)
    resid = y - (slope * np.asarray(x) + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-300:
        # constant data: a flat line is a perfect fit
        return 1.0 if ss_res <= 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot


def median(values) -> float:
    """Sample median, bit for bit as np.median, which imports numpy.ma.

    The middle value of the sorted sample, or (a + b) / 2 for the two middle
    values of an even one; NaN if the sample holds a NaN.
    """
    v = np.sort(np.ravel(values))
    if np.isnan(v[-1]):
        return float("nan")
    mid = v.size // 2
    if v.size % 2:
        return float(v[mid])
    return (float(v[mid - 1]) + float(v[mid])) / 2.0
