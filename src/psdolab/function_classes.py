"""Growth-tempered weight characteristics and weighted mean oscillation.

A weight w is tested against
    (int_B w)^(1/p) (int_B w^(-1/(p-1)))^(1/p') <= C |B| (1 + r_B)^theta
by sweeping a reproducible ball family and taking the sup of the left side
over |B| (1 + r_B)^theta.  Written with ball means instead of integrals the
|B| factor cancels exactly, so the unit weight scores exactly 1.

The oscillation norm is the sup over the family of
    mean_B |b - b_B| / (1 + r_B)^theta.

Finite boxes cannot certify membership asymptotics; the computable proxy is
stabilization of the running sup as the family's radius cap doubles.

A family is two float tuples, its centers and per-ball radii.  Each sup
runs per radius: the family's balls of one radius are one (balls x points)
index matrix (grid.ball_windows), so their means are one gather and a row
mean.  The first maximal ball in family order wins and is the one Ball
built, and the stabilization gate sweeps once, taking each cap's sup over
its balls.  A sweep at several exponents takes the log mean of w, which no
exponent changes, once, and one pass per exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import _cosine_sum
from .fitting import least_squares_line, median
from .grid import (
    Ball,
    BallFamily,
    PeriodicGrid,
    SampledFunction,
    _built_real,
    _check_exponent,
    _family_groups,
    _gathered,
    _log_mean,
    _oscillation,
    _per_ball,
    _slack,
    _weight_values,
    ball_indices,
    sweep_family,
)
from .report import (Criterion, VerificationReport, bound_ratio, log2_floor, spread_criterion,
                     zero_family)

__all__ = [
    "preset_weight",
    "preset_bmo",
    "ap_theta_characteristic",
    "bmo_theta_norm",
    "check_monotonicity",
    "check_john_nirenberg_variant",
    "stabilized_characteristic",
    "stabilization_criteria",
    "check_openness",
]

_JENSEN_SLACK = 0.05
# a stabilized sup moves less than this fraction per doubling of the cap
_STABLE_CHANGE = 0.10


@dataclass(frozen=True, eq=False)
class WeightFn:
    """A strictly positive real weight sampled on a grid."""

    fn: SampledFunction
    label: str

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.fn.values)):
            raise ValueError("weight values must be finite")
        # the checks of the one weight form: built real, strictly positive
        _weight_values(self.fn.values, self.grid)

    @property
    def grid(self) -> PeriodicGrid:
        return self.fn.grid

    @property
    def values(self) -> np.ndarray:
        return _built_real(self.fn.values)


@dataclass(frozen=True)
class ApThetaCharacteristic:
    """Sup of the normalized two-factor product over a ball family."""

    p: float
    theta: float
    value: float
    maximizing_ball: Ball


@dataclass(frozen=True)
class BmoThetaNorm:
    theta: float
    value: float
    maximizing_ball: Ball


def _torus_abs(grid: PeriodicGrid):
    """|x| as distance to the origin on the torus; equals |x| on [-L, L)."""
    return np.abs(grid.wrap(grid.axis_points()))


def preset_weight(
    name: str, grid: PeriodicGrid, gamma: float = 2.0, seed: int = 0
) -> WeightFn:
    """Named weights.

    unit                 w = 1
    power_growth         w = (1+|x|)^gamma
    exp_abs              w = e^|x|
    random_log_bounded   w = exp(u), u a seeded sum of 6 low cosines scaled to sup|u| = 1
    """
    if name == "unit":
        return WeightFn(SampledFunction(grid, np.ones_like(grid.axis_points())), "unit")
    if name == "power_growth":
        gamma = float(gamma)
        vals = (1.0 + _torus_abs(grid)) ** gamma
        return WeightFn(
            SampledFunction(grid, vals), f"power_growth(gamma={gamma:g})"
        )
    if name == "exp_abs":
        vals = np.exp(_torus_abs(grid))
        return WeightFn(SampledFunction(grid, vals), "exp_abs")
    if name == "random_log_bounded":
        seed = int(seed)
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(6):
            # per term, the mode is drawn first, then the phase, then the coefficient
            (k,) = rng.integers(1, 6, size=1)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            terms.append((k, rng.uniform(-1.0, 1.0), phase))
        vals = np.exp(_cosine_sum(grid, terms))
        return WeightFn(SampledFunction(grid, vals), f"random_log_bounded(seed={seed})")
    raise ValueError(f"unknown weight preset {name!r}")


def preset_bmo(name: str, grid: PeriodicGrid, value: float = 1.0) -> SampledFunction:
    """Named oscillation test functions.

    constant   b = value
    linear     b = x (a function of the line; use inside-only ball families,
               it jumps at the box seam)
    triangle   triangle wave of x with period 2L, sup 1
    """
    if name == "constant":
        return SampledFunction(grid, np.full_like(grid.axis_points(), float(value)))
    if name == "linear":
        return SampledFunction(grid, grid.axis_points())
    if name == "triangle":
        t = np.mod(grid.axis_points() / grid.half_length, 2.0)
        return SampledFunction(grid, 1.0 - 2.0 * np.abs(t - 1.0))
    raise ValueError(f"unknown bmo preset {name!r}")


def _check_growth(theta: float) -> None:
    """The class values divide by (1 + r)^theta, theta >= 0."""
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")


# the family's (positions, index matrix) groups, kept per (grid, family)
_family_indices = lru_cache(maxsize=16)(_family_groups)


def _damped(values, family: BallFamily, theta: float) -> list[float]:
    """Per ball of the family, its value over (1 + r)^theta: the growth the
    classes allow."""
    return [v / (1.0 + r) ** theta for v, r in zip(values, family.ball_radii)]


def _ap_theta_values(w: WeightFn, ps, theta: float, family: BallFamily,
                     log_w_means=None) -> tuple[list[list[float]], tuple[float, ...]]:
    """Per exponent p of ps, per ball in family order:
    mean(w)^(1/p) mean(w^(-1/(p-1)))^(1/p') / (1+r)^theta; and the per-ball
    log means of w, which no p changes: taken once, unless a caller that
    swept the weight before hands them in as log_w_means.

    Both means are taken in log space (grid._log_mean of a log w), so
    neither w^(-1/(p-1)) nor a large w can overflow or underflow: as p
    tends to 1 the product tends to the A_1 form mean(w) / min(w).  Each
    exponent's products are checked against Jensen's floor.
    """
    low_p = next((p for p in ps if not p > 1.0), None)
    if low_p is not None:
        raise ValueError(f"p must exceed 1 (dual exponent degenerates), got {low_p}")
    _check_growth(theta)
    if not family.centers:
        raise ValueError("empty ball family")
    log_w, groups = np.log(w.values.ravel()), _family_indices(w.grid, family)
    if log_w_means is None:
        log_w_means = tuple(_per_ball(log_w, groups, _log_mean))
    sweeps = []
    for p in ps:
        pprime = p / (p - 1.0)
        dual = _per_ball(-1.0 / (p - 1.0) * log_w, groups, _log_mean)
        raw = [math.exp(a / p + d / pprime) for a, d in zip(log_w_means, dual)]
        low = next((v for v in raw if v < 1.0 - _JENSEN_SLACK), None)
        if low is not None:
            raise ValueError(f"per-ball product {low} under the Jensen floor; weight data corrupt")
        sweeps.append(_damped(raw, family, theta))
    return sweeps, log_w_means


def ap_theta_characteristic(
    w: WeightFn, p: float, theta: float, family: BallFamily
) -> ApThetaCharacteristic:
    """Sup over the family of mean(w)^(1/p) mean(w^(-1/(p-1)))^(1/p') / (1+r)^theta."""
    (values,), _ = _ap_theta_values(w, (p,), theta, family)
    best, i = _first_max(values)
    return ApThetaCharacteristic(p, theta, best, family.ball(i))


def bmo_theta_norm(b: SampledFunction, theta: float, family: BallFamily) -> BmoThetaNorm:
    _check_growth(theta)
    osc = _per_ball(_built_real(b.values), _family_indices(b.grid, family), _oscillation)
    best, i = _first_max(_damped(osc, family, theta))
    return BmoThetaNorm(theta, best, family.ball(i))


def _first_max(values: list[float]) -> tuple[float, int]:
    """The sup of the values and the place of the first maximal one;
    Python's max passes over a NaN that does not come first."""
    best = max(values)
    return best, values.index(best)


def check_monotonicity(
    w: WeightFn, p: float, q: float, theta: float, family: BallFamily
) -> VerificationReport:
    """Characteristic at q never exceeds the one at p, for p <= q."""
    if not 1.0 < p <= q:
        raise ValueError(f"need 1 < p <= q, got p={p}, q={q}")
    (at_p, at_q), _ = _ap_theta_values(w, (p, q), theta, family)
    return _monotonicity(max(at_p), max(at_q))


def _monotonicity(char_p: float, char_q: float) -> VerificationReport:
    """check_monotonicity's report on the characteristics at p and q."""
    return VerificationReport(
        experiment="weight_monotonicity",
        items=[],
        aggregate={"max": max(char_p, char_q), "ratio_q_over_p": char_q / char_p},
        criteria=[Criterion("char_q", char_q, "<=", char_p * (1.0 + 1e-6),
                            "char_p*(1+1e-6)")],
    )


def check_john_nirenberg_variant(
    b: SampledFunction,
    theta: float,
    s: float,
    ball: Ball,
    k_range=range(1, 6),
    family: BallFamily | None = None,
) -> VerificationReport:
    """Ratios for the two s-moment oscillation bounds.

    Part (i), per ball in the family:
        (mean_B |b - b_B|^s)^(1/s) / (norm (1 + r_B)^theta).
    Part (ii), per k over dilates of the given base ball:
        (mean_{2^k B} |b - b_B|^s)^(1/s) / (norm k (1 + 2^k r_B)^theta),
    with b_B the base-ball mean.  Dilates that leave the box are skipped.

    Each ratio is report.bound_ratio's, so a zero norm reads 0/0 as 0.  A
    multiplier whose norm is at most 1e-12 is a zero family: every ratio
    would compare roundoff, so its one criterion is that norm floor.
    Otherwise the ratios must be finite, part (i) must stay within twice its
    median, and part (ii) must check a dilate if one was skipped.
    """
    _check_exponent("s", s)
    _check_growth(theta)
    grid = b.grid
    if family is None:
        family = sweep_family(grid, inside_only=True)
    flat = _built_real(b.values)
    # one centred gather per ball gives bmo_theta_norm's oscillation and the
    # s-moment
    osc, moments = _per_ball(flat, _family_indices(grid, family), _oscillation, s=(1.0, s))
    norm = max(_damped(osc, family, theta))
    items = []
    ratios_i = []
    for c, r, moment in zip(family.centers, family.ball_radii, moments):
        ratios_i.append(bound_ratio(moment ** (1.0 / s), norm * (1.0 + r) ** theta))
        items.append({"id": "part_i", "params": {"center": [c], "r": r}, "value": ratios_i[-1]})
    b_base = float(_gathered(flat, ball_indices(grid, ball)))
    ratios_ii = []
    skipped = 0
    for k in k_range:
        dil = ball.dilate(2.0**k)
        if not dil.fully_inside(grid):
            skipped += 1
            continue
        moment = _gathered(flat, ball_indices(grid, dil), _oscillation, s=s, center=b_base)
        ratios_ii.append(bound_ratio(float(moment ** (1.0 / s)),
                                     norm * k * (1.0 + dil.radius) ** theta))
        items.append({"id": "part_ii", "params": {"k": k}, "value": ratios_ii[-1]})
    med = median(ratios_i)
    # a multiplier whose oscillation norm sits at the float floor is a
    # constant: moment ratios against it compare roundoff
    zero = zero_family(norm)
    if zero.ok:
        criteria = [zero]
    else:
        criteria = [
            Criterion("ratio_max_finite", float(np.max(ratios_i + ratios_ii)), "<", np.inf),
            spread_criterion("part_i_max", max(ratios_i), 2.0, med, "median"),
            Criterion("part_ii_checked", len(ratios_ii), ">=", min(skipped, 1),
                      "1 if a dilate was skipped"),
        ]
    return VerificationReport(
        experiment="john_nirenberg_variant",
        items=items,
        aggregate={
            "max": max(ratios_i),
            "median": med,
            "part_ii_max": max(ratios_ii) if ratios_ii else 0.0,
            "skipped_dilates": skipped,
            "norm": norm,
        },
        criteria=criteria,
    )


@dataclass(frozen=True)
class StabilizationReport:
    """Running sup at nested radius caps and its relative changes over the
    last two doublings of the cap; stable iff both are under 10%."""

    caps: tuple[float, ...]
    values: tuple[float, ...]
    growth_slope: float
    changes: tuple[float, float]

    @property
    def stable(self) -> bool:
        return all(c < _STABLE_CHANGE for c in self.changes)


def stabilization_criteria(stab: StabilizationReport, name: str) -> list[Criterion]:
    """The two doubling changes of a stabilization sweep, as criteria under name."""
    return [Criterion(f"{name}.change_{i}", c, "<", _STABLE_CHANGE)
            for i, c in enumerate(stab.changes, 1)]


def _check_stabilization_radii(radii) -> None:
    if len(radii) < 4:
        raise ValueError("need at least 4 dyadic radii to judge stabilization")


def stabilized_characteristic(
    w: WeightFn, p: float, theta: float, family: BallFamily
) -> StabilizationReport:
    """Characteristic at nested caps; stable iff the last two doublings move < 10%."""
    _check_stabilization_radii(family.radii())
    (per_ball,), _ = _ap_theta_values(w, (p,), theta, family)
    return _stabilization(per_ball, family)


def _stabilization(per_ball, family: BallFamily) -> StabilizationReport:
    """stabilized_characteristic from one sweep of the whole family, its
    per-ball values: each cap's sup reads its balls' values.  The family
    has at least 4 radii, which stabilized_characteristic and the config
    gate check."""
    radii = family.radii()
    values = [max(v for v, r in zip(per_ball, family.ball_radii) if r <= limit)
              for limit in map(_slack, radii)]
    changes = (bound_ratio(abs(values[-2] - values[-3]), values[-3]),
               bound_ratio(abs(values[-1] - values[-2]), values[-2]))
    slope, _, _ = least_squares_line(np.log2(np.asarray(radii)), log2_floor(values))
    return StabilizationReport(radii, tuple(values), slope, changes)


def check_openness(w: WeightFn, p: float, theta: float, family: BallFamily) -> VerificationReport:
    """Exponent-drop probe: the characteristic at p - step stays stable.

    A_p^theta is open (w in A_p^theta gives w in A_(p-eps)^theta for some
    eps > 0), so any step that stays above 1 probes it: 0.1 where p - 0.1 > 1,
    else (p - 1) / 2, halfway to 1.
    """
    return _openness(stabilized_characteristic(w, _openness_exponent(p), theta, family))


def _openness_exponent(p: float) -> float:
    """The exponent below p that check_openness probes."""
    return p - (0.1 if p - 0.1 > 1.0 else (p - 1.0) / 2.0)


def _openness(below: StabilizationReport) -> VerificationReport:
    """check_openness's report on the stabilization at the lower exponent."""
    return VerificationReport(
        experiment="weight_openness",
        items=[],
        aggregate={"stable": below.stable, "growth_slope": below.growth_slope},
        criteria=stabilization_criteria(below, "openness"),
    )
