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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitting import least_squares_line
from .grid import (
    Ball,
    BallFamily,
    PeriodicGrid,
    SampledFunction,
    ball_indices,
    sample,
)
from .report import VerificationReport, config_hash

__all__ = [
    "WeightFn",
    "ApThetaCharacteristic",
    "BmoThetaNorm",
    "StabilizationReport",
    "preset_weight",
    "preset_bmo",
    "ap_theta_characteristic",
    "bmo_theta_norm",
    "check_monotonicity",
    "check_john_nirenberg_variant",
    "stabilized_characteristic",
    "check_openness",
]

_JENSEN_SLACK = 0.05


@dataclass(frozen=True, eq=False)
class WeightFn:
    """A strictly positive real weight sampled on a grid."""

    fn: SampledFunction
    label: str

    def __post_init__(self) -> None:
        vals = self.fn.values
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("weight values must be finite")
        if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError("weight must be real-valued")
        if np.min(vals.real) <= 0.0:
            raise ValueError("weight must be strictly positive")

    @property
    def grid(self) -> PeriodicGrid:
        return self.fn.grid

    @property
    def values(self) -> np.ndarray:
        return self.fn.values.real


@dataclass(frozen=True)
class ApThetaCharacteristic:
    """Sup of the normalized two-factor product over a ball family."""

    p: float
    theta: float
    value: float
    maximizing_ball: Ball
    family_descriptor: str


@dataclass(frozen=True)
class BmoThetaNorm:
    theta: float
    value: float
    maximizing_ball: Ball
    family_descriptor: str


def _torus_abs(grid: PeriodicGrid):
    """|x| as distance to the origin on the torus; equals |x| on [-L, L)."""
    meshes = grid.meshes()
    return np.sqrt(sum(grid.wrap(m) ** 2 for m in meshes))


def preset_weight(name: str, grid: PeriodicGrid, **params) -> WeightFn:
    """Named weights.

    unit                 w = 1
    power_growth         w = (1+|x|)^gamma
    exp_abs              w = e^|x|
    random_log_bounded   w = exp(u), u a seeded band-limited field, sup|u| <= amplitude
    """
    if name == "unit":
        return WeightFn(sample(grid, lambda *ax: np.ones(grid.shape)), "unit")
    if name == "power_growth":
        gamma = float(params.get("gamma", 2.0))
        vals = (1.0 + _torus_abs(grid)) ** gamma
        return WeightFn(
            SampledFunction(grid, vals), f"power_growth(gamma={gamma:g})"
        )
    if name == "exp_abs":
        vals = np.exp(_torus_abs(grid))
        return WeightFn(SampledFunction(grid, vals), "exp_abs")
    if name == "random_log_bounded":
        seed = int(params.get("seed", 0))
        amplitude = float(params.get("amplitude", 1.0))
        modes = int(params.get("modes", 6))
        rng = np.random.default_rng(seed)
        meshes = grid.meshes()
        u = np.zeros(grid.shape)
        base = np.pi / grid.half_length
        for _ in range(modes):
            ks = rng.integers(1, 6, size=grid.dim)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coef = rng.uniform(-1.0, 1.0)
            arg = sum(base * k * m for k, m in zip(ks, meshes))
            u = u + coef * np.cos(arg + phase)
        sup = float(np.max(np.abs(u)))
        if sup > 0:
            u = u * (amplitude / sup)
        return WeightFn(
            SampledFunction(grid, np.exp(u)), f"random_log_bounded(seed={seed})"
        )
    raise ValueError(f"unknown weight preset {name!r}")


def preset_bmo(name: str, grid: PeriodicGrid, **params) -> SampledFunction:
    """Named oscillation test functions.

    constant   b = value (default 1)
    linear     b = first coordinate (a function of the line; use inside-only
               ball families, it jumps at the box seam)
    triangle   periodic triangle wave of the first coordinate, sup 1
    """
    if name == "constant":
        value = float(params.get("value", 1.0))
        return SampledFunction(grid, np.full(grid.shape, value, dtype=complex))
    if name == "linear":
        return SampledFunction(grid, grid.meshes()[0].astype(complex))
    if name == "triangle":
        x = grid.meshes()[0]
        period = float(params.get("period", grid.half_length))
        t = np.mod(x / period, 2.0)
        return SampledFunction(grid, (1.0 - 2.0 * np.abs(t - 1.0)).astype(complex))
    raise ValueError(f"unknown bmo preset {name!r}")


@lru_cache(maxsize=16)
def _family_indices(grid: PeriodicGrid, family: BallFamily):
    """Flat grid indices per ball, computed once per (grid, family)."""
    out = []
    for ball in family.balls:
        idx = ball_indices(grid, ball)
        if len(idx) < 8:
            raise ValueError(
                f"ball {ball} contains {len(idx)} grid points, needs >= 8"
            )
        out.append(idx)
    return tuple(out)


def ap_theta_characteristic(
    w: WeightFn, p: float, theta: float, family: BallFamily
) -> ApThetaCharacteristic:
    """Sup over the family of mean(w)^(1/p) mean(w^(-1/(p-1)))^(1/p') / (1+r)^theta."""
    if not p > 1.0:
        raise ValueError(f"p must exceed 1 (dual exponent degenerates), got {p}")
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not family.balls:
        raise ValueError("empty ball family")
    pprime = p / (p - 1.0)
    flat = w.values.ravel()
    with np.errstate(over="ignore"):
        dual = flat ** (-1.0 / (p - 1.0))
    best, best_ball = -np.inf, family.balls[0]
    for ball, idx in zip(family.balls, _family_indices(w.grid, family)):
        raw = float(np.mean(flat[idx]) ** (1.0 / p) * np.mean(dual[idx]) ** (1.0 / pprime))
        if raw < 1.0 - _JENSEN_SLACK:
            raise ValueError(
                f"per-ball product {raw} under the Jensen floor; weight data corrupt"
            )
        val = raw / (1.0 + ball.radius) ** theta
        if val > best:
            best, best_ball = val, ball
    return ApThetaCharacteristic(p, theta, best, best_ball, family.descriptor)


def bmo_theta_norm(b: SampledFunction, theta: float, family: BallFamily) -> BmoThetaNorm:
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    flat = b.real_values().ravel()
    best, best_ball = -np.inf, family.balls[0]
    for ball, idx in zip(family.balls, _family_indices(b.grid, family)):
        vals = flat[idx]
        osc = float(np.mean(np.abs(vals - np.mean(vals))))
        val = osc / (1.0 + ball.radius) ** theta
        if val > best:
            best, best_ball = val, ball
    return BmoThetaNorm(theta, best, best_ball, family.descriptor)


def check_monotonicity(
    w: WeightFn, p: float, q: float, theta: float, family: BallFamily
) -> VerificationReport:
    """Characteristic at q never exceeds the one at p, for p <= q."""
    if not 1.0 < p <= q:
        raise ValueError(f"need 1 < p <= q, got p={p}, q={q}")
    cp = ap_theta_characteristic(w, p, theta, family)
    cq = ap_theta_characteristic(w, q, theta, family)
    ok = cq.value <= cp.value * (1.0 + 1e-6)
    cfg = config_hash(
        {"check": "monotonicity", "w": w.label, "p": p, "q": q, "theta": theta,
         "family": family.descriptor}
    )
    return VerificationReport(
        experiment="weight_monotonicity",
        config_hash=cfg,
        seed=0,
        items=[
            {"id": "char_p", "params": {"p": p, "theta": theta}, "value": cp.value},
            {"id": "char_q", "params": {"p": q, "theta": theta}, "value": cq.value},
        ],
        aggregate={"max": max(cp.value, cq.value), "ratio_q_over_p": cq.value / cp.value},
        verdict="pass" if ok else "fail",
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
    with b_B the base-ball mean.  The stated form of part (ii) carries the
    1/s power without the s inside; that literal ratio is recorded alongside
    under id part_ii_literal.  Dilates that leave the box are skipped.
    """
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    grid = b.grid
    if family is None:
        family = _default_inside_family(grid)
    norm = bmo_theta_norm(b, theta, family)
    flat = b.real_values().ravel()
    items = []
    ratios_i = []
    for fb, idx in zip(family.balls, _family_indices(grid, family)):
        vals = flat[idx]
        lhs = float(np.mean(np.abs(vals - np.mean(vals)) ** s) ** (1.0 / s))
        rhs = norm.value * (1.0 + fb.radius) ** theta
        if rhs == 0.0:
            continue
        ratios_i.append(lhs / rhs)
        items.append(
            {"id": "part_i", "params": {"center": list(fb.center), "r": fb.radius},
             "value": lhs / rhs}
        )
    base_idx = ball_indices(grid, ball)
    b_base = float(np.mean(flat[base_idx]))
    ratios_ii = []
    skipped = 0
    for k in k_range:
        dil = ball.dilate(2.0**k)
        if dil.radius > grid.half_length or not dil.fully_inside(grid):
            skipped += 1
            continue
        vals = flat[ball_indices(grid, dil)]
        rhs = norm.value * k * (1.0 + dil.radius) ** theta
        if rhs == 0.0:
            continue
        lhs_self = float(np.mean(np.abs(vals - b_base) ** s) ** (1.0 / s))
        lhs_literal = float(np.mean(np.abs(vals - b_base)) ** (1.0 / s))
        ratios_ii.append(lhs_self / rhs)
        items.append({"id": "part_ii", "params": {"k": k}, "value": lhs_self / rhs})
        items.append(
            {"id": "part_ii_literal", "params": {"k": k}, "value": lhs_literal / rhs}
        )
    finite = all(np.isfinite(r) for r in ratios_i + ratios_ii)
    med = float(np.median(ratios_i)) if ratios_i else 0.0
    stable = bool(ratios_i) and max(ratios_i) <= 2.0 * med
    verdict = "pass" if finite and stable and (ratios_ii or skipped == 0) else "fail"
    cfg = config_hash(
        {"check": "john_nirenberg", "theta": theta, "s": s, "r": ball.radius,
         "family": family.descriptor}
    )
    return VerificationReport(
        experiment="john_nirenberg_variant",
        config_hash=cfg,
        seed=0,
        items=items,
        aggregate={
            "max": max(ratios_i) if ratios_i else 0.0,
            "median": med,
            "part_ii_max": max(ratios_ii) if ratios_ii else 0.0,
            "skipped_dilates": skipped,
            "norm": norm.value,
        },
        verdict=verdict,
    )


def _default_inside_family(grid: PeriodicGrid) -> BallFamily:
    from .grid import sweep_family

    return sweep_family(grid, inside_only=True)


@dataclass(frozen=True)
class StabilizationReport:
    """Running sup at nested radius caps, with the doubling-change criterion."""

    caps: tuple[float, ...]
    values: tuple[float, ...]
    growth_slope: float
    stable: bool


def stabilized_characteristic(
    w: WeightFn, p: float, theta: float, family: BallFamily
) -> StabilizationReport:
    """Characteristic at nested caps; stable iff the last two doublings move < 10%."""
    radii = family.radii()
    if len(radii) < 4:
        raise ValueError("need at least 4 dyadic radii to judge stabilization")
    caps, values = [], []
    for cap in radii:
        sub = family.restricted(cap)
        caps.append(cap)
        values.append(ap_theta_characteristic(w, p, theta, sub).value)
    c1, c2 = (
        abs(values[-2] - values[-3]) / max(values[-3], 1e-300),
        abs(values[-1] - values[-2]) / max(values[-2], 1e-300),
    )
    slope, _, _ = least_squares_line(
        np.log2(np.asarray(caps)), np.log2(np.maximum(values, 1e-300))
    )
    return StabilizationReport(
        tuple(caps), tuple(values), slope, bool(c1 < 0.10 and c2 < 0.10)
    )


def check_openness(
    w: WeightFn, p: float, theta: float, family: BallFamily, step: float = 0.1
) -> VerificationReport:
    """Exponent-drop probe: the characteristic at p - step stays stable."""
    if not p - step > 1.0:
        raise ValueError(f"p - step must exceed 1, got {p - step}")
    below = stabilized_characteristic(w, p - step, theta, family)
    at_p = ap_theta_characteristic(w, p, theta, family)
    cfg = config_hash(
        {"check": "openness", "w": w.label, "p": p, "theta": theta, "step": step,
         "family": family.descriptor}
    )
    return VerificationReport(
        experiment="weight_openness",
        config_hash=cfg,
        seed=0,
        items=[
            {"id": "char_at_p", "params": {"p": p}, "value": at_p.value},
            {"id": "char_below", "params": {"p": p - step}, "value": below.values[-1]},
            {"id": "below_caps", "params": {"caps": list(below.caps)},
             "value": list(below.values)},
        ],
        aggregate={"stable": below.stable, "growth_slope": below.growth_slope},
        verdict="pass" if below.stable else "fail",
    )
