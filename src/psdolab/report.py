"""Report types shared across the library, the one verdict rule, the one
ratio and ratio-family rules, and deterministic serialization.

Checks hand over Criterion comparisons (value, comparison, threshold), never
a verdict.  A report's verdict is "hypothesis_unverified" if a gate is not
ok, otherwise "pass" iff every criterion is ok; its JSON records every gate
and criterion and names the one that decided, so the verdict can be
recomputed from the report alone.  JSON output is canonical (sorted keys,
fixed indentation, trailing newline): identical runs give identical bytes.
canonical_json writes that text directly, byte for byte the text of
json.dumps(sort_keys=True, indent=2), whose indent sends CPython's json to
its pure-Python encoder.

A bound lhs <= C rhs becomes a family of ratios, each taken by the one ratio
rule, bound_ratio, and judged by the one ratio-family rule, ratio_family: a
finite max, then a max at most ZERO_FLOOR (a zero family) or else within a
cap times the median; trend_criterion adds a flat translation trend where
the corpus marches toward the box edge.  Every growth fit reads its sups on
the one log floor, log2_floor.
"""

from __future__ import annotations

import csv
import hashlib
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

import numpy as np

from .fitting import least_squares_line, median

__all__ = [
    "Criterion",
    "DecayFitReport",
    "VerificationReport",
    "bound_ratio",
    "canonical_json",
    "config_hash",
    "log2_floor",
    "overall_verdict",
    "ratio_family",
    "spread_criterion",
    "trend_criterion",
    "write_csv",
    "write_json",
    "zero_family",
]


R2_FLOOR = 0.9
# a family of ratios, or a multiplier's oscillation norm, at most this is
# zero at the float floor: spread and trend statistics on roundoff say nothing
ZERO_FLOOR = 1e-12

_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}
_NEGATED = {"<": ">=", "<=": ">", "==": "!=", ">=": "<", ">": "<="}


@dataclass(frozen=True)
class Criterion:
    """One comparison a verdict rests on: ok iff value <comparison> threshold.

    bound spells the threshold as a formula of the report's numbers when it
    is not a constant, for example "4*plain_median".
    """

    name: str
    value: float
    comparison: str
    threshold: float
    bound: str = ""

    @property
    def ok(self) -> bool:
        return bool(_COMPARE[self.comparison](self.value, self.threshold))

    def to_dict(self) -> dict:
        # the fields, shallow: asdict would deep-copy each one
        return {**vars(self), "ok": self.ok}

    def __str__(self) -> str:
        op = self.comparison if self.ok else _NEGATED[self.comparison]
        bound = f"{self.bound} = " if self.bound else ""
        return f"{self.name} {self.value:.4g} {op} {bound}{self.threshold:.4g}"


def zero_family(value: float) -> Criterion:
    """The one zero-family rule: value at most ZERO_FLOOR."""
    return Criterion("zero_family", value, "<=", ZERO_FLOOR)


def spread_criterion(name: str, value: float, cap: float, median: float,
                     median_name: str) -> Criterion:
    """The one spread rule: value, a family's max, at most cap times its median."""
    return Criterion(name, value, "<=", cap * median, f"{cap:g}*{median_name}")


def bound_ratio(lhs, rhs):
    """The one ratio rule of a bound lhs <= C rhs: lhs / rhs where rhs > 0.
    Where the right side vanishes (rhs <= 0) the bound holds iff the left
    side does, so 0 / 0 is 0 and lhs / 0 is inf; a NaN on either side stays
    NaN.  Floats in give a float, and arrays (broadcast together) an array."""
    # a NaN rhs is not <= 0, so it takes the quotient, which is NaN
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rhs <= 0.0, np.where(lhs == 0.0, 0.0, lhs * np.inf), lhs / rhs)
    if not rhs <= 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else lhs * np.inf


def log2_floor(values):
    """The one log floor of a growth fit: log2 of the values, each raised to
    at least 1e-300, so a vanishing sup is a finite point far below the rest."""
    return np.log2(np.maximum(values, 1e-300))


def ratio_family(prefix: str, values, cap: float) -> tuple[dict, list[Criterion]]:
    """The one ratio-family rule: the aggregate {prefix}max and {prefix}median,
    and the criteria {prefix}max_finite, then zero_family if the max is at
    most ZERO_FLOOR, else the spread rule with cap.  The max is np.max, so a
    NaN ratio carries through and fails both criteria."""
    arr = np.asarray(values, dtype=float)
    top, mid = float(np.max(arr)), median(arr)
    zero = zero_family(top)
    last = zero if zero.ok else spread_criterion(f"{prefix}max", top, cap, mid,
                                                 f"{prefix}median")
    return ({f"{prefix}max": top, f"{prefix}median": mid},
            [Criterion(f"{prefix}max_finite", top, "<", np.inf), last])


def trend_criterion(key: str, ratios, shifts, bound: float
                    ) -> tuple[float | None, list[Criterion]]:
    """The one translation-trend rule: the slope of log2 ratio against
    log2(1 + shift), |slope| at most bound, named |key|.  Fitted only when
    there is one shift per ratio and none is None (corpus.item_shift of an
    item without one), at least 3 distinct shifts and every ratio is > 0;
    otherwise (None, [])."""
    arr = np.asarray(ratios, dtype=float)
    if None in shifts or len(set(shifts)) < 3 or len(shifts) != arr.size or not np.all(arr > 0):
        return None, []
    slope, _, _ = least_squares_line(np.log2(1.0 + np.asarray(shifts, dtype=float)),
                                     np.log2(arr))
    return slope, [Criterion(f"|{key}|", abs(slope), "<=", bound)]


@dataclass(frozen=True)
class DecayFitReport:
    """A log2-log2 line fit compared against a predicted exponent.

    criterion:
      "match"    pass iff |slope - expected| <= tolerance
      "at_most"  pass iff slope <= expected + tolerance
      "positive" pass iff slope > 0
      "negative" pass iff slope < 0
    Any fit with R^2 below 0.9 is inconclusive, never a pass.
    """

    regressor: str
    slope: float
    intercept: float
    r_squared: float
    expected_slope: float | None
    tolerance: float
    criterion: str = "match"
    points: tuple[tuple[float, float], ...] = ()

    def criteria(self, name: str = "fit") -> list[Criterion]:
        """The R^2 floor, then the slope criterion, named under name."""
        r2 = Criterion(f"{name}.r_squared", self.r_squared, ">=", R2_FLOOR)
        if self.criterion == "match":
            slope = Criterion(f"{name}.slope_error", abs(self.slope - self.expected_slope),
                              "<=", self.tolerance, "tolerance")
        elif self.criterion == "at_most":
            slope = Criterion(f"{name}.slope", self.slope, "<=",
                              self.expected_slope + self.tolerance, "expected + tolerance")
        elif self.criterion in ("positive", "negative"):
            slope = Criterion(f"{name}.slope", self.slope,
                              ">" if self.criterion == "positive" else "<", 0.0)
        else:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        return [r2, slope]

    @property
    def inconclusive(self) -> bool:
        return not self.criteria()[0].ok

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.criteria())

    @property
    def verdict(self) -> str:
        if self.inconclusive:
            return "inconclusive"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {**vars(self), "points": [list(p) for p in self.points],
                "verdict": self.verdict}


@dataclass
class VerificationReport:
    """Raw per-item numbers, the gates and criteria, and the verdict derived
    from them.  Only a runner's report carries a config hash and seed."""

    experiment: str
    items: list[dict]
    aggregate: dict
    criteria: list[Criterion]
    gates: list[Criterion] = field(default_factory=list)
    config_hash: str | None = None
    seed: int | None = None

    @property
    def decided_by(self) -> Criterion | None:
        """The first gate, else the first criterion, that is not ok."""
        return next((c for c in (*self.gates, *self.criteria) if not c.ok), None)

    @property
    def verdict(self) -> str:
        if not all(g.ok for g in self.gates):
            return "hypothesis_unverified"
        return "pass" if all(c.ok for c in self.criteria) else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        decided = self.decided_by
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "items": self.items,
            "aggregate": self.aggregate,
            "criteria": {"gates": [g.to_dict() for g in self.gates],
                         "criteria": [c.to_dict() for c in self.criteria]},
            "decided_by": None if decided is None else decided.name,
            "verdict": self.verdict,
        }


def overall_verdict(reports: Iterable[VerificationReport]) -> str:
    """The verdict of a set of reports: pass iff every report passes."""
    return "pass" if all(r.passed for r in reports) else "fail"


def config_hash(entries: dict) -> str:
    text = "\n".join(f"{k}={entries[k]}" for k in sorted(entries))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_FLOAT_NAMES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _json_text(obj, indent: str, out: list) -> None:
    """Append obj's JSON text to out, its nested lines indented by two
    spaces more than indent, keys sorted: the text of json.dumps(obj,
    sort_keys=True, indent=2), except that a dict key must be a str."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append("NaN" if obj != obj else _FLOAT_NAMES.get(obj) or float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _json_text(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_text(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> bytes:
    """The one JSON form of reports and summary.json: sorted keys, indent 2,
    trailing newline; the bytes of json.dumps(obj, sort_keys=True, indent=2)
    plus a newline.  Where json would convert a non-str dict key, this
    refuses it (TypeError): no report has one, and a converted key could
    collide with a str key."""
    out: list = []
    _json_text(obj, "", out)
    out.append("\n")
    return "".join(out).encode()


def write_json(obj, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json(obj))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """csv.writer writes every float, numpy's float64 too, by float's repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
