"""Long-double shadow of the nine verify targets: which report values are
roundoff, and which are the discretization's own.

Runs the nine targets of `psdolab report all` on one config twice, once in
double and once in long double, each in its own child process (`python3
tools/shadow.py --child PRECISION CONFIG [TARGET ...]`).  The long-double run
reaches the runners through a config subclass whose make_grid returns
PeriodicGrid(n, np.longdouble(l)); by the package's one precision rule
(grid._working) its samples, phases and spectra then run in long double.  The
two runs take separate processes because the two grids compare and hash
alike, so grid._plan and the other per-grid caches would hand one
precision's entries to the other.

Prints, per config and target, one line per numeric report value: its double
and long-double values, their relative gap |d - q| / max(|d|, |q|), and the
decimal digits both runs share.  A value the long-double run holds as a
Python float passed through a double-only step (a float(...) of an array,
fitting's line fits, report's statistics), and is marked "double-only": its
gap cannot fall below double rounding.  Then one line per target whose
verdict or deciding criterion differs, and whether the critical cover's
index plan (grid._cover_plan) is the same in both precisions.  Writes no
report file.

Usage: python3 tools/shadow.py [CONFIG ...], each CONFIG a name of
census.CONFIGS (the verdict ledger's configs); the default is "default"
and "identity_baseline".  Needs only the standard library and numpy.
Exits 2 on an unknown name, 1 when a cover plan differs, else 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from census import CONFIGS, ROOT  # noqa: E402

PRECISIONS = ("double", "long")
DEFAULT_CONFIGS = ("default", "identity_baseline")


def _leaves(obj, path: str = ""):
    """(path, value) of every numeric leaf of a report's JSON dict; an item
    is named by its id."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            name = value["id"] if isinstance(value, dict) and "id" in value else i
            yield from _leaves(value, f"{path}[{name}]")
    elif not isinstance(obj, (str, bool)) and obj is not None:
        yield path, obj


def cover_plan_digest(grid) -> str:
    """sha256 of every index array of the critical cover's plan on grid."""
    from psdolab.grid import _cover_plan, _plan
    from psdolab.maximal import build_critical_cover

    digest = hashlib.sha256()
    parts = list(_plan(_cover_plan, grid, build_critical_cover(grid).centers))
    while parts:
        part = parts.pop(0)
        if isinstance(part, tuple):
            parts[:0] = part
        else:
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def child(precision: str, name: str, targets: list[str]) -> dict:
    """The numeric report values of the targets (all nine when none are
    named) on the named config in one precision, each as (path, type name,
    text that parses back exactly), their verdicts and deciding criteria,
    and the cover plan's digest."""
    sys.path.insert(0, str(ROOT / "src"))
    from psdolab.config import ExperimentConfig, load_config
    from psdolab.experiments import VERIFY_TARGETS
    from psdolab.grid import PeriodicGrid

    class LongDoubleConfig(ExperimentConfig):
        def make_grid(self):
            return PeriodicGrid(self.get("grid.n"), np.longdouble(self.get("grid.l")))

    config = CONFIGS[name]
    cfg = load_config(None, config) if isinstance(config, dict) else load_config(config)
    if precision == "long":
        cfg = LongDoubleConfig(entries=cfg.entries)
    values, verdicts = {}, {}
    for target in targets or VERIFY_TARGETS:
        report = VERIFY_TARGETS[target](cfg)
        values[target] = [(path, type(v).__name__, str(v))
                          for path, v in _leaves(report.to_json_dict())]
        verdicts[target] = [report.verdict, getattr(report.decided_by, "name", None)]
    return {"values": values, "verdicts": verdicts,
            "cover_plan": cover_plan_digest(cfg.make_grid())}


def run_precision(precision: str, name: str, targets=()) -> dict:
    """child(precision, name, targets) in a fresh process."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, __file__, "--child", precision, name, *targets],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def relative_gap(double, long) -> float:
    """|d - q| / max(|d|, |q|): 0 when the two are equal (both NaN
    included), inf when only one is finite."""
    if double == long or (math.isnan(double) and math.isnan(long)):
        return 0.0
    if not (math.isfinite(double) and math.isfinite(long)):
        return math.inf
    return float(abs(double - long) / max(abs(double), abs(long)))


def shared_digits(gap: float) -> str:
    """The decimal digits two values with this relative gap share."""
    if gap == 0.0:
        return "all"
    return str(max(0, math.floor(-math.log10(gap)))) if math.isfinite(gap) else "0"


def gaps(name: str, targets=()) -> tuple[list, list, bool]:
    """Per numeric report value: (target, path, double value, long value,
    gap, double-only); the targets whose (verdict, decided_by) differ, as
    (target, double's, long's); whether the cover plans agree."""
    double, long = (run_precision(precision, name, targets) for precision in PRECISIONS)
    rows = []
    for target, listed in double["values"].items():
        long_values = {path: (kind, text) for path, kind, text in long["values"][target]}
        for path, _, text in listed:
            kind, long_text = long_values[path]
            d = np.longdouble(float(text))
            q = np.longdouble(long_text if kind == "longdouble" else float(long_text))
            rows.append((target, path, d, q, relative_gap(d, q), kind == "float"))
    verdicts = [(target, verdict, long["verdicts"][target])
                for target, verdict in double["verdicts"].items()
                if verdict != long["verdicts"][target]]
    return rows, verdicts, double["cover_plan"] == long["cover_plan"]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], argv[2], argv[3:])))
        return 0
    unknown = [name for name in argv if name not in CONFIGS]
    if unknown:
        print(f"unknown config {unknown[0]!r}; known: {', '.join(CONFIGS)}", file=sys.stderr)
        return 2
    same_plans = True
    for name in argv or DEFAULT_CONFIGS:
        rows, verdicts, same = gaps(name)
        for target, path, d, q, gap, double_only in rows:
            mark = "  double-only" if double_only else ""
            print(f"{name} | {target} {path}: double {float(d):.6g} long {float(q):.6g} "
                  f"gap {gap:.2e} digits {shared_digits(gap)}{mark}")
        for target, double, long in verdicts:
            print(f"{name} | {target} verdict: double {double} long {long}")
        print(f"{name} | cover plan: {'same' if same else 'DIFFERS'} in both precisions",
              flush=True)
        same_plans = same_plans and same
    return 0 if same_plans else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
