"""Seeded config fuzzer: a config the gate accepts must run to a verdict.

Draws configs at random, each setting 1-5 keys of `config._KEYS` to values
drawn from the key's own parser and default, and runs `psdolab verify` on a
random target in-process.  Exit 2 or 3 is a refusal, 0 or 1 a verdict, and 4
an internal error: each exit 4 is printed with its config and the last frame
of its traceback.  Ends with the counts of draws and exit codes.

A new key is fuzzed without an edit here: list lengths and arities, the
choices of a choice key and the scale of a number come from `_KEYS`.  To keep
a run cheap, grid.n stays at most 2048, and at most 256 for the amplitude
symbol, whose cost grows with its terms.

Usage: python3 tools/fuzz_config.py [--seed S] [--seconds T].  Needs only
the standard library and psdolab's own dependencies; not part of the test
suite, since a useful run takes minutes.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import inspect
import io
import pathlib
import random
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from psdolab import config, experiments  # noqa: E402
from psdolab.cli import main  # noqa: E402

MAX_N, MAX_AMPLITUDE_N = 2048, 256


def _closure(parse) -> dict:
    return inspect.getclosurevars(parse).nonlocals if inspect.isfunction(parse) else {}


def _number(rng: random.Random, default: float, integer: bool):
    """Near the default, at its scale, or at a range end: 0, +-1, halves."""
    scale = abs(default) or 1.0
    pick = rng.random()
    if pick < 0.15:
        value = rng.choice([0.0, 1.0, -1.0, 0.5, 2.0, default])
    elif pick < 0.3 and integer and default >= 2 and int(default) & (int(default) - 1) == 0:
        value = 2 ** rng.randint(max(0, int(default).bit_length() - 6), int(default).bit_length())
    elif pick < 0.45:
        # just past a range end: 1 + 10^-k, or default (1 -+ 10^-k)
        tiny = 10.0 ** -rng.randint(1, 4)
        value = rng.choice([1.0 + tiny, 1.0 - tiny, default * (1.0 - tiny), default * (1 + tiny)])
    else:
        value = default + rng.uniform(-2.0, 2.0) * scale
    return int(round(value)) if integer else value


def _draw(rng: random.Random, key: str) -> str:
    """A value for key, drawn from its default text and its parser."""
    default, parse = config._KEYS[key]
    nonlocals = _closure(parse)
    if "allowed" in nonlocals:
        return rng.choice(list(nonlocals["allowed"]))
    if parse is config._as_bool:
        return rng.choice(["true", "false"])
    if "arity" in nonlocals:
        items = [t for t in default.split(",") if t.strip()]
        size = nonlocals["arity"] or rng.randint(1, len(items) + 1)
        element = nonlocals["parse"]
        base = [float(rng.choice(items)) for _ in range(size)]
        return ",".join(str(_number(rng, b, element is int)) for b in base)
    value = _number(rng, float(default), parse in (int, config._seed))
    return repr(value) if isinstance(value, float) else str(value)


def _cheap(entries: dict) -> dict:
    """grid.n capped so a run stays short."""
    cap = MAX_AMPLITUDE_N if entries.get("symbol.preset") == "oscillating_amplitude" else MAX_N
    if "grid.n" in entries:
        try:
            if int(entries["grid.n"]) > cap:
                entries["grid.n"] = str(cap)
        except ValueError:
            pass
    elif cap < int(config.DEFAULTS["grid.n"]):
        entries["grid.n"] = str(cap)
    return entries


def main_loop(seed: int, seconds: float) -> int:
    rng = random.Random(seed)
    keys = [k for k in config._KEYS if k != "run.out"]
    targets = sorted(experiments.VERIFY_TARGETS)
    last_frame = {}

    def recorded(fn):
        def run(cfg):
            try:
                return fn(cfg)
            except Exception as exc:
                last_frame["frame"] = traceback.extract_tb(exc.__traceback__)[-1]
                raise
        return run

    for name in targets:
        experiments.VERIFY_TARGETS[name] = recorded(experiments.VERIFY_TARGETS[name])

    codes, faults = collections.Counter(), 0
    deadline = time.monotonic() + seconds
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.cfg"
        while time.monotonic() < deadline:
            entries = _cheap({k: _draw(rng, k) for k in rng.sample(keys, rng.randint(1, 5))})
            target = rng.choice(targets)
            path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
            last_frame.clear()
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["verify", target, "--config", str(path), "--out", str(tmp)])
            codes[code] += 1
            if code == 4:
                faults += 1
                frame = last_frame.get("frame")
                where = f"{frame.filename}:{frame.lineno} in {frame.name}" if frame else "?"
                print(f"exit 4: verify {target} with {entries}")
                print(f"  {err.getvalue().strip()}\n  last frame: {where}")
    draws = sum(codes.values())
    print(f"seed {seed}: {draws} draws in {seconds:g} s; exit codes "
          + ", ".join(f"{c}: {codes[c]}" for c in sorted(codes)))
    return 1 if faults else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    sys.exit(main_loop(args.seed, args.seconds))
