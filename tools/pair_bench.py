"""Paired benchmark of one job: two checkouts, alternating cold processes.

Runs `benchmarks/worker.py --probe --targets ...` of one benchmark job in a
fresh process for each checkout in turn, PARENT first in even pairs and
CHANGE first in odd ones, so a drift of the machine's speed falls on both
sides alike.  Each time is the job's time without its probes, scaled to the
reference speed the way `benchmarks/run.py` scales it (`scaled_seconds`,
from the worker's PROBE_REF_S and SPEED_EXPONENT).  Prints every pair, each
side's median and quartiles, the pairs the change won, and whether a gain
can be claimed: the change wins at least 9 pairs in 10 and the medians
differ by more than the parent's interquartile range.  It also checks that
both sides wrote the same report bytes.

Usage: python3 tools/pair_bench.py PARENT CHANGE --workload W --job J
[--pairs N] [--seed S].  PARENT and CHANGE are checkouts of the repository;
the workload, job and run seed mean what they mean to `benchmarks/run.py`.
Standard library only; it reads `benchmarks/` of this checkout and writes
only to a temporary directory.  Not part of the test suite: a useful run
takes minutes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from run import JOBS, scaled_seconds, worker_env  # noqa: E402
from worker import WORKLOADS  # noqa: E402

# a gain is claimed when the change wins at least this share of the pairs
WIN_SHARE = 0.9


def run_job(checkout: pathlib.Path, args, out_dir: pathlib.Path, *flags: str) -> dict:
    """One cold worker process of checkout; its JSON result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(checkout / "benchmarks" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.run_seed),
           "--out", str(out_dir), "--t0", repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, cwd=checkout, env=worker_env(), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker of {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(result: dict) -> dict:
    """Per target, its verdict, error and report digests."""
    return {name: (row["verdict"], row["error"], row.get("json_sha256"), row.get("csv_sha256"))
            for name, row in result["targets"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--job", required=True, choices=sorted(JOBS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    run_seeds = json.loads((ROOT / "benchmarks" / "expected.json").read_text())["run_seeds"]
    args.run_seed = run_seeds[args.seed % len(run_seeds)]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "benchmarks" / "worker.py").is_file():
            parser.error(f"{checkout} is not a checkout with benchmarks/worker.py")

    flags = ("--probe", "--targets", ",".join(JOBS[args.job]))
    times = {side: [] for side in sides}
    reports = {}
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="pair_bench_"))
    try:
        # the first start of each side warms the file cache
        for side, checkout in sides.items():
            run_job(checkout, args, tmp / side, "--setup-only")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_job(sides[side], args, tmp / side, *flags)
                times[side].append(scaled_seconds(result))
                reports.setdefault(side, digests(result))
            print(f"pair {i + 1:2d} ({order[0]} first): parent {times['parent'][-1]:.4f} s, "
                  f"change {times['change'][-1]:.4f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for side, values in times.items():
        q1, med, q3 = quartiles(values)
        print(f"{side:6s} median {med:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, "
              f"range {min(values):.4f}-{max(values):.4f} s")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    p1, parent_med, p3 = quartiles(times["parent"])
    change_med = quartiles(times["change"])[1]
    gap = parent_med - change_med
    print(f"change wins {wins} of {args.pairs} pairs; median gap {gap * 1e3:+.2f} ms "
          f"({gap / parent_med:+.1%}), parent IQR {(p3 - p1) * 1e3:.2f} ms")
    holds = wins >= WIN_SHARE * args.pairs and gap > p3 - p1
    print(f"gain rule (>= {WIN_SHARE:.0%} wins, gap > parent IQR): "
          f"{'holds' if holds else 'does not hold'}")
    same = reports["parent"] == reports["change"]
    print(f"reports: {'same verdicts and bytes' if same else 'DIFFER'} on both sides")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
