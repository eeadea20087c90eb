"""psdolab benchmark: cold-process time to verdict, per target and per layer.

    python3 benchmarks/run.py --workload default --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; it needs `src/`,
`presets/`, `BENCHMARK.json` and this directory, and writes only under
`.bench_out/` at the repository root.

Every measurement is a fresh `python3 benchmarks/worker.py` process.  With
`--trace 0` the run repeats six jobs round-robin, each one process running
one target (or the four light targets) the way `psdolab verify` does, until
each job has MAX_SAMPLES samples or has taken `--seconds`/4 of wall time, and
reports medians scaled to a reference machine speed (see worker.SpeedProbe).
With `--trace 1` it runs one plain and one traced process, each running all
nine targets as `psdolab report all` does, and reports the per-layer metrics
of the traced one.  Every target run is checked: it must not raise, its
verdict must equal the one `expected.json` records for the workload and run
seed, and its report bytes must equal those of every other run of the same
code, workload and run seed.  The run seed, passed to psdolab as `run.seed`,
is `--seed` modulo the number of seeds `expected.json` records verdicts for,
used as an index into that list.

Standard output: the environment record, each metric with its unit, then
as the last line one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_MODULES
from worker import PROBE_REF_S, SPEED_EXPONENT, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Each job is one `psdolab verify`-style process.  The four targets of tens
# of milliseconds each share one process and are timed as one sum.
JOBS = {
    "kernel-decay": ("kernel-decay",),
    "light": ("weights", "bmo", "theorem13a", "theorem13b"),
    "maximal": ("maximal",),
    "fs": ("fs",),
    "lemma41": ("lemma41",),
    "lemma42": ("lemma42",),
}
# a job is repeated until it has this many samples or its processes have
# taken --seconds/4 of wall time
MAX_SAMPLES = 4
# a run must end within 180 s; no process starts that is expected to end later
DEADLINE_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    """The caller's environment with one BLAS thread: one caller, one core.

    The speed probe in worker.py runs on one core, so a second BLAS thread
    would make the scaled time depend on how busy the other core is.
    """
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def spawn(args, env: dict, deadline: float, out_dir: Path, *flags: str):
    """Run one worker process; its JSON result, or None if it failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.run_seed),
        "--out", str(out_dir), "--t0", repr(t0), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        print(f"worker {' '.join(flags)} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker {' '.join(flags)} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def code_sha() -> str:
    """Digest of the package sources and presets: the code version."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/psdolab/*.py"), *ROOT.glob("presets/*.cfg")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class OutputCheck:
    """Counts target runs and those that raised, changed verdict or bytes."""

    def __init__(self, expected: dict, reference: dict):
        self.expected = expected
        self.reference = reference  # target -> digests; filled by first pass
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, result, label: str, targets) -> None:
        if result is None:
            self.attempted += len(targets)
            self.failures += [f"{label}: process did not complete"] * len(targets)
            return
        for target in targets:
            want = self.expected[target]
            self.attempted += 1
            row = result["targets"].get(target)
            if row is None or row["error"] is not None:
                self.failures.append(f"{label} {target}: {row and row['error']}")
                continue
            if row["verdict"] != want:
                self.failures.append(f"{label} {target}: verdict {row['verdict']}, expected {want}")
                continue
            digests = [row["json_sha256"], row["csv_sha256"]]
            if self.reference.setdefault(target, digests) != digests:
                self.failures.append(f"{label} {target}: report bytes differ from an earlier run")


def load_reference(key: str) -> dict:
    try:
        return json.loads((OUT / "digests.json").read_text()).get(key, {})
    except (OSError, ValueError):
        return {}


def save_reference(key: str, reference: dict) -> None:
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    known[key] = reference
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def scaled_seconds(result: dict) -> float:
    """A job's target time, without its probes, at the reference speed."""
    speed = result["speed"]
    seconds = result["wall_s"] - speed["spent_s"]
    return seconds * (PROBE_REF_S / speed["probe_s"]) ** SPEED_EXPONENT


def end_to_end_metrics(setups: list[float], samples: dict) -> dict:
    """Medians over the samples of each job; wall_s is their sum."""
    med = statistics.median
    job_s = {
        job: med([scaled_seconds(r) for r in results])
        for job, results in samples.items()
    }
    metrics = {
        "setup_s": med(setups),
        "wall_s": sum(job_s.values()),
        "peak_rss_mb": max(med([r["peak_rss_mb"] for r in results]) for results in samples.values()),
    }
    for job, seconds in job_s.items():
        metrics[f"target.{job}_s"] = seconds
    return metrics


def layer_metrics(traced: dict, plain_wall_s: float) -> dict:
    trace = traced["trace"]
    spans = trace["spans"]
    metrics = {}
    for name, row in spans.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for module in LAYER_MODULES:
        metrics[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in spans.items() if name.split(".")[0] == module
        )
    fft = (spans["grid.dft"], spans["grid.idft"])
    metrics["grid.fft.calls"] = sum(row["calls"] for row in fft)
    metrics["grid.fft.self_s"] = sum(row["self_s"] for row in fft)
    # waste ratios: distinct arguments over calls (1.0 means no repeats)
    for name, distinct in trace["distinct"].items():
        calls = spans[name]["calls"]
        metrics[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
    # computed work counts
    metrics["grid.ball_mask.points_scanned"] = trace["counters"].get(
        "grid.ball_mask.points_scanned", 0)
    metrics["operators.kernel_column.phase_evals"] = trace["counters"].get(
        "operators.kernel_column.phase_evals", 0)
    metrics["report.write.bytes"] = sum(row.get("bytes", 0) for row in traced["targets"].values())
    cache = traced["family_index_cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics["function_classes.family_index_cache.hits"] = cache["hits"]
    metrics["function_classes.family_index_cache.misses"] = cache["misses"]
    metrics["function_classes.family_index_cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0)
    wall = traced["wall_s"]
    accounted = sum(row["self_s"] for name, row in spans.items() if name != "bench.pass")
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain_wall_s
    metrics["trace.accounted_share"] = accounted / wall
    metrics["trace.spans"] = trace["span_count"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="psdolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    needed = [ROOT / "src" / "psdolab" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / cfg for cfg, _ in WORKLOADS.values() if cfg is not None]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a psdolab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # verdicts are recorded per run seed: some depend on the random corpora
    # of `fs` and `lemma42` (see README.md, "Recorded verdicts")
    recorded = json.loads((BENCH / "expected.json").read_text())
    run_seeds = recorded["run_seeds"]
    args.run_seed = run_seeds[args.seed % len(run_seeds)]
    expected = recorded["verdicts"][args.workload][str(args.run_seed)]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    run_dir = OUT / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    version = code_sha()
    ref_key = f"{version}:{args.workload}:{args.run_seed}"
    check = OutputCheck(expected, load_reference(ref_key))

    all_targets = tuple(expected)
    if args.trace:
        plain = spawn(args, env, deadline, run_dir / "plain")
        check.check(plain, "plain pass", all_targets)
        traced = spawn(args, env, deadline, run_dir / "traced", "--trace")
        check.check(traced, "traced pass", all_targets)
        if plain is None or traced is None:
            print("error: no completed plain and traced pass to compare", file=sys.stderr)
            return 1
        metrics = layer_metrics(traced, plain["wall_s"])
        first, counts = plain, {"plain": 1, "traced": 1}
        raw_samples = {"plain": plain["wall_s"], "traced": traced["wall_s"]}
    else:
        # the first start compiles bytecode and warms the file cache
        spawn(args, env, deadline, run_dir / "warmup", "--setup-only")
        samples = {job: [] for job in JOBS}
        finished, setups = set(), []
        spent = dict.fromkeys(JOBS, 0.0)
        while len(finished) < len(JOBS):
            for job, results in samples.items():
                if job in finished:
                    continue
                began = time.monotonic()
                result = spawn(args, env, deadline, run_dir / job,
                               "--probe", "--targets", ",".join(JOBS[job]))
                took = time.monotonic() - began
                spent[job] += took
                check.check(result, job, JOBS[job])
                if result is not None:
                    result["began"] = began - start
                    results.append(result)
                    setups.append(result["setup_s"])
                if (
                    result is None
                    or len(results) >= MAX_SAMPLES
                    or spent[job] >= args.seconds / 4
                    or time.monotonic() + 1.25 * took > deadline
                ):
                    finished.add(job)
        if not all(samples.values()):
            print("error: a job never completed", file=sys.stderr)
            return 1
        metrics = end_to_end_metrics(setups, samples)
        first, counts = samples["lemma42"][0], {job: len(r) for job, r in samples.items()}
        raw_samples = {
            job: [
                {"began": r["began"], "seconds": r["wall_s"], "speed": r["speed"]}
                for r in results
            ]
            for job, results in samples.items()
        }

    if not check.failures:
        save_reference(ref_key, check.reference)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seed": args.run_seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "code_sha256": version,
        "numpy": first["numpy"],
        "python": first["python"],
        "nproc": nproc,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "samples": counts,
    }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    out_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
    }
    record = {
        "environment": environment,
        "failures": check.failures,
        "metrics": out_metrics,
        "samples": raw_samples,
    }
    suffix = "-trace" if args.trace else ""
    (OUT / f"result-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(environment, sort_keys=True))
    for failure in check.failures:
        print(f"FAILED {failure}")
    for name, m in out_metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    failed = len(check.failures)
    print(f"{'ops_failed':<48} {failed / check.attempted:>16.6g} "
          f"ratio ({failed} of {check.attempted} target runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
