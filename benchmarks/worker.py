"""One measured process of a benchmark workload, in a fresh interpreter.

`run.py` starts this script for every sample, so every sample pays the cold
start a `psdolab` invocation pays, and no in-process cache survives from one
sample to the next:

    python3 benchmarks/worker.py --workload default --seed 7 --out DIR \
        --t0 MONOTONIC [--targets a,b] [--probe | --trace] [--setup-only]

`--t0` is a `time.monotonic()` reading the parent takes just before it
starts the process; set-up time runs from there until psdolab is imported,
the config loaded and the grid built.  The process then runs the chosen
verify targets (all by default) in `VERIFY_TARGETS` order and writes each
report the way `psdolab.cli` does.  The last line of standard output is one
JSON object with the timings, verdicts and report digests, with `--probe`
the speed samples of `SpeedProbe`, and with `--trace` the span summary of
`tracing.Tracer`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# workload -> (config file relative to the repository root, overrides)
WORKLOADS = {
    "default": (None, {}),
    "fine": (None, {"grid.n": "2048"}),
    "rough": ("presets/rough_bounded.cfg", {}),
}


# The machine's speed changes by tens of percent from one process to the
# next and within seconds (other tenants share its cores), and all of
# psdolab's code slows together.  A job's worker therefore samples its own
# speed with a probe, a fixed mix of array and interpreter work, before,
# during and after its targets.  run.py scales the targets' time by
# (PROBE_REF_S / mean probe time) ** SPEED_EXPONENT: seconds at the speed at
# which one probe takes PROBE_REF_S.  The probe slows more than the targets
# do; the exponent was fitted on 45 worker processes of the six jobs on the
# 2-core machine of the baseline, where it cut the coefficient of variation
# of a job's time from 0.08-0.23 (raw) to 0.03-0.12.
PROBE_REPS = 2
PROBE_REF_S = 0.004
SPEED_EXPONENT = 0.7
PROBE_INTERVAL_S = 0.25
EDGE_PROBES = 10


class SpeedProbe:
    """Samples this process's speed around and during a measurement.

    While active, a SIGALRM timer runs one probe every PROBE_INTERVAL_S,
    between two bytecodes of whatever runs then; `spent` is the time those
    probes took, to be taken off the measurement.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 1024))
        self._idx = rng.integers(0, 1024, 20000)
        self.samples: list[float] = []
        self.spent = 0.0

    def probe(self) -> float:
        # the mix psdolab's time goes to: small array operations driven from
        # Python (ball masks, windows), scatter-max, dense phase blocks, FFTs
        # and plain interpreter work
        a, idx = self._a, self._idx
        x = a[0]
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            for c in a[1, :60]:
                np.flatnonzero(np.abs(x - c) <= 0.25)
            np.maximum.at(np.zeros(1024), idx, a[1][idx])
            np.exp(1j * a[:32]) @ x
            np.fft.ifft(np.fft.fft(a[:8], axis=1), axis=1)
            total = 0
            for i in range(1000):
                total += i % 7
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.spent += self.probe()

    def __enter__(self):
        for _ in range(EDGE_PROBES):
            self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_PROBES):
            self.probe()


def _digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def run_targets(cfg, targets: dict, emit) -> dict:
    """Run and write every target once; a target that raises is recorded."""
    rows = {}
    for name, runner in targets.items():
        start = time.perf_counter()
        try:
            report = runner(cfg)
            path = emit(report, cfg.out_dir)
        except Exception as exc:  # one failed target must not end the pass
            rows[name] = {
                "seconds": time.perf_counter() - start,
                "verdict": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
            continue
        rows[name] = {
            "seconds": time.perf_counter() - start,
            "verdict": report.verdict,
            "error": None,
            "path": path,
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    # the probe's timer would run inside traced spans
    measure = parser.add_mutually_exclusive_group()
    measure.add_argument("--trace", action="store_true")
    measure.add_argument("--probe", action="store_true",
                         help="sample this process's speed (see SpeedProbe)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--targets", default=None,
                        help="comma-separated subset of the verify targets, run in their usual order")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import psdolab
    from psdolab import cli, experiments, function_classes
    from psdolab.config import load_config

    config_path, overrides = WORKLOADS[args.workload]
    cfg = load_config(
        None if config_path is None else ROOT / config_path,
        {**overrides, "run.seed": args.seed, "run.out": args.out},
    )
    cfg.make_grid()
    setup_s = time.monotonic() - args.t0

    package_dir = Path(psdolab.__file__).resolve().parent
    if package_dir != ROOT / "src" / "psdolab":
        raise SystemExit(f"imported psdolab from {package_dir}, not from this checkout")
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    targets = experiments.VERIFY_TARGETS
    if args.targets is not None:
        chosen = set(args.targets.split(","))
        targets = {name: fn for name, fn in targets.items() if name in chosen}
    emit = cli._emit
    pass_fn = run_targets
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.instrument(psdolab, targets)
        emit = tracer.wrap("report.write", emit)
        pass_fn = tracer.wrap("bench.pass", run_targets)

    probe = SpeedProbe() if args.probe else contextlib.nullcontext()
    with probe:
        start = time.perf_counter()
        rows = pass_fn(cfg, targets, emit)
        wall_s = time.perf_counter() - start

    for row in rows.values():
        path = row.pop("path", None)
        if path is not None:
            json_path = Path(path)
            row["json_sha256"], json_bytes = _digest(json_path)
            row["csv_sha256"], csv_bytes = _digest(json_path.with_suffix(".csv"))
            row["bytes"] = json_bytes + csv_bytes
    cache = function_classes._family_indices.cache_info()
    result.update(
        wall_s=wall_s,
        targets=rows,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        family_index_cache={"hits": cache.hits, "misses": cache.misses},
        numpy=np.__version__,
        python=sys.version.split()[0],
    )
    if args.probe:
        result["speed"] = {
            "probe_s": sum(probe.samples) / len(probe.samples),
            "probes": len(probe.samples),
            "spent_s": probe.spent,
        }
    if tracer is not None:
        # the raw spans, for a reader who wants more than the summary
        with open(Path(args.out) / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
        result["trace"] = {
            "spans": tracer.summary(),
            "span_count": len(tracer.spans),
            "counters": tracer.counters,
            "distinct": {
                key: tracer.distinct_count(key)
                for key in ("grid.ball_mask", "operators.kernel_column")
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
