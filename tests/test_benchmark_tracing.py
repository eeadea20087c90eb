"""The benchmark's span tracer registers every span BENCHMARK.json reads.

benchmarks/tracing.py wraps psdolab's public functions and class methods by
name, and benchmarks/run.py reads the declared per-layer metrics off those
span names.  A refactor that drops or clashes a traced name would otherwise
show only in a traced benchmark run, as a KeyError or a missing metric.
The test reads the benchmark files and changes none of them.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# per-layer metrics that run.py computes itself rather than reading one span
COMPUTED = {"grid.fft", "function_classes.family_index_cache", "report.write", "trace"}

# instrumenting rebinds psdolab in place, so it runs in a process of its own
_INSTRUMENT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import psdolab
from psdolab.experiments import VERIFY_TARGETS
from tracing import LAYER_MODULES, Tracer
tracer = Tracer()
tracer.instrument(psdolab, dict(VERIFY_TARGETS))
print(json.dumps({"names": tracer.names, "modules": list(LAYER_MODULES)}))
"""


def test_tracer_registers_every_declared_span():
    proc = subprocess.run(
        [sys.executable, "-c", _INSTRUMENT, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    spans -= COMPUTED | set(traced["modules"])
    assert "maximal.m_tilde_s" in spans
    assert sorted(spans - set(traced["names"])) == []
