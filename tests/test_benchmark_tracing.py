"""The benchmark's span tracer registers every span the benchmark reads.

benchmarks/tracing.py wraps psdolab's public functions and class methods by
name.  benchmarks/run.py reads the declared per-layer metrics off those span
names, and the grid.fft metric off the grid.dft and grid.idft spans by name;
benchmarks/worker.py reads the family index cache's counts on every run.  A
refactor that drops or clashes a traced name, or a cache the worker reads,
would otherwise show only in a benchmark run, as a KeyError, an
AttributeError or a missing metric.  The test reads the benchmark files and
changes none of them.
"""

import ast
import json
import pathlib
import subprocess
import sys

from psdolab import function_classes

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
    read = _span_keys(ROOT / "benchmarks" / "run.py")
    assert {"grid.dft", "grid.idft"} <= read
    assert sorted(read - set(traced["names"])) == []


def _span_keys(path: pathlib.Path) -> set[str]:
    """The literal keys a script reads as spans["..."]."""
    return {node.slice.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "spans" and isinstance(node.slice, ast.Constant)}


def test_family_index_cache_reports_its_counts():
    """benchmarks/worker.py reads _family_indices.cache_info() on every run."""
    info = function_classes._family_indices.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
