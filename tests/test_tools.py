"""The checked-in tools start and run: each in a child process whose working
directory and temporary files are a test's temporary directory.  The
census's line counts run in-process, on a small source text."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

from psdolab.config import DEFAULTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _census():
    return _tool("census")


def _run(tmp_path: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


def test_pair_bench_imports_what_it_reads_from_the_benchmark(tmp_path):
    """pair_bench.py imports JOBS, scaled_seconds, worker_env and WORKLOADS
    from benchmarks/ at module level, so --help fails if one is renamed."""
    done = _run(tmp_path, str(ROOT / "tools" / "pair_bench.py"), "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_pair_bench_refuses_checkout_paths_of_unequal_length(tmp_path):
    """Two checkouts whose resolved paths differ in length are refused with
    one error line and exit 2, before any worker runs."""
    for name in ("parent", "change1"):
        (tmp_path / name / "benchmarks").mkdir(parents=True)
        (tmp_path / name / "benchmarks" / "worker.py").write_text("raise SystemExit(9)\n")
    done = _run(tmp_path, str(ROOT / "tools" / "pair_bench.py"), "parent", "change1",
                "--workload", "fine", "--job", "maximal")
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "differ in length" in done.stderr


def test_a_short_seeded_fuzz_run_finds_no_internal_error(tmp_path):
    """fuzz_config.py at a fixed seed for 2 s draws configs, prints its count
    line and exits 0: no drawn config exits 4."""
    done = _run(tmp_path, str(ROOT / "tools" / "fuzz_config.py"), "--seed", "5", "--seconds", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "exit 4" not in done.stdout
    assert done.stdout.splitlines()[-1].startswith("seed 5: ")
    assert list(tmp_path.iterdir()) == []


def test_report_matrix_prints_one_line_per_seed_of_a_named_config(tmp_path):
    """report_matrix.py narrowed to `default` prints one line per seed, 3
    and 7: exit 0, a sha256 per report file and summary.json, and the sha256
    of stdout with the out dir masked, so two runs' stdout hashes agree
    though their out dirs differ.  An unknown config name exits 2."""
    done = _run(tmp_path, str(ROOT / "tools" / "report_matrix.py"), "default")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == ["default seed 3", "default seed 7"]
    fields = [line.split(": ", 1)[1].split(" ") for line in lines]
    for word, code, *files, _ in fields:
        assert (word, code) == ("exit", "0")
        names, digests = zip(*(entry.split("=") for entry in files))
        assert len(names) == 19 and "summary.json" in names
        assert {len(digest) for digest in digests} == {64}
    assert fields[0][-1] == fields[1][-1] and fields[0][-1].startswith("stdout=")
    assert list(tmp_path.iterdir()) == []
    refused = _run(tmp_path, str(ROOT / "tools" / "report_matrix.py"), "nope")
    assert refused.returncode == 2 and refused.stdout == ""


GRID_TEXT = '''"""Module doc,
over two lines."""

import numpy as np


# -----
# Windows: the layer.
# -----


def f(x):
    """One line."""
    # a comment
    return x


@dataclass
class BallFamily:
    pass
'''


def test_line_census_counts_code_lines_and_the_window_layer():
    """All lines and code lines (not blank, comment-only or docstring) of
    every text, and of grid.py's window layer: from the rule above
    `# Windows:` to the last line before BallFamily's decorator."""
    texts = {"grid.py": GRID_TEXT, "other.py": "x = 1\n\n# only a comment\n"}
    assert _census().line_census(texts) == {"src": (23, 7), "window layer": (11, 2)}


def test_census_configs_are_the_ledgers():
    """census.CONFIGS, which report_matrix.py runs too, names the ledger's
    configs in ledger order."""
    ledger = json.loads((ROOT / "presets" / "ledger.json").read_text())
    assert list(_census().CONFIGS) == [entry["name"] for entry in ledger]


def test_shadow_gaps_of_bmo_stay_within_double_rounding(tmp_path, monkeypatch):
    """tools/shadow.py runs bmo on the default config in double and in long
    double, each in its own child process.  Every report value's relative
    gap is at most c log2(N) u, with c = 4, u = 2^-53 the unit roundoff of
    double and N the grid size; the long-double run holds long-double values
    and differs from the double run, so it did run in long double; the
    verdicts agree, and the critical cover's index plan is the same in both
    precisions."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    shadow = _tool("shadow")
    n = int(DEFAULTS["grid.n"])
    rows, verdicts, same_plan = shadow.gaps("default", ["bmo"])
    bound = 4 * math.log2(n) * 2.0 ** -53
    assert rows and [row for row in rows if not row[4] <= bound] == []
    assert any(not double_only for *_, double_only in rows)
    assert max(row[4] for row in rows) > 0.0
    assert verdicts == []
    assert same_plan
