"""The checked-in tools start and run: each in a child process whose working
directory and temporary files are a test's temporary directory."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_a_short_seeded_fuzz_run_finds_no_internal_error(tmp_path):
    """fuzz_config.py at a fixed seed for 2 s draws configs, prints its count
    line and exits 0: no drawn config exits 4."""
    done = _run(tmp_path, str(ROOT / "tools" / "fuzz_config.py"), "--seed", "5", "--seconds", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "exit 4" not in done.stdout
    assert done.stdout.splitlines()[-1].startswith("seed 5: ")
    assert list(tmp_path.iterdir()) == []
