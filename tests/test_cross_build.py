"""Report bytes across numeric builds: `report all` on `default` and on the
`rough_bounded` preset in child processes, each setting made only in its
own child's environment.

No report value goes through BLAS, so another OpenBLAS core type or thread
count leaves every byte in place.  numpy picks its loops by CPU at run
time, so with its AVX-512 loops off values may move in their last digits,
but no verdict, `decided_by` or `summary.json` does.  On a machine without
these CPU features or without OpenBLAS the settings change nothing, and
both comparisons still hold.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the settings this test makes, cleared from every child's inherited environment
_SETTINGS = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")


def _report_all(tmp_path: pathlib.Path, name: str, config: tuple[str, ...], **settings: str):
    """`psdolab report all` with the config arguments and settings in the
    child's environment: (exit code, stdout, {file name: bytes} of its
    reports)."""
    env = {k: v for k, v in os.environ.items() if k not in _SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(settings)
    cwd = tmp_path / name
    cwd.mkdir()
    # one relative --out for every child, so the summary line reads the same
    proc = subprocess.run([sys.executable, "-m", "psdolab.cli", "report", "all", "--out", "out",
                           *config],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 1), proc.stderr[-2000:]
    files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
    return proc.returncode, proc.stdout, files


def _verdicts(files: dict[str, bytes]) -> dict[str, tuple]:
    """(verdict, decided_by) of each JSON report."""
    out = {}
    for name, data in files.items():
        if name.endswith(".json") and name != "summary.json":
            report = json.loads(data)
            out[name] = (report["verdict"], report["decided_by"])
    return out


def _holds_across_builds(tmp_path: pathlib.Path, config: tuple[str, ...]) -> None:
    """The three children's comparisons on one config."""
    plain = _report_all(tmp_path, "plain", config)
    assert len(plain[2]) == 19  # nine JSON and CSV pairs and summary.json
    # another OpenBLAS core type and thread count: every byte, verdict line
    # and exit code
    assert _report_all(tmp_path, "blas", config, OPENBLAS_CORETYPE="Prescott",
                       OPENBLAS_NUM_THREADS="1") == plain
    # numpy's AVX-512 loops off: the verdicts, what decided them, and the index
    code, _, files = _report_all(tmp_path, "no_avx512", config,
                                 NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert code == plain[0]
    assert files.keys() == plain[2].keys()
    assert _verdicts(files) == _verdicts(plain[2])
    assert files["summary.json"] == plain[2]["summary.json"]


def test_report_bytes_hold_across_blas_and_cpu_loops(tmp_path):
    _holds_across_builds(tmp_path, ())


def test_rough_bounded_report_bytes_hold_across_blas_and_cpu_loops(tmp_path):
    """The x-dependent symbol's dense path and the rough class probe."""
    _holds_across_builds(tmp_path, ("--config", str(ROOT / "presets" / "rough_bounded.cfg")))
