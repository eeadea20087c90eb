"""The byte matrix of `psdolab report all`: the configs of tools/census.py,
each at seeds 3 and 7.

Each run is its own `python3 -m psdolab.cli report all --config PATH --seed
SEED --out DIR` on this checkout's src/, with its config and out dir in a
fresh temporary directory.  Prints one line per run: the config's name, the
seed, the exit code, the sha256 of each file the run wrote (by name), and
the sha256 of its stdout with the out dir replaced by "OUT".  diff the
output of two checkouts to see whether a change moves any report byte, exit
code or line of stdout.

Usage: python3 tools/report_matrix.py [CONFIG ...], where each CONFIG names
a config of census.CONFIGS ("grid-n 2048" is one name) and narrows the
matrix to those.  Needs only the standard library and numpy.  Exits 2 on an
unknown name, else 0: a run's own exit code is part of its line.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from census import CONFIGS, ROOT  # noqa: E402

SEEDS = (3, 7)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_line(label: str, seed: int) -> str:
    """The matrix line of one run of `report all` on the named config."""
    config = CONFIGS[label]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = config
        if isinstance(config, dict):
            path = tmp / "config.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out = tmp / "out"
        done = subprocess.run(
            [sys.executable, "-m", "psdolab.cli", "report", "all", "--config", str(path),
             "--seed", str(seed), "--out", str(out)],
            cwd=tmp, env=env, capture_output=True)
        files = [f"{p.name}={_sha(p.read_bytes())}" for p in sorted(out.glob("*"))]
        stdout = _sha(done.stdout.replace(str(out).encode(), b"OUT"))
    return f"{label} seed {seed}: exit {done.returncode} {' '.join(files)} stdout={stdout}"


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in CONFIGS]
    if unknown:
        print(f"unknown config {unknown[0]!r}; known: {', '.join(CONFIGS)}", file=sys.stderr)
        return 2
    for label in argv or CONFIGS:
        for seed in SEEDS:
            print(run_line(label, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
