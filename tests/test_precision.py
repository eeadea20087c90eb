"""The one precision rule end to end (grid._working): the adjoint pairing of
apply_rows and apply_adjoint_rows on the rough_bounded preset, run on a grid
whose half length is a float and on one whose half length is np.longdouble.

Each precision runs in its own child process: the two grids compare and hash
alike, so grid._plan and the other per-grid caches would serve one
precision's entries to the other, here and in every later test."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
PRESET = ROOT / "presets" / "rough_bounded.cfg"
C = 4  # the constant of every bound c log2(N) u below

# argv: the precision ("double" or "long") and the preset path.  Prints the
# pairings <T f, g> and <f, T* g> of six corpus items f against six noise
# rows g, each pairing's scale sum |T f| |g| dx, the grid size, and the digest
# of the critical cover's index plan (tools/shadow.py), every number as exact
# text.
CHILD = """
import json, sys
import numpy as np
from psdolab.config import load_config
from psdolab.corpus import band_noise, gaussian_corpus
from psdolab.grid import PeriodicGrid
from psdolab.operators import apply_adjoint_rows, apply_rows, make_operator
from shadow import cover_plan_digest

precision, path = sys.argv[1:]
cfg = load_config(path)
half = cfg.get("grid.l")
grid = PeriodicGrid(cfg.get("grid.n"), np.longdouble(half) if precision == "long" else half)
op = make_operator(cfg.make_symbol(), grid)
f = np.stack([item.fn.values for item in gaussian_corpus(grid)[::9]])
g = np.stack([band_noise(grid, seed).values for seed in range(len(f))])
t_f, t_star_g = apply_rows(op, f), apply_adjoint_rows(op, g)
dx = grid.spacing
pairs = {"left": np.sum(t_f * np.conj(g), axis=1) * dx,
         "right": np.sum(f * np.conj(t_star_g), axis=1) * dx}
out = {key: [[str(v.real), str(v.imag)] for v in vals] for key, vals in pairs.items()}
out["scale"] = [str(v) for v in np.sum(np.abs(t_f) * np.abs(g), axis=1) * dx]
out["dtype"] = str(t_f.dtype)
out["n"] = grid.n
out["plan"] = cover_plan_digest(grid)
print(json.dumps(out))
"""


def _run(precision: str) -> dict:
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tools'}",
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD, precision, str(PRESET)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    # a double's shortest text read as a long double would not be that double
    value = np.longdouble if precision == "long" else (lambda text: np.longdouble(float(text)))
    for key in ("left", "right"):
        out[key] = [value(re) + 1j * value(im) for re, im in out[key]]
    out["scale"] = [value(v) for v in out["scale"]]
    return out


def test_adjoint_pairing_in_double_and_long_double():
    """Per pairing, scaled by its sum |T f| |g| dx: each run's defect
    |<T f, g> - <f, T* g>| is at most c log2(N) u in its own precision's
    unit roundoff u, so the long-double run held long double throughout;
    the gap of each pairing between the two runs is at most c log2(N) u of
    double; and the critical cover's index plan is the same in both."""
    double, long = _run("double"), _run("long")
    assert (double["dtype"], long["dtype"]) == ("complex128", str(np.dtype(np.clongdouble)))
    log_n = math.log2(double["n"])
    for run, dtype in ((double, np.float64), (long, np.longdouble)):
        bound = C * log_n * np.finfo(dtype).eps / 2
        defects = [abs(a - b) / s for a, b, s in zip(run["left"], run["right"], run["scale"])]
        assert max(defects) <= bound, (dtype, defects)
    bound = C * log_n * 2.0 ** -53
    for key in ("left", "right"):
        gaps = [abs(a - b) / s for a, b, s in zip(double[key], long[key], long["scale"])]
        assert max(gaps) <= bound, (key, gaps)
    assert double["plan"] == long["plan"]
