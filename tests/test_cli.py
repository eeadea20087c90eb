import csv
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys

import pytest

from psdolab.cli import main
from psdolab.config import HypothesisViolation, load_config
from psdolab.experiments import VERIFY_TARGETS, run_all


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*args):
    return main(list(args))


def test_verify_weights_passes(tmp_path):
    assert run_cli("verify", "weights", "--out", str(tmp_path)) == 0
    data = json.loads((tmp_path / "weight_calculus.json").read_text())
    assert data["verdict"] == "pass"
    assert data["seed"] == 7


def test_report_all_writes_everything(tmp_path):
    assert run_cli("report", "all", "--out", str(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert len(summary["experiments"]) == 9
    for entry in summary["experiments"].values():
        report = tmp_path / entry["report"]
        text = report.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        with open(report.with_suffix(".csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        for _, _, value in rows[1:]:
            float(value)  # a number, not a repr such as np.float64(0.1)


def test_report_all_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("report", "all", "--out", str(a)) == 0
    assert run_cli("report", "all", "--out", str(b)) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_csv_rows_are_parseable(tmp_path):
    run_cli("verify", "theorem13a", "--out", str(tmp_path))
    with open(tmp_path / "weighted_operator_bounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "key", "value"]
    assert {len(r) for r in rows} == {3}
    assert len(rows) > 50


def test_grid_flags_reach_the_experiment(tmp_path):
    assert run_cli("verify", "weights", "--grid-n", "2048", "--grid-l", "20.0",
                   "--seed", "3", "--out", str(tmp_path)) == 0
    data = json.loads((tmp_path / "weight_calculus.json").read_text())
    assert data["seed"] == 3


def test_config_file_flag(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("weight.gamma = 1.25\n")
    assert run_cli("verify", "weights", "--config", str(cfgfile),
                   "--out", str(tmp_path)) == 0
    data = json.loads((tmp_path / "weight_calculus.json").read_text())
    assert data["aggregate"]["weight"] == "power_growth(gamma=1.25)"


def test_missing_config_is_a_usage_error(tmp_path):
    assert run_cli("verify", "weights", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("setting", [("--grid-n", "100"), ("--grid-l", "-1.0"),
                                     "grid.dim = 2", "grid.dim = 3", "grid.n = abc"])
def test_bad_grid_is_a_usage_error(tmp_path, capsys, setting):
    """A grid the lattice cannot hold exits 2 with one error line, not a traceback.
    The grid is one-dimensional, so a grid.dim line is an unknown key."""
    prefix = "error: unknown config keys: grid.dim" if "grid.dim" in setting else "error: grid: "
    if isinstance(setting, str):
        cfgfile = tmp_path / "grid.cfg"
        cfgfile.write_text(setting + "\n")
        setting = ("--config", str(cfgfile))
    assert run_cli("verify", "weights", *setting, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def _assert_refused_on_every_target(capsys, args, prefix, out):
    """Every verify target and report all exit 2 with one error line, writing nothing."""
    for command in [("verify", target) for target in VERIFY_TARGETS] + [("report", "all")]:
        assert run_cli(*command, *args, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("setting", ["symbol.preset = nope", "weight.preset = nope",
                                     "bmo.preset = nope", "corpus.widths = a,b",
                                     "kernel.diff_j = 2,x", "weight.gamma = abc",
                                     "kernel.diff_j = 2", "corpus.widths =",
                                     "kernel.ell_max = 4", "kernel.adjoint_n_exp = 3",
                                     "kernel.k_lo = 3", "corpus.center_count = 0", "corpus.center_count = -2",
                                     "lemma.center_count = 0", "fs.count = 0",
                                     "corpus.widths = 0.6,0", "lemma.widths = -1",
                                     "lemma.n_big = 0", "maximal.n_big = 0",
                                     "lemma.n_big = 1", "maximal.n_big = 1",
                                     "kernel.diff_j = 1,4", "kernel.diff_j = 2,3",
                                     "kernel.diff_k = 3,3",
                                     "kernel.diff_ball_radius = 0",
                                     "kernel.diff_ball_radius = -0.5",
                                     "oscillation.radii = 0.5,-1",
                                     # B(0.3, 0.01) holds no point of the dx = 1/32 grid
                                     "oscillation.radii = 0.01,0.5\noscillation.centers = 0.3,1.7",
                                     "maximal.kappa = 0", "maximal.kappa = -1",
                                     "weight.p = inf", "tolerances.ratio_spread = nan",
                                     "tolerances.slope = nan", "weight.theta = nan",
                                     "bmo.theta = nan", "weight.gamma = nan",
                                     "oscillation.centers = nan", "corpus.widths = 0.6,inf",
                                     "grid.l = inf", "run.seed = -1"])
def test_bad_value_is_a_usage_error_on_every_target(tmp_path, capsys, setting):
    """A bad preset name, typed value or list length, a nan or infinite
    number, a negative seed, too few decay pieces, an
    empty corpus or a width <= 0, a series damping n_big below 1/p + 1
    (p = weight.p = 2 for lemma, maximal.s = 1.5 for maximal), a
    difference table with an annulus below j = 2, under 3 annuli or under 2
    pieces, a ball radius <= 0, an oscillation ball holding no grid point or
    a series dilation kappa <= 0, is refused before any target runs."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(setting + "\n")
    key = setting.split(" =")[0]
    where = "grid" if key.startswith("grid.") else key
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)), f"error: {where}: ",
                                    tmp_path / "out")


@pytest.mark.parametrize("where", ["empty flag", "file", "under a file", "empty key"])
def test_report_directory_that_cannot_be_made_is_a_usage_error_on_every_target(tmp_path, capsys,
                                                                              where):
    """An empty run.out, or one naming a file or a path under a file, is
    refused at load, before any target computes."""
    (tmp_path / "file").write_text("")
    cfgfile = tmp_path / "out.cfg"
    cfgfile.write_text("run.out =\n")
    args = {"empty flag": ("--out", ""), "file": ("--out", str(tmp_path / "file")),
            "under a file": ("--out", str(tmp_path / "file" / "sub")),
            "empty key": ("--config", str(cfgfile))}[where]
    for command in [("verify", target) for target in VERIFY_TARGETS] + [("report", "all")]:
        assert run_cli(*command, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.out: ") and err.count("\n") == 1


def test_key_set_twice_is_a_usage_error_on_every_target(tmp_path, capsys):
    """The file's second grid.n would silently win; it is refused instead."""
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text("grid.n = 2048\ngrid.n = 512\n")
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    "error: line 2: grid.n is already set on line 1",
                                    tmp_path / "out")


@pytest.mark.parametrize("flag,value", [("--grid-n", "512"), ("--grid-n", "256"),
                                        ("--grid-l", "64"), ("--grid-l", "7"),
                                        ("--grid-l", "4")])
def test_grid_a_runner_cannot_use_is_a_usage_error_on_every_target(tmp_path, capsys, flag,
                                                                   value):
    """Too coarse for kernel-decay's pieces 2..5, too small for its annuli out to
    2^4 * 0.5 = 8 <= L/2, or for the cover's 8-dilates: refused before any run."""
    _assert_refused_on_every_target(capsys, (flag, value), "error: grid: ", tmp_path / "out")


@pytest.mark.parametrize("setting,key", [("kernel.diff_ball_radius = 3", "kernel.diff_ball_radius"),
                                         ("kernel.diff_j = 2,9", "kernel.diff_j")])
def test_annuli_past_the_half_box_name_their_kernel_key_on_every_target(tmp_path, capsys,
                                                                        setting, key):
    """The difference table's annuli out to 2^4 * 3 = 48 or 2^9 * 0.5 = 256
    leave |z| <= L/2 = 8: refused before any run, under the grid that bounds
    them, naming the kernel key that sets them."""
    cfgfile = tmp_path / "annuli.cfg"
    cfgfile.write_text(setting + "\n")
    for command in [("verify", target) for target in VERIFY_TARGETS] + [("report", "all")]:
        assert run_cli(*command, "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid: the annuli of ") and err.count("\n") == 1
        assert key in err
    assert not (tmp_path / "out").exists()


def test_too_few_sweep_radii_is_a_usage_error_on_every_target(tmp_path, capsys):
    """At grid.n = 128 the weight sweep has 3 dyadic radii, 8dx..L/2, and the
    stabilization gate needs 4; the kernel settings make every other check
    pass on this grid."""
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text("kernel.k_lo = 0\nkernel.k_hi = 3\nkernel.diff_k = 0,3\n"
                       "kernel.diff_ball_radius = 0.25\n")
    args = ("--config", str(cfgfile), "--grid-n", "128", "--grid-l", "8")
    _assert_refused_on_every_target(capsys, args, "error: grid: need at least 4 dyadic radii",
                                    tmp_path / "out")


def test_fs_window_below_the_family_radius_is_a_usage_error_on_every_target(tmp_path, capsys):
    """At grid.n = 256 the structured family starts at radius 8dx = 1, above
    fs's beta = 0.5; the kernel settings make every other check pass."""
    cfgfile = tmp_path / "coarse.cfg"
    cfgfile.write_text("kernel.k_lo = 0\nkernel.k_hi = 3\nkernel.diff_k = 0,3\n")
    args = ("--config", str(cfgfile), "--grid-n", "256")
    _assert_refused_on_every_target(
        capsys, args, "error: grid: alpha 0.5 below the minimum family radius 1.0",
        tmp_path / "out")


@pytest.mark.parametrize("s", ["2.5", "2.0", "1.0", "0.5"])
def test_maximal_exponent_under_counterexample_is_a_usage_error_on_every_target(tmp_path,
                                                                                capsys, s):
    """run.counterexample lets maximal.s outside (1, weight.p) past the
    hypothesis gate, but the maximal runner cannot run there: refused at load."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"run.counterexample = true\nmaximal.s = {s}\n")
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    "error: maximal.s: need p > s > 1", tmp_path / "out")


@pytest.mark.parametrize("key", ["weight.theta", "bmo.theta"])
def test_negative_growth_under_counterexample_is_a_usage_error_on_every_target(tmp_path,
                                                                               capsys, key):
    """run.counterexample lets a negative growth exponent past the hypothesis
    gate, but the class sweeps cannot run there: refused at load, not exit 4."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"run.counterexample = true\n{key} = -0.5\n")
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    f"error: {key}: theta must be >= 0", tmp_path / "out")


@pytest.mark.parametrize("key", ["symbol.rho", "symbol.delta"])
def test_amplitude_class_outside_the_unit_interval_is_a_usage_error_on_every_target(
        tmp_path, capsys, key):
    """The amplitude reads rho and delta, which SymbolSpec needs in [0, 1];
    the other presets ignore both keys."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"symbol.preset = oscillating_amplitude\n{key} = 1.5\n")
    name = key.split(".")[1]
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    f"error: symbol: {name} must lie in [0, 1]", tmp_path / "out")


def test_amplitude_spatial_scale_zero_is_a_usage_error_on_every_target(tmp_path, capsys):
    """The amplitude's psi(x, y) divides by symbol.spatial_scale, which must be
    > 0; the other presets ignore the key."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("symbol.preset = oscillating_amplitude\nsymbol.spatial_scale = 0\n")
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    "error: symbol: spatial_scale must be positive",
                                    tmp_path / "out")


def test_oscillation_radius_four_exits_three_on_every_target(tmp_path, capsys):
    """Lemma 4.2's balls need radius < 4: the hypothesis gate refuses it on
    every target, before any target computes or any report is written."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("oscillation.radii = 0.5,5\n")
    out = tmp_path / "out"
    for command in [("verify", target) for target in VERIFY_TARGETS] + [("report", "all")]:
        assert run_cli(*command, "--config", str(cfgfile), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "hypothesis violated: oscillation balls need radius < 4, got 5\n")
    assert not out.exists()


def test_amplitude_delta_one_exits_three_on_every_target(tmp_path, capsys):
    """The paper's amplitudes need delta < 1: the hypothesis gate refuses
    delta = 1 on every target, before any target computes or writes."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("symbol.preset = oscillating_amplitude\nsymbol.rho = 0.5\n"
                       "symbol.delta = 1\n")
    out = tmp_path / "out"
    for command in [("verify", target) for target in VERIFY_TARGETS] + [("report", "all")]:
        assert run_cli(*command, "--config", str(cfgfile), "--out", str(out)) == 3
        assert capsys.readouterr().err == "hypothesis violated: symbol delta=1 must be below 1\n"
    assert not out.exists()


@pytest.mark.parametrize("settings,passes", [
    ({"symbol.delta": "0.9"}, True),
    ({"symbol.delta": "1", "run.counterexample": "true"}, True),
    ({"symbol.delta": "1"}, False),
])
def test_amplitude_delta_gate_boundary(settings, passes):
    """delta = 0.9 with an in-class m and rho passes the gate, and
    run.counterexample lets delta = 1 past it."""
    overrides = {"symbol.preset": "oscillating_amplitude", "symbol.m": "-0.75",
                 "symbol.rho": "0.5", **settings}
    if passes:
        load_config(None, overrides)
    else:
        with pytest.raises(HypothesisViolation, match="delta=1 must be below 1"):
            load_config(None, overrides)


def test_oscillation_radius_past_the_box_under_counterexample_is_a_usage_error(tmp_path,
                                                                              capsys):
    """run.counterexample lets radius >= 4 past the hypothesis gate, but a
    doubled ball wider than the half box cannot be indexed: refused at load."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("run.counterexample = true\noscillation.radii = 0.5,8.5\n")
    _assert_refused_on_every_target(capsys, ("--config", str(cfgfile)),
                                    "error: oscillation.radii: ball radius 17.0 exceeds",
                                    tmp_path / "out")


@pytest.mark.parametrize("n", [2048, 4096])
def test_box_one_ulp_off_a_piece_edge_never_exits_four(tmp_path, n):
    """At L = pi*n/2^k, xi_max is a power of two, the edge of a piece's
    support.  One ulp above it xi_max rounds under that edge: the gate, the
    band-limited twin and the truncated operator read one resolved-piece
    rule, so no target stops on an internal error either side of it."""
    edges = [math.pi * n / 2**k for k in range(20) if 8.0 <= math.pi * n / 2**k <= 64.0]
    assert len(edges) == 3
    for edge in edges:
        for half in (math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            code = run_cli("report", "all", "--grid-n", str(n), "--grid-l", repr(half),
                           "--out", str(tmp_path / "out"))
            assert code in (0, 1, 2, 3), (half, code)


@pytest.mark.parametrize("target,settings", [
    ("maximal", "maximal.s = 1.995"),
    ("weights", "weight.p = 1.001\nmaximal.s = 1.0005"),
    ("maximal", "weight.p = 1.001\nmaximal.s = 1.0005"),
    ("weights", "weight.p = 1.1\nmaximal.s = 1.0005"),
])
def test_exponents_at_the_range_ends_never_exit_four(tmp_path, capsys, target, settings):
    """At s = p (1 - 2.5e-3), and at p = 1.001, the dual weight w^(-1/(q-1))
    underflows to 0 in float64 while its log mean does not; at p = 1.1 the
    openness probe steps to p - (p - 1)/2.  Each runs to a verdict."""
    cfgfile = tmp_path / "ends.cfg"
    cfgfile.write_text(settings + "\n")
    code = run_cli("verify", target, "--config", str(cfgfile), "--out", str(tmp_path / "out"))
    assert code in (0, 1), capsys.readouterr().err


def test_maximal_exponent_without_counterexample_exits_three(tmp_path, capsys):
    """Without the flag the hypothesis gate speaks first, on every target."""
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("maximal.s = 2.5\n")
    for target in VERIFY_TARGETS:
        assert run_cli("verify", target, "--config", str(cfgfile), "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("hypothesis violated: maximal bound")


def test_amplitude_runs_at_the_default_grid(tmp_path, capsys):
    """The oscillating amplitude is applied through its Jacobi-Anger terms, so
    kernel-decay at grid.n = 1024 reaches a verdict instead of a refusal."""
    cfgfile = tmp_path / "amp.cfg"
    cfgfile.write_text("symbol.preset = oscillating_amplitude\n")
    assert run_cli("verify", "kernel-decay", "--config", str(cfgfile), "--grid-n", "1024",
                   "--out", str(tmp_path)) in (0, 1)
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "kernel_decay_probe.json").read_text())["verdict"] in (
        "pass", "fail")


def test_constant_multiplier_report_all_reaches_a_summary(tmp_path, capsys):
    """With b constant every commutator statistic is a zero family, so no
    runner divides by the zero norm and report all writes its summary."""
    cfgfile = tmp_path / "const.cfg"
    cfgfile.write_text("bmo.preset = constant\n")
    assert run_cli("report", "all", "--config", str(cfgfile), "--out", str(tmp_path)) in (0, 1)
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["experiments"]) == 9


def test_bad_exponents_exit_three(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("weight.p = 0.5\n")
    assert run_cli("verify", "weights", "--config", str(cfgfile),
                   "--out", str(tmp_path)) == 3


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    """A runner fault is one stderr line and exit 4, never a failed verdict."""
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(VERIFY_TARGETS, "weights", broken)
    monkeypatch.setattr("psdolab.cli.run_all", broken)
    for command in (("verify", "weights"), ("report", "all")):
        assert run_cli(*command, "--out", str(tmp_path)) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_failing_verdict_exits_one(tmp_path):
    cfgfile = tmp_path / "unstable.cfg"
    cfgfile.write_text("weight.gamma = 2.0\nweight.theta = 0.0\n")
    assert run_cli("verify", "weights", "--config", str(cfgfile),
                   "--out", str(tmp_path)) == 1


_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}


@pytest.mark.parametrize("preset", ["bessel_smoothing", "identity_baseline",
                                    "out_of_class_probe", "rough_bounded", "exp_abs"])
def test_verdicts_recompute_from_the_json_alone(tmp_path, capsys, preset):
    """Each report's verdict follows from its criteria block by one rule:
    hypothesis_unverified if a gate is not ok, else pass iff every criterion
    is ok, each ok recomputed from value, comparison and threshold.
    decided_by names the first failing gate or criterion, and the CLI line
    of a non-pass names it too.  The e^|x| weight fails the stabilization
    gates (weight.preset = exp_abs), so that run has hypothesis_unverified
    reports."""
    gated = preset == "exp_abs"
    cfgfile = ROOT / "presets" / f"{preset}.cfg"
    if gated:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("weight.preset = exp_abs\n")
    out = tmp_path / "out"
    run_cli("report", "all", "--config", str(cfgfile), "--out", str(out))
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((out / "summary.json").read_text())
    verdicts = []
    for name, entry in summary["experiments"].items():
        data = json.loads((out / entry["report"]).read_text())
        gates, criteria = data["criteria"]["gates"], data["criteria"]["criteria"]
        names = [c["name"] for c in gates + criteria]
        assert criteria and len(set(names)) == len(names)
        assert all(name.split() == [name] for name in names)
        failing = [c["name"] for c in gates + criteria
                   if not _COMPARE[c["comparison"]](c["value"], c["threshold"])]
        if any(c["name"] in failing for c in gates):
            verdict = "hypothesis_unverified"
        else:
            verdict = "fail" if failing else "pass"
        assert data["verdict"] == entry["verdict"] == verdict
        assert data["decided_by"] == (failing[0] if failing else None)
        line = next(text for text in lines if text.split()[0] == name)
        assert line.split()[1:3] == [verdict] + failing[:1]
        verdicts.append(verdict)
    assert summary["verdict"] == ("pass" if set(verdicts) == {"pass"} else "fail")
    assert ("hypothesis_unverified" in verdicts) == gated


@pytest.mark.parametrize("preset", sorted(p.stem for p in (ROOT / "presets").glob("*.cfg")))
def test_readme_preset_row_quotes_every_failing_verdict(preset):
    """The preset's row in README's table quotes, in backticks, the verdict
    line (str of decided_by) of every target that does not pass, and no
    other verdict line, so a verdict change must update README with it."""
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith(f"| `presets/{preset}.cfg`")]
    assert len(rows) == 1
    quoted = [text for text in re.findall(r"`([^`]+)`", rows[0])
              if re.search(r" (?:<=|>=|==|!=|<|>) ", text)]
    reports = run_all(load_config(ROOT / "presets" / f"{preset}.cfg"))
    failing = [str(r.decided_by) for r in reports.values() if r.decided_by is not None]
    assert sorted(quoted) == sorted(failing)


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "nonsense", "--out", str(tmp_path))
    assert exc.value.code == 2


def test_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "psdolab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "report" in proc.stdout


def test_report_all_imports_neither_numpy_ma_nor_scipy(tmp_path):
    """A cold `report all` stays off numpy.ma, whose import costs about 15 ms
    and comes in through np.median or np.unique, and off scipy."""
    code = (
        "import sys\n"
        "from psdolab.cli import main\n"
        f"main(['report', 'all', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]"
