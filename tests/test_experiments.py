"""End-to-end runs of every experiment at the default configuration.

Aggregates are frozen against measured values; the runs are deterministic, so
drift here means behavior changed somewhere upstream.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import psdolab.grid as grid_module
from psdolab import experiments, function_classes, maximal
from psdolab.config import HypothesisViolation, load_config
from psdolab.corpus import mixed_corpus
from psdolab.experiments import (VERIFY_TARGETS, _operator_gates, _ratio_corpus,
                                 _weight_stabilization, run_bmo,
                                 run_boundedness_experiment,
                                 run_commutator_experiment, run_fs,
                                 run_kernel_decay, run_local_average_check,
                                 run_maximal, run_oscillation_check,
                                 run_weight_calculus)
from psdolab.grid import ball_indices
from psdolab.maximal import build_critical_cover, check_fs_inequality

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def test_target_table_is_complete():
    assert sorted(VERIFY_TARGETS) == [
        "bmo", "fs", "kernel-decay", "lemma41", "lemma42",
        "maximal", "theorem13a", "theorem13b", "weights",
    ]


def test_kernel_decay_run(cfg):
    rep = run_kernel_decay(cfg)
    assert rep.verdict == "pass"
    assert rep.aggregate["fits"] == 7
    residual = [it for it in rep.items if it["id"] == "partition_residual"]
    assert residual and residual[0]["value"] == 0.0


def test_kernel_decay_reads_slope_tolerance(cfg):
    """tolerances.slope is the slack of the decay fits and the far-field fit.

    The default fits sit within 0.015 of their predicted slopes, so a
    tolerance of 0.005 turns every decay(ell) match into a fail while the
    far-field fit (slope -3.21, at most -3 + tol) still passes.
    """
    tight = run_kernel_decay(load_config(None, {"tolerances.slope": "0.005"}))
    base = run_kernel_decay(cfg)
    for rep, tol in ((base, 0.15), (tight, 0.005)):
        fits = {it["id"]: it["value"] for it in rep.items}
        for key in ("decay(ell=0)", "decay(ell=1)", "decay(ell=2)", "adjoint_far_field"):
            assert fits[key]["tolerance"] == tol
    decay = [it["value"] for it in tight.items if it["id"].startswith("decay(")]
    assert decay and all(fit["verdict"] == "fail" for fit in decay)
    assert all(
        0.005 < abs(fit["slope"] - fit["expected_slope"]) <= 0.15 for fit in decay
    )
    far = [it["value"] for it in tight.items if it["id"] == "adjoint_far_field"][0]
    assert far["verdict"] == "pass"
    assert base.verdict == "pass" and tight.verdict == "fail"


def test_weight_calculus_run(cfg):
    rep = run_weight_calculus(cfg)
    assert rep.verdict == "pass"
    units = [it for it in rep.items if it["id"] == "unit_characteristic"]
    assert units and abs(units[0]["value"] - 1.0) <= 1e-10


def test_bmo_run(cfg):
    rep = run_bmo(cfg)
    assert rep.verdict == "pass"
    assert rep.aggregate["norm"] == pytest.approx(0.4453108078839073, rel=1e-9)


def test_bmo_constant_multiplier_is_a_zero_family():
    """A constant lies in BMO_theta with norm 0.  Every John-Nirenberg ratio
    would divide by that norm, so, as theorem13b does for its zero family,
    the report passes on one criterion: the norm at the 1e-12 floor."""
    rep = run_bmo(load_config(None, {"bmo.preset": "constant"}))
    assert rep.verdict == "pass" and rep.aggregate["norm"] == 0.0
    assert [(c.name, c.value, c.comparison, c.threshold) for c in rep.criteria] == [
        ("norm_finite", 0.0, "<", float("inf")), ("zero_family", 0.0, "<=", 1e-12)]


def test_maximal_run(cfg):
    rep = run_maximal(cfg)
    assert rep.verdict == "pass"
    assert rep.aggregate["cover_size"] == 78
    wb = [it for it in rep.items if it["id"] == "weighted_bounds"][0]["value"]
    assert wb["cover_trend"] == pytest.approx(-0.0931208983023363, rel=1e-9)


@pytest.mark.parametrize("key,value", [("tolerances.trend_slope", "0.05"),
                                       ("tolerances.ratio_spread", "1.04")])
def test_maximal_reads_tolerances(key, value):
    """The default cover ratios sit 1.054x their median with trend -0.093,
    so either tightened tolerance turns the passing run into a fail."""
    rep = run_maximal(load_config(None, {key: value}))
    assert rep.verdict == "fail"


@pytest.mark.parametrize("stride, mults, decided_by", [
    (7, [10, 20, 38, 74], None),
    (6, [12, 22, 44, 86], "multiplicity(sigma=1) 12 > 10*sigma = 10"),
])
def test_maximal_caps_cover_multiplicity_at_ten_sigma(cfg, monkeypatch, stride, mults,
                                                      decided_by):
    """A cover of every stride-th lattice point overlaps more as the stride
    shrinks: stride 7 sits at the 10 sigma cap at sigma = 1 and 2, which
    pins <=, and stride 6 exceeds it."""
    monkeypatch.setattr(experiments, "build_critical_cover", lambda grid: maximal.CriticalCover(
        grid, tuple(grid.axis_points()[::stride].tolist())))
    rep = run_maximal(cfg)
    assert [it["value"] for it in rep.items if it["id"].startswith("multiplicity")] == mults
    assert rep.verdict == ("pass" if decided_by is None else "fail")
    assert str(rep.decided_by) == str(decided_by)


def test_fs_run(cfg):
    rep = run_fs(cfg)
    assert rep.verdict == "pass"
    assert rep.aggregate["max"] == pytest.approx(0.38197813985474216, rel=1e-9)
    assert rep.aggregate["median"] == pytest.approx(0.2574378994306422, rel=1e-9)


@pytest.mark.parametrize("path,overrides", [(None, {}), (None, {"grid.n": "2048"}),
                                            ("presets/rough_bounded.cfg", {})],
                         ids=["default", "fine", "rough_bounded"])
def test_stacked_fs_items_equal_the_per_item_check(path, overrides):
    """run_fs checks its corpus a block of rows at a time; every item's ratio
    is what check_fs_inequality gives that item alone."""
    cfg = load_config(path and ROOT / path, overrides)
    grid = cfg.make_grid()
    cover = build_critical_cover(grid)
    w = cfg.make_weight(grid)
    p = cfg.get("weight.p")
    corpus = mixed_corpus(grid, cfg.get("fs.count"), cfg.seed)
    expected = [check_fs_inequality(f, w, p, cover).aggregate["ratio"] for _, f, _ in corpus]
    assert [item["value"] for item in run_fs(cfg).items] == expected


def test_operator_gates_run_once_per_config():
    """theorem13b reuses theorem13a's gates on the same config, and its report
    is what a fresh evaluation of the gates gives."""
    cfg = load_config(None, {"run.seed": "11"})
    _operator_gates.cache_clear()
    run_boundedness_experiment(cfg)
    cached = run_commutator_experiment(cfg).to_json_dict()
    info = _operator_gates.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _operator_gates.cache_clear()
    assert run_commutator_experiment(cfg).to_json_dict() == cached


def _theorem13b_bytes(*targets: str) -> str:
    """theorem13b's canonical report in a fresh process, run after the given
    targets."""
    code = (
        "import sys\n"
        "from psdolab.config import load_config\n"
        "from psdolab.experiments import VERIFY_TARGETS\n"
        "from psdolab.report import canonical_json\n"
        "cfg = load_config()\n"
        f"for name in {targets!r}:\n"
        "    VERIFY_TARGETS[name](cfg)\n"
        "report = VERIFY_TARGETS['theorem13b'](cfg)\n"
        "sys.stdout.write(canonical_json(report.to_json_dict()).decode())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_theorem13b_reads_the_same_after_theorem13a():
    """The shared corpus changes no byte: theorem13b alone in a fresh process
    and theorem13b after theorem13a write the same report."""
    alone = _theorem13b_bytes()
    assert alone and _theorem13b_bytes("theorem13a") == alone


def test_interleaved_configs_each_get_their_own_corpus():
    """Two configs whose corpora differ, run interleaved in one process,
    each report over their own corpus, as a fresh cache gives it."""
    configs = [load_config(None, {"corpus.widths": widths}) for widths in ("0.6,1.8", "1.0")]
    runners = [run_boundedness_experiment, run_commutator_experiment]
    fresh = {}
    for c, cfg in enumerate(configs):
        for runner in runners:
            _ratio_corpus.cache_clear()
            fresh[runner, c] = runner(cfg).to_json_dict()
    for runner, c in [(runners[1], 0), (runners[0], 1), (runners[0], 0), (runners[1], 1)]:
        report = runner(configs[c]).to_json_dict()
        assert {item["params"]["width"] for item in report["items"]} == [{0.6, 1.8}, {1.0}][c]
        assert report == fresh[runner, c]
    _ratio_corpus.cache_clear()


def test_cached_corpus_values_are_read_only():
    """A runner cannot write into the shared corpus: its values raise."""
    blocks = _ratio_corpus(load_config())
    assert sum(len(block) for block, _, _ in blocks) == 54
    for block, denoms_w, denoms_0 in blocks:
        assert len(block) == len(denoms_w) == len(denoms_0)
        for _, fn, _ in block:
            with pytest.raises(ValueError, match="read-only"):
                fn.values[0] = 0.0
    assert np.all(blocks[0][0][0].fn.values[:1] != 0.0)


def _count_family_passes(monkeypatch) -> dict:
    """Count function_classes' passes over a ball family, by their reduce."""
    passes = {}
    per_ball = function_classes._per_ball

    def counted(x, groups, reduce=np.mean, **kwargs):
        passes[reduce.__name__] = passes.get(reduce.__name__, 0) + 1
        return per_ball(x, groups, reduce, **kwargs)

    monkeypatch.setattr(function_classes, "_per_ball", counted)
    return passes


def test_light_targets_sweep_the_stabilization_once(monkeypatch):
    """weights and the operator gates read one stabilization sweep per
    config, and weights on its own probes no class membership.  weights
    takes 6 log-mean passes over the family: the unit weight's two, then
    one log mean of w, which no exponent changes, and one dual pass at each
    of p, p + 1 and the openness exponent."""
    passes = _count_family_passes(monkeypatch)
    memberships = []
    membership = experiments.estimate_class_membership
    monkeypatch.setattr(experiments, "estimate_class_membership",
                        lambda *args: memberships.append(args) or membership(*args))
    cfg = load_config(None, {"run.seed": "13"})
    _weight_stabilization.cache_clear()
    _operator_gates.cache_clear()
    run_weight_calculus(cfg)
    assert (passes, len(memberships)) == ({"_log_mean": 6}, 0)
    run_boundedness_experiment(cfg)
    run_commutator_experiment(cfg)
    assert (passes, len(memberships)) == ({"_log_mean": 6}, 1)


def test_bmo_takes_norm_and_moments_from_one_pass(monkeypatch, cfg):
    """The BMO_theta norm and part (i)'s s-moments come from one centred
    gather per ball."""
    passes = _count_family_passes(monkeypatch)
    run_bmo(cfg)
    assert passes == {"_oscillation": 1}


def test_boundedness_run(cfg):
    rep = run_boundedness_experiment(cfg)
    assert rep.verdict == "pass"
    agg = rep.aggregate
    assert agg["max"] == pytest.approx(0.9620102630695693, rel=1e-9)
    assert agg["median"] == pytest.approx(0.8186963842037172, rel=1e-9)
    assert abs(agg["slope"]) <= 0.1
    assert agg["class_membership"] is True
    assert agg["weight_stable"] is True
    assert agg["unweighted_drift"] is False
    assert agg["zero_family"] is False


def test_commutator_run(cfg):
    rep = run_commutator_experiment(cfg)
    assert rep.verdict == "pass"
    agg = rep.aggregate
    assert agg["max"] == pytest.approx(0.27709637575397683, rel=1e-9)
    assert agg["median"] == pytest.approx(0.22811927741596227, rel=1e-9)
    assert abs(agg["slope"]) <= 0.1


def test_commutator_constant_multiplier_is_zero_family(cfg):
    """theorem13b, lemma41 and lemma42 with b constant: the commutator is the
    zero operator, and its statistic is judged by the one zero-family rule."""
    const = load_config(None, {"bmo.preset": "constant"})
    rep = run_commutator_experiment(const)
    assert rep.verdict == "pass"
    assert rep.aggregate["zero_family"] is True
    assert rep.aggregate["max"] <= 1e-12
    for runner in (run_local_average_check, run_oscillation_check):
        rep = runner(const)
        assert rep.verdict == "pass"
        assert rep.aggregate["multiplier_norm"] == 0.0
        zero = [c for c in rep.criteria if c.name == "zero_family"]
        assert len(zero) == 1 and zero[0].value == rep.aggregate["commutator_max"] <= 1e-12
        assert "commutator_max" not in [c.name for c in rep.criteria]


def test_local_average_run(cfg):
    rep = run_local_average_check(cfg)
    assert rep.verdict == "pass"
    agg = rep.aggregate
    assert agg["plain_max"] == pytest.approx(1.6437150294122103, rel=1e-9)
    assert agg["plain_median"] == pytest.approx(1.0845185151493513, rel=1e-9)
    assert agg["commutator_max"] == pytest.approx(16.581428470382953, rel=1e-9)
    assert agg["plain_max"] <= 4.0 * agg["plain_median"]
    assert agg["commutator_max"] <= 4.0 * agg["commutator_median"]


def test_oscillation_run(cfg):
    rep = run_oscillation_check(cfg)
    assert rep.verdict == "pass"
    agg = rep.aggregate
    assert agg["zero_case_max"] == 0.0
    assert agg["plain_max"] == pytest.approx(0.052315119349406226, rel=1e-9)
    assert agg["commutator_max"] == pytest.approx(0.21172229368066595, rel=1e-9)


def test_oscillation_zero_probes_are_exact_on_the_amplitude():
    """On the amplitude every adjoint row is a sum of many Jacobi-Anger terms;
    the same-point probe, two rows of one stack, still reads exactly 0."""
    amp = load_config(None, {"symbol.preset": "oscillating_amplitude", "symbol.rho": "0.5",
                             "symbol.m": "-0.75", "symbol.delta": "0.5"})
    assert run_oscillation_check(amp).aggregate["zero_case_max"] == 0.0


def test_oscillation_runs_one_cover_plan_on_the_balls_it_reads(cfg, monkeypatch):
    """lemma42 builds one m_tilde_s plan, on the 23 of 78 critical balls that
    meet its oscillation balls."""
    build = maximal._cover_plan
    covers = []

    def recorded(grid, centers):
        covers.append((grid, centers))
        return build(grid, centers)

    monkeypatch.setattr(maximal, "_cover_plan", recorded)
    grid_module._plan.cache_clear()
    run_oscillation_check(cfg)
    assert len(covers) == 1
    assert build(*covers[0]).lo.shape[0] == 23


def test_report_all_reads_cover_windows_only_at_radii_one_and_two(cfg, monkeypatch):
    """Every larger cover ball (the multiplicity dilates, the series' dyadic
    balls, the 8-dilates of m_tilde_s) is read as an arc, never as a
    (balls, points) index window."""
    windows = maximal.ball_windows
    radii = []

    def recorded(grid, centers, radius):
        radii.append(radius)
        return windows(grid, centers, radius)

    # CriticalCover.windows builds them through the plan cache; the
    # covering table reads the unit balls, radius 1
    monkeypatch.setattr(maximal, "ball_windows", recorded)
    grid_module._plan.cache_clear()
    experiments.run_all(cfg)
    assert set(radii) == {1.0, 2.0}


def test_oscillation_sub_cover_keeps_the_report_across_the_seam(monkeypatch):
    """Balls that wrap across the box seam give the same report on the
    sub-cover as on the full cover; the frozen values are the full cover's."""
    cfg = load_config(None, {"oscillation.centers": "-15.8"})
    rep = run_oscillation_check(cfg)
    agg = rep.aggregate
    assert agg["plain_max"] == pytest.approx(0.0537326930328268, rel=1e-9)
    assert agg["plain_median"] == pytest.approx(0.02190031840557599, rel=1e-9)
    assert agg["commutator_median"] == pytest.approx(0.5953277358624811, rel=1e-9)
    monkeypatch.setattr(maximal.CriticalCover, "meeting", lambda cover, indices: cover)
    assert run_oscillation_check(cfg).to_json_dict() == rep.to_json_dict()


def test_oscillation_indexes_each_ball_and_doubled_ball_once(cfg, monkeypatch):
    """lemma42 on the 6 default balls makes 12 ball_indices calls: one per
    ball, read by the meeting cover and the minima, and one per doubled ball,
    through its ball_mask."""
    balls = []

    def counted(grid, ball):
        balls.append(ball)
        return ball_indices(grid, ball)

    for module in (experiments, grid_module):
        monkeypatch.setattr(module, "ball_indices", counted)
    run_oscillation_check(cfg)
    assert len(balls) == 12
    assert sorted(b.radius for b in balls) == sorted(2 * [0.5, 1.0, 2.0, 1.0, 2.0, 4.0])


@pytest.mark.parametrize("runner", [run_boundedness_experiment, run_commutator_experiment])
def test_theorem13_passes_at_4096(runner):
    """At (4096, 16) the Bessel multiplier's x-differences read exactly 0,
    so the class gate no longer reads roundoff as growth."""
    rep = runner(load_config(None, {"grid.n": "4096"}))
    assert rep.aggregate["class_membership"] is True
    assert rep.verdict == "pass"


def test_oscillation_rejects_oversized_radii():
    with pytest.raises(HypothesisViolation):
        load_config(None, {"oscillation.radii": "0.5,4.0"})


def test_gate_failure_reported_not_hidden():
    # (1+|x|)^2 fails to stabilize at theta=0; the runner must label the
    # result instead of claiming a pass or a fail
    cfg = load_config(None, {"weight.gamma": "2.0", "weight.theta": "0.0"})
    rep = run_boundedness_experiment(cfg)
    assert rep.verdict == "hypothesis_unverified"
    assert rep.aggregate["weight_stable"] is False


def test_runs_are_deterministic(cfg):
    a = run_weight_calculus(cfg)
    b = run_weight_calculus(cfg)
    assert a.to_json_dict() == b.to_json_dict()
