import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdolab.config import (DEFAULTS, ExperimentConfig, HypothesisViolation, load_config,
                            parse_config_text)
from psdolab.experiments import run_all

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_defaults_load_and_expose_types(tmp_path):
    cfg = load_config()
    assert cfg.get("symbol.preset") == "bessel_order_m"
    assert cfg.get("weight.p") == 2.0
    assert cfg.get("grid.n") == 1024
    assert cfg.get("corpus.widths") == (0.6, 1.0, 1.8)
    assert cfg.get("corpus.modulations") == (0, 4, 12)
    assert cfg.get("run.counterexample") is False


def test_every_typed_key_is_checked_at_load():
    """Every key, the output directory included, refuses an empty value at
    load, naming the key (grid.n and grid.l as the grid they build)."""
    for key in DEFAULTS:
        where = "grid" if key.startswith("grid.") else key
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: "):
            load_config(None, {key: ""})


def test_readme_config_table_lists_every_key_and_default():
    """README's Configuration table has one row per key, in the config's
    order, with its default, so a key or default change must update README."""
    section = (ROOT / "README.md").read_text().split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in section.splitlines() if line.startswith("| `")]
    assert rows == [[key, default] for key, default in DEFAULTS.items()]


def test_every_key_is_read(monkeypatch):
    """run_all on the defaults reads every key but run.out, which the CLI
    reads, and the amplitude-only symbol parameters, which the amplitude
    preset's symbol_params reads."""
    read = set()
    get = ExperimentConfig.get

    def recording_get(self, key):
        read.add(key)
        return get(self, key)

    cfg = load_config()
    monkeypatch.setattr(ExperimentConfig, "get", recording_get)
    run_all(cfg)
    amplitude_only = {"symbol.rho", "symbol.delta", "symbol.spatial_scale"}
    assert set(DEFAULTS) - read == {"run.out"} | amplitude_only
    read.clear()
    entries = {**DEFAULTS, "symbol.preset": "oscillating_amplitude"}
    ExperimentConfig(tuple(sorted(entries.items()))).symbol_params()
    assert amplitude_only <= read


def test_parse_ignores_comments_and_blanks():
    entries = parse_config_text("# header\n\nweight.p = 3.5\n  # trailing\n")
    assert entries == {"weight.p": "3.5"}


def test_parse_refuses_a_key_set_twice():
    """The last line does not silently win: both lines are named."""
    with pytest.raises(ValueError, match="^line 3: grid.n is already set on line 1$"):
        parse_config_text("grid.n = 2048\n# coarser\ngrid.n = 512\n")


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("weight.q = 2\n")
    with pytest.raises(ValueError):
        load_config(str(p))


def test_file_and_override_precedence(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("weight.p = 3.0\nsymbol.m = -0.5\n")
    cfg = load_config(str(p), {"weight.p": "4.0"})
    assert cfg.get("weight.p") == 4.0      # override beats file
    assert cfg.get("symbol.m") == -0.5     # file beats default
    assert cfg.get("grid.n") == 1024         # default survives


def test_digest_ignores_output_location():
    a = load_config(None, {"run.out": "x"})
    b = load_config(None, {"run.out": "y"})
    c = load_config(None, {"run.seed": "8"})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_hypothesis_gate_rejects_bad_order():
    with pytest.raises(HypothesisViolation):
        load_config(None, {"symbol.m": "0.5"})


@pytest.mark.parametrize("key,value", [
    ("weight.p", "1.0"),
    ("weight.theta", "-0.5"),
    ("maximal.s", "2.5"),
    ("bmo.theta", "-1.0"),
])
def test_hypothesis_gate_rejects_bad_exponents(key, value):
    with pytest.raises(HypothesisViolation):
        load_config(None, {key: value})


def test_counterexample_flag_bypasses_gate():
    cfg = load_config(None, {"symbol.m": "0.5", "run.counterexample": "true"})
    cfg.check_hypotheses()


def test_builders_come_from_entries():
    cfg = load_config()
    g = cfg.make_grid()
    assert g.n == 1024 and g.half_length == 16.0
    sym = cfg.make_symbol()
    assert sym.order == -0.75
    w = cfg.make_weight(g)
    assert w.label == "power_growth(gamma=1.5)"
    b = cfg.make_bmo(g)
    assert b.values.shape == g.shape


@settings(max_examples=25, deadline=None)
@given(st.floats(1.25, 8.0), st.floats(0.0, 4.0))
def test_gate_accepts_legitimate_exponents(p, theta):
    cfg = load_config(None, {"weight.p": repr(p), "weight.theta": repr(theta),
                             "maximal.s": repr(min(1.0 + (p - 1.0) / 2.0, 1.5))})
    cfg.check_hypotheses()
