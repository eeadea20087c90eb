"""The verdict ledger, presets/ledger.json: for each config, the verdict and
deciding criterion today's code gives each target, the verdict the paper
predicts, why, and whether the two agree.

A target the ledger does not list reads pass today, and the paper predicts
pass.  The data checks read no run; one test per config runs its nine
targets once, at the config's own seed, and compares the verdicts and the
names of the deciding criteria, never their digits.
"""

import importlib.util
import json
import pathlib

import pytest

from psdolab.config import load_config
from psdolab.experiments import VERIFY_TARGETS, run_all

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "presets" / "ledger.json").read_text())
VERDICTS = {"pass", "fail", "hypothesis_unverified"}
STATUSES = {"agree", "disagree", "agree-by-accident"}
PASS = {"verdict": "pass", "decided_by": None}


def _config(entry):
    if "config" in entry:
        return load_config(ROOT / entry["config"])
    return load_config(None, entry["overrides"])


def test_ledger_rows_are_consistent():
    """Unique names, each with one preset path or one set of overrides; every
    preset file has an entry; every row names a verify target, holds only
    what differs from pass/pass, and its status says whether today's verdict
    is the paper's; a pass decides by nothing, and each row has a reason."""
    names = [entry["name"] for entry in LEDGER]
    assert len(set(names)) == len(names)
    presets = {entry["config"] for entry in LEDGER if "config" in entry}
    assert presets == {f"presets/{p.name}" for p in (ROOT / "presets").glob("*.cfg")}
    for entry in LEDGER:
        assert set(entry) - {"targets"} in ({"name", "config"}, {"name", "overrides"}), entry["name"]
        for target, row in entry.get("targets", {}).items():
            where = f"{entry['name']} {target}"
            assert target in VERIFY_TARGETS, where
            assert set(row) == {"verdict", "decided_by", "paper", "status", "reason"}, where
            assert {row["verdict"], row["paper"]} <= VERDICTS, where
            assert {row["verdict"], row["paper"]} != {"pass"}, where
            assert (row["decided_by"] is None) == (row["verdict"] == "pass"), where
            assert row["status"] in STATUSES, where
            assert (row["status"] == "disagree") == (row["verdict"] != row["paper"]), where
            assert row["reason"].strip(), where


def test_benchmark_expected_verdicts_are_the_ledgers():
    """benchmarks/expected.json's seed-7 verdicts for each workload are the
    ledger's for the same config: the worker's preset path and overrides
    are the ledger entry's."""
    spec = importlib.util.spec_from_file_location("worker", ROOT / "benchmarks" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    recorded = json.loads((ROOT / "benchmarks" / "expected.json").read_text())["verdicts"]
    entries = {entry["name"]: entry for entry in LEDGER}
    ledger_names = {"default": "default", "fine": "grid-n 2048", "rough": "rough_bounded"}
    assert set(ledger_names) == set(worker.WORKLOADS)
    for workload, name in ledger_names.items():
        entry = entries[name]
        assert worker.WORKLOADS[workload] == (entry.get("config"), entry.get("overrides", {}))
        rows = entry.get("targets", {})
        assert recorded[workload]["7"] == {
            target: rows.get(target, PASS)["verdict"] for target in VERIFY_TARGETS}


@pytest.mark.parametrize("entry", LEDGER, ids=[entry["name"] for entry in LEDGER])
def test_ledger_holds_todays_verdicts(entry):
    """Every target's verdict and deciding criterion's name on the config are
    the ledger's, at the config's seed."""
    cfg = _config(entry)
    assert cfg.seed == 7
    rows = {target: entry.get("targets", {}).get(target, PASS) for target in VERIFY_TARGETS}
    got = {target: (report.verdict, getattr(report.decided_by, "name", None))
           for target, report in run_all(cfg).items()}
    assert got == {target: (row["verdict"], row["decided_by"]) for target, row in rows.items()}
