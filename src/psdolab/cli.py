"""Command line interface.

`psdolab verify <target>` runs one experiment; `psdolab report all` runs
every target and writes an index.  Each run emits a canonical JSON report
(byte-stable for a fixed config and seed) plus a flat CSV table.  A
verdict other than "pass" is printed with the gate or criterion that decided
it.  Exit status is 0 only when every requested verdict is "pass" (README
lists the other codes).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import HypothesisViolation, load_config
from .experiments import VERIFY_TARGETS, run_all
from .report import overall_verdict, write_csv, write_json

__all__ = ["main"]


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="key=value config file")
    sp.add_argument("--seed", type=int, default=None,
                    help="override run.seed")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="override run.out report directory")
    sp.add_argument("--grid-n", type=int, default=None,
                    help="override grid.n")
    sp.add_argument("--grid-l", type=float, default=None,
                    help="override grid.l")


def _overrides(args: argparse.Namespace) -> dict:
    ov = {}
    if args.seed is not None:
        ov["run.seed"] = args.seed
    if args.out is not None:
        ov["run.out"] = args.out
    if args.grid_n is not None:
        ov["grid.n"] = args.grid_n
    if args.grid_l is not None:
        ov["grid.l"] = args.grid_l
    return ov


def _flat_rows(report):
    # one row per scalar so the table stays plot-ready
    rows = []
    for item in report.items:
        value = item["value"]
        if isinstance(value, dict):
            for key in sorted(value):
                v = value[key]
                if isinstance(v, bool):
                    rows.append((item["id"], key, int(v)))
                elif isinstance(v, (int, float)):
                    rows.append((item["id"], key, v))
        elif isinstance(value, (int, float)):
            rows.append((item["id"], "value", value))
    return rows


def _verdict_line(report) -> str:
    """The verdict, then the gate or criterion that decided a non-pass."""
    decided = report.decided_by
    return report.verdict if decided is None else f"{report.verdict}  {decided}"


def _emit(report, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{report.experiment}.json")
    write_json(report.to_json_dict(), json_path)
    write_csv(
        os.path.join(out_dir, f"{report.experiment}.csv"),
        ("id", "key", "value"),
        _flat_rows(report),
    )
    return json_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psdolab",
        description="Desk-scale verification harness for weighted bounds "
        "on oscillatory-kernel operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp_verify = sub.add_parser("verify", help="run one experiment")
    sp_verify.add_argument("target", choices=list(VERIFY_TARGETS))
    _add_common_flags(sp_verify)

    sp_report = sub.add_parser("report", help="run every experiment")
    sp_report.add_argument("what", choices=["all"])
    _add_common_flags(sp_report)

    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, _overrides(args))
    except HypothesisViolation as exc:  # a ValueError, so it is caught first
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            report = VERIFY_TARGETS[args.target](cfg)
            path = _emit(report, cfg.out_dir)
            print(f"{args.target}: {_verdict_line(report)}  [{path}]")
            return 0 if report.passed else 1

        reports = run_all(cfg)
        index = {}
        for name, report in reports.items():
            path = _emit(report, cfg.out_dir)
            print(f"{name:<13} {_verdict_line(report)}")
            index[name] = {
                "experiment": report.experiment,
                "verdict": report.verdict,
                "report": os.path.basename(path),
            }
        summary = {
            "config_hash": cfg.digest(),
            "seed": cfg.seed,
            "experiments": index,
            "verdict": overall_verdict(reports.values()),
        }
        summary_path = os.path.join(cfg.out_dir, "summary.json")
        write_json(summary, summary_path)
        print(f"summary: {summary['verdict']}  [{summary_path}]")
        return 0 if summary["verdict"] == "pass" else 1
    except Exception as exc:  # a fault of the program, not a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
