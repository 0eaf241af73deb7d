"""Command-line entry point: regenerate the paper's figures/tables.

Usage::

    python -m repro.bench                 # run everything, fast scale
    python -m repro.bench fig12 tab3      # run a subset
    python -m repro.bench --full          # report-quality windows
    python -m repro.bench --list          # show the registry
    python -m repro.bench --out out.txt   # also write the report to a file

An experiment that raises a library error (a breached audit or headline
check) stops the run with one ``error: <id>: ...`` line and exit 1 (a
failed condition of a declared spec names it as ``python -m repro.exp``
does: ``error: <suite>/<id>/<label>: ...``); the sections that finished
before it are still appended to ``--out``.  An
unwritable ``--out`` or ``--csv`` is one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import Scale
from repro.bench.report import format_result, write_csv
from repro.errors import ReproError
from repro.exp.runner import ConditionFailed
from repro.exp.suites import suite_of

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the evaluation of 'RFP' (EuroSys 2017).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use report-quality measurement windows (slower)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the ~30s calibration self-check instead of experiments",
    )
    parser.add_argument("--out", help="also append the report to this file")
    parser.add_argument("--csv", help="also write per-experiment CSVs to this directory")
    parser.add_argument(
        "--spec", help="run a user-defined experiment from this JSON spec file"
    )
    parser.add_argument(
        "--chart", action="store_true", help="also render terminal bar charts"
    )
    args = parser.parse_args(argv)

    if args.list:
        try:
            for experiment_id in sorted(EXPERIMENTS):
                print(f"{experiment_id:20s} {EXPERIMENTS[experiment_id].title}")
        except BrokenPipeError:  # piped into head/less that closed early
            pass
        return 0

    if args.validate:
        from repro.bench.validation import format_validation, run_validation

        checks = run_validation()
        print(format_validation(checks))
        return 0 if all(check.passed for check in checks) else 1

    try:  # Refuse an unwritable --csv or --out before anything runs.
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8"):
                pass
    except OSError as error:
        print(
            f"error: cannot write {error.filename}: {error.strerror}",
            file=sys.stderr,
        )
        return 2

    if args.spec:
        import json

        from repro.bench.custom import load_spec, run_custom

        scale = Scale.full_scale() if args.full else Scale.fast()
        try:
            result = run_custom(load_spec(args.spec), scale)
        except json.JSONDecodeError as error:
            print(f"error: {args.spec} is not valid JSON: {error}", file=sys.stderr)
            return 2
        except (ReproError, OSError) as error:
            # Malformed or unreadable spec: one clear line, no traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
        section = format_result(result)
        print(section)
        if args.csv:
            write_csv(result, args.csv)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as sink:
                sink.write(section + "\n")
        return 0

    selected = args.experiments or sorted(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    scale = Scale.full_scale() if args.full else Scale.fast()
    sections = []
    failed = False
    for experiment_id in selected:
        # Host wall time for CLI progress output only — never feeds a model.
        started = time.time()  # lint: disable=no-wall-clock
        try:
            result = run_experiment(experiment_id, scale)
        except ConditionFailed as error:
            print(f"error: {suite_of(experiment_id)}/{error}", file=sys.stderr)
            failed = True
            break
        except ReproError as error:
            print(f"error: {experiment_id}: {error}", file=sys.stderr)
            failed = True
            break
        elapsed = time.time() - started  # lint: disable=no-wall-clock
        section = format_result(result)
        sections.append(section)
        print(section)
        if args.chart:
            from repro.bench.charts import render_bars

            print()
            print(render_bars(result))
        print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
        if args.csv:
            write_csv(result, args.csv)
    if args.out and sections:
        with open(args.out, "a", encoding="utf-8") as sink:
            sink.write("\n\n".join(sections) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
