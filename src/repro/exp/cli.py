"""``python -m repro.exp`` — run suites, list the registry, compare runs.

Exit codes follow the convention trajectory tooling scripts against:
``0`` success (and, for ``compare``, zero regressions), ``1`` a clean
comparison that found regressions, or a condition that failed (a
breached audit, an invariant violation: ``error:
<suite>/<experiment>/<label>: <reason>``), ``2`` any usage or artifact
error (unknown suite, malformed artifact, mismatched schemas) — each
reported as one clear line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench.harness import Scale
from repro.errors import ReproError
from repro.exp.artifact import load_payload
from repro.exp.library import SPECS
from repro.exp.observers import ProgressObserver
from repro.exp.runner import ConditionFailed, default_observers
from repro.exp.suites import SUITES, run_suite
from repro.exp.trajectory import compare_payloads, format_comparison

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="declarative experiment suites and perf trajectory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and write BENCH_<suite>.json")
    run.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    run.add_argument(
        "--full", action="store_true", help="report scale instead of fast"
    )
    run.add_argument(
        "--out", default=None, help="directory for the artifact (default: repo root)"
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-condition progress"
    )

    sub.add_parser("list", help="list suites and their experiments")

    compare = sub.add_parser(
        "compare", help="diff deterministic metrics of two artifacts"
    )
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative drop tolerated on higher-is-better metrics",
    )
    compare.add_argument(
        "--verbose", action="store_true", help="show neutral metric changes too"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:  # Refuse an unwritable directory before any condition runs.
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
    except OSError as error:
        print(f"error: cannot write {args.out}: {error.strerror}", file=sys.stderr)
        return 2
    scale = Scale.full_scale() if args.full else Scale.fast()
    observers = list(default_observers())
    if not args.quiet:
        observers.append(ProgressObserver())
    _, _, path = run_suite(
        args.suite, scale=scale, observers=observers, out_dir=args.out
    )
    print(f"wrote {path}")
    return 0


def _cmd_list() -> int:
    for suite in sorted(SUITES):
        print(f"{suite}: {', '.join(SUITES[suite])}")
    orphans = sorted(
        set(SPECS) - {sid for members in SUITES.values() for sid in members}
    )
    if orphans:
        print(f"(unassigned specs: {', '.join(orphans)})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_payload(args.baseline)
    candidate = load_payload(args.candidate)
    kwargs = {}
    if args.tolerance is not None:
        kwargs["rel_tolerance"] = args.tolerance
    comparison = compare_payloads(baseline, candidate, **kwargs)
    print(format_comparison(comparison, verbose=args.verbose))
    return 1 if comparison.regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_compare(args)
    except ConditionFailed as error:
        print(f"error: {args.suite}/{error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
