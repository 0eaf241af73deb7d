#!/usr/bin/env python3
"""Which ``src/`` functions does a measured run reach?

Runs, under one stdlib ``cProfile`` profiler, every experiment
registered in ``repro.bench.experiments.EXPERIMENTS`` at fast scale and
the four ``perf/`` workloads at scale 0.05 (one ``full`` sample each,
seed 1, through ``perf/worker.py``), imports included.  A function
counts as reached when the profiler saw its code object run at least
once.

A function's body lines are its non-blank, non-comment source lines
from its first body statement to its last line; lines of a function
nested inside it belong to the nested function.  For each ``src/``
module the script prints its function-body lines and how many of them
sit in unreached functions, then lists every unreached function.

Run (about six minutes on a 2-core host)::

    python3 tools/reach.py [--json PATH]

``--json PATH`` also writes the table and the list to ``PATH``.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import json
import os
import sys
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERF = os.path.join(ROOT, "perf")

#: Scale the ``perf/`` smoke tests use.
PERF_SCALE = 0.05
PERF_SEED = 1

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_lines(node: ast.AST) -> Set[int]:
    # A decorated function's code object starts at its first decorator
    # line, and that is the line the profiler reports; match either.
    return {node.lineno} | {d.lineno for d in node.decorator_list}


class Function:
    """One ``def`` in a source file, with the lines it owns."""

    def __init__(self, qualname: str, node: ast.AST, lines: Set[int]) -> None:
        self.qualname = qualname
        self.def_line = node.lineno
        self.first_lines = _first_lines(node)
        self.lines = lines


def _code_lines(source_lines: List[str], first: int, last: int) -> Set[int]:
    return {
        number
        for number in range(first, last + 1)
        if source_lines[number - 1].strip()
        and not source_lines[number - 1].lstrip().startswith("#")
    }


def functions_in(path: str) -> List[Function]:
    """Every function and method in ``path`` with the body lines it owns."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    source_lines = source.splitlines()
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                name = f"{prefix}{child.name}"
                lines = _code_lines(
                    source_lines, child.body[0].lineno, child.end_lineno
                )
                for inner in ast.walk(child):
                    if inner is not child and isinstance(inner, _FUNCTIONS):
                        start = min(_first_lines(inner))
                        lines -= set(range(start, inner.end_lineno + 1))
                found.append(Function(name, child, lines))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source, filename=path), "")
    return found


def profile_runs() -> Dict[str, Set[int]]:
    """Run every experiment and perf workload; return, per source file,
    the first lines of every code object the profiler saw."""
    sys.path[:0] = [SRC, PERF]
    profiler = cProfile.Profile()
    # Imports run under the profiler too: registries built at import
    # time (``EXPERIMENTS = _register()``) are reached code.
    profiler.enable()
    from repro.bench.experiments import EXPERIMENTS, run_experiment
    from repro.bench.harness import Scale

    import workloads
    import worker

    profiler.disable()
    for experiment_id in sorted(EXPERIMENTS):
        print(f"reach: experiment {experiment_id}", file=sys.stderr)
        profiler.enable()
        run_experiment(experiment_id, Scale.fast())
        profiler.disable()
    for name in workloads.WORKLOADS:
        print(f"reach: perf workload {name}", file=sys.stderr)
        profiler.enable()
        result = worker.sample(name, PERF_SEED, PERF_SCALE, "full")
        profiler.disable()
        if "check" in result:
            raise SystemExit(f"reach: {name} failed its check: {result['check']}")
    profiler.create_stats()
    seen: Dict[str, Set[int]] = {}
    for filename, first_line, _name in profiler.stats:
        seen.setdefault(os.path.abspath(filename), set()).add(first_line)
    return seen


def measure(seen: Dict[str, Set[int]]) -> Tuple[List[dict], List[dict]]:
    """Per-module line totals and the unreached functions."""
    modules: List[dict] = []
    unreached: List[dict] = []
    package_root = os.path.join(SRC, "repro")
    for directory, _dirs, files in sorted(os.walk(package_root)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
            hits = seen.get(os.path.abspath(path), set())
            body = missed = 0
            for function in functions_in(path):
                body += len(function.lines)
                if function.first_lines & hits:
                    continue
                missed += len(function.lines)
                unreached.append(
                    {
                        "module": module,
                        "line": function.def_line,
                        "function": function.qualname,
                        "lines": len(function.lines),
                    }
                )
            modules.append(
                {"module": module, "body_lines": body, "unreached_lines": missed}
            )
    return modules, unreached


def totals(modules: List[dict]) -> Dict[str, int]:
    return {
        "body_lines": sum(row["body_lines"] for row in modules),
        "unreached_lines": sum(row["unreached_lines"] for row in modules),
    }


def report(modules: List[dict], unreached: List[dict]) -> str:
    width = max(len(row["module"]) for row in modules)
    out = [f"{'module':{width}s}  {'body':>6s}  {'unreached':>9s}"]
    for row in modules:
        out.append(
            f"{row['module']:{width}s}  {row['body_lines']:6d}  "
            f"{row['unreached_lines']:9d}"
        )
    body, missed = totals(modules).values()
    out.append(f"{'total':{width}s}  {body:6d}  {missed:9d}")
    out.append(f"reached {body - missed} of {body} function-body lines")
    out.append("")
    out.append(f"unreached functions ({len(unreached)}):")
    for entry in unreached:
        out.append(
            f"  {entry['module']}:{entry['line']} {entry['function']} "
            f"({entry['lines']} lines)"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the data here")
    args = parser.parse_args(argv)
    modules, unreached = measure(profile_runs())
    print(report(modules, unreached))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "totals": totals(modules),
                    "modules": modules,
                    "unreached": unreached,
                },
                handle,
                indent=1,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
