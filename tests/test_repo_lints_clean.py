"""Tier-1 gate: the shipped tree must be lint-clean.

Runs the full analyzer stack in-process (no subprocess) over ``src`` and
``benchmarks`` so a violating commit fails the plain test suite, not
just an optional CI step: the six determinism rules, the atomicity call
graph, the trace-phase schema rule, stale-pragma detection, and the
registry/checker coverage check.
"""

import ast
import os

from repro.lint import lint_paths
from repro.lint.base import FileContext
from repro.lint.callgraph import ProjectIndex
from repro.lint.engine import iter_python_files
from repro.lint.schema import (
    TRACE_SCHEMA,
    check_registry_coverage,
    collect_record_call_sites,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped_targets():
    targets = [os.path.join(REPO_ROOT, "src")]
    benchmarks = os.path.join(REPO_ROOT, "benchmarks")
    if os.path.isdir(benchmarks):
        targets.append(benchmarks)
    return targets


def test_src_and_benchmarks_are_lint_clean():
    # warn_unused_suppressions makes stale pragmas a gate failure too:
    # an exception whose reason is gone must be deleted, not inherited.
    violations = lint_paths(shipped_targets(), warn_unused_suppressions=True)
    assert violations == [], "determinism lint found violations:\n" + "\n".join(
        v.format() for v in violations
    )


def test_cluster_package_is_covered_by_discovery():
    """The gate must actually see ``repro.cluster`` — a discovery miss
    would make the first assertion pass vacuously for the new package."""
    src = os.path.join(REPO_ROOT, "src")
    discovered = set(iter_python_files([src]))
    cluster_dir = os.path.join(src, "repro", "cluster")
    expected = {
        os.path.join(cluster_dir, name)
        for name in os.listdir(cluster_dir)
        if name.endswith(".py")
    }
    assert expected  # the package exists and has modules
    assert expected <= discovered
    # The recovery subsystem's modules are where nondeterminism would be
    # easiest to smuggle in (wall-clock pacing, random batch orders), so
    # pin them by name rather than trusting the directory listing alone.
    for name in ("recovery.py", "migration.py", "faults.py"):
        assert os.path.join(cluster_dir, name) in discovered, name


def test_trace_registry_and_checkers_are_consistent():
    """Every checker-handled phase is declared; every declared, checked
    phase is handled.  This is the registry/checker half of the schema
    gate — the call-site half runs inside the lint pass above."""
    assert check_registry_coverage() == []


def test_every_record_call_site_is_declared():
    """AST-walk the shipped tree: each literal ``tracer.record`` site
    names a registered category and phase.  Guards against a new trace
    phase landing without a registry entry (the lint would catch it too,
    but this assertion fails with the site list, not a lint report)."""
    sites = collect_record_call_sites(shipped_targets())
    assert len(sites) >= 15, "discovery collapsed — record sites missing"
    for path, lineno, category, label in sites:
        if category is None:
            continue
        assert category in TRACE_SCHEMA, f"{path}:{lineno}: {category!r}"
        if label is not None:
            assert label in TRACE_SCHEMA[category], f"{path}:{lineno}: {label!r}"


def test_bench_artifacts_at_repo_root_are_schema_valid():
    """Every checked-in ``BENCH_*.json`` must validate against the one
    artifact schema, ``repro.exp/v1`` — a drifted writer, a hand-edited
    artifact or a foreign one fails the plain suite."""
    from repro.exp.artifact import load_payload, repo_root_artifacts

    artifacts = repo_root_artifacts()
    assert artifacts, "no BENCH_*.json at repo root — regenerate them"
    for path in artifacts:
        load_payload(str(path))  # validates; raises ExpError on drift


def test_experiment_registry_is_closed_both_ways():
    """Every ``repro.exp`` spec is runnable, registered in the bench
    registry, and covered by a suite — and every suite member exists."""
    from repro.exp.suites import check_exp_registry

    assert check_exp_registry() == []


def test_cluster_atomic_regions_are_declared_and_proven():
    """The ring-surgery/handoff regions carry the atomic contract both
    ways: the runtime marker is on the bound callables, and the static
    call graph proves no transitive yield path out of any of them."""
    from repro.cluster import FailoverCoordinator, Membership, RfpCluster, TxnManager
    from repro.cluster.migration import RangeMigration, VnodeMigration
    from repro.cluster.recovery import RecoveryCoordinator
    from repro.sim import is_atomic_section

    expected = [
        FailoverCoordinator._on_status_change,
        FailoverCoordinator.reinstate,
        Membership._transition,
        Membership.promote,
        # The shared migration engine (recovery inherits all three).
        RangeMigration._finish_aborted,
        RangeMigration._replan,
        RangeMigration.note_write,
        RecoveryCoordinator._handoff,
        RecoveryCoordinator._on_status_change,
        # The rebalance cutover: the token-ownership flip must be as
        # atomic as the recovery handoff it generalizes.
        VnodeMigration._cutover,
        VnodeMigration._on_status_change,
        RfpCluster.kill,
        RfpCluster.note_put,
        # The transaction layer's three promised instants: a lock grant,
        # the commit visibility flip, and the abort release.
        TxnManager.grant,
        TxnManager.commit,
        TxnManager.abort,
    ]
    for fn in expected:
        assert is_atomic_section(fn), fn.__qualname__

    contexts = []
    for path in iter_python_files([os.path.join(REPO_ROOT, "src")]):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        contexts.append(FileContext(path=path, tree=ast.parse(text), source=text))
    index = ProjectIndex.build(contexts)
    declared = {info.qualname for info in index.functions if info.atomic_declared}
    assert {fn.__qualname__ for fn in expected} <= declared
    for info in index.functions:
        if info.atomic_declared:
            assert not info.is_generator, info.qualname
            assert index.yield_path(info) is None, info.qualname


CLOSED_LOOP = os.path.join("src", "repro", "workloads", "loop.py")


def shipped_code():
    """``(path relative to the repo, parsed tree)`` for ``src`` and ``examples``."""
    roots = [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "examples")]
    for path in iter_python_files(roots):
        with open(path, "r", encoding="utf-8") as handle:
            yield os.path.relpath(path, REPO_ROOT), ast.parse(handle.read())


def calls_to(tree, name):
    """Every call in ``tree`` of a function or method called ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if called == name:
                yield node


def test_one_throughput_meter_behind_every_closed_loop():
    """Every closed-loop measurement runs through
    ``repro.workloads.ClosedLoop``: the only ``ThroughputMeter(...)``
    call in ``src`` and ``examples`` is the one inside it, so a new
    hand-written loop with its own meter and warm-up fails here."""
    calls = [
        path for path, tree in shipped_code() for _ in calls_to(tree, "ThroughputMeter")
    ]
    assert calls == [CLOSED_LOOP], calls


def test_one_latency_tally_behind_every_measurement():
    """Per-operation latency is kept only by what drives the operations:
    the only ``Tally(...)`` in ``src`` and ``examples`` named for latency
    (by its name argument or by what it is assigned to) is
    ``ClosedLoop``'s, so a client, server or shard that starts keeping
    its own copy of every operation's latency fails here."""

    def mentions_latency(node):
        return "latency" in ast.unparse(node).lower()

    sites = set()
    for path, tree in shipped_code():
        for call in calls_to(tree, "Tally"):
            arguments = list(call.args) + [kw.value for kw in call.keywords]
            if any(mentions_latency(argument) for argument in arguments):
                sites.add((path, call.lineno))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(mentions_latency(target) for target in targets):
                    sites.update((path, c.lineno) for c in calls_to(node.value, "Tally"))
    assert [path for path, _ in sorted(sites)] == [CLOSED_LOOP], sorted(sites)


ENGINE = os.path.join("src", "repro", "sim", "core.py")
ENGINE_QUEUES = {"_heap", "_ready", "_seq"}


def test_only_the_engine_touches_its_queues():
    """Every fast path's order argument (the ready deque, the inline
    resume, the deadline FIFOs) rests on seqs being taken and entries
    being pushed in ``repro/sim/core.py`` alone: no other module in
    ``src`` or ``examples`` reads or writes a simulator's ``_heap``,
    ``_ready`` or ``_seq``."""
    sites = [
        (path, node.lineno, node.attr)
        for path, tree in shipped_code()
        if path != ENGINE
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ENGINE_QUEUES
    ]
    assert sites == [], sites


def test_only_the_kv_driver_runs_kv_loops():
    """A KV measurement is a ``kv`` spec: in ``src`` only the ``kv``
    driver, the calibration self-check and ext-lock-bypass's Jakiro half
    call ``run_kv(``, so a new hand-written KV loop fails here."""
    sites = set()
    for path, tree in shipped_code():
        if not path.startswith("src"):
            continue
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef) and any(
                True for _ in calls_to(function, "run_kv")
            ):
                sites.add((path, function.name))
    assert sites == {
        (os.path.join("src", "repro", "exp", "drivers.py"), "run_kv_condition"),
        (os.path.join("src", "repro", "bench", "validation.py"), "run_validation"),
        (os.path.join("src", "repro", "bench", "extensions.py"), "run_ext_lock_bypass"),
    }, sorted(sites)
