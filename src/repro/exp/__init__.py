"""Declarative experiment matrix, run artifacts, and perf trajectory.

Every number in the paper comes from a (workload x topology x fault plan
x paradigm) grid.  This package makes that grid a first-class object:

- :mod:`repro.exp.spec` — :class:`ExperimentSpec` declares an experiment
  as a cross-product of axes over workload, cluster topology,
  :class:`FaultPoint` schedules, paradigm/mode, and measurement
  :class:`~repro.bench.harness.Scale`.
- :mod:`repro.exp.runner` — :class:`ExperimentRunner` expands the
  matrix, runs each condition on a fresh seeded simulator, and streams
  lifecycle events to pluggable :class:`~repro.exp.observers.RunObserver`
  hooks (progress, invariant-checker attachment).
- :mod:`repro.exp.drivers` — the condition drivers (raw verbs, the
  controlled paradigm grid, closed-loop KV, the full cluster
  fault/recovery machinery) that the migrated benchmarks share instead
  of re-implementing.
- :mod:`repro.exp.artifact` — the versioned, schema-validated
  ``BENCH_<suite>.json`` run-artifact layer (deterministic metrics
  pinned, host wall times flagged unpinned, git SHA + scale provenance).
- :mod:`repro.exp.trajectory` — ``python -m repro.exp compare A B``
  diffs deterministic metrics across runs/PRs and flags regressions.
- :mod:`repro.exp.suites` — named suites mapping experiment specs to one
  artifact each; ``python -m repro.exp run <suite>`` regenerates it.
"""

from __future__ import annotations

from repro.exp.artifact import deterministic_view, validate_artifact
from repro.exp.library import SPECS
from repro.exp.observers import (
    InvariantObserver,
    ProgressObserver,
    RunObserver,
)
from repro.exp.runner import (
    ConditionContext,
    ConditionOutcome,
    ExperimentRunner,
    RunResult,
)
from repro.exp.spec import (
    Condition,
    ExperimentSpec,
    FaultPoint,
    Phase,
    Sweep,
    Topology,
    Workload,
)
from repro.exp.suites import SUITES, check_exp_registry, run_suite

__all__ = [
    "Condition",
    "ConditionContext",
    "ConditionOutcome",
    "ExperimentRunner",
    "ExperimentSpec",
    "FaultPoint",
    "InvariantObserver",
    "Phase",
    "ProgressObserver",
    "RunObserver",
    "RunResult",
    "SPECS",
    "SUITES",
    "Sweep",
    "Topology",
    "Workload",
    "check_exp_registry",
    "deterministic_view",
    "run_suite",
    "validate_artifact",
]
