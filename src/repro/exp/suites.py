"""Suites: named groups of specs with a checked-in artifact each.

``python -m repro.exp run <suite>`` runs every spec in the suite on the
shared :class:`~repro.exp.runner.ExperimentRunner` and writes the
suite's ``BENCH_<suite>.json`` at the repo root.  The tier-1 gate keeps
the registry honest in both directions via :func:`check_exp_registry`:
every spec must be runnable (known driver, non-empty expansion, id
registered with the ``repro.bench`` experiment registry) and every
suite member must be a declared spec — and every declared spec must
belong to a suite, so nothing silently drops out of the artifacts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import Scale
from repro.errors import ExpError
from repro.exp.artifact import build_payload, write_payload
from repro.exp.library import SPECS
from repro.exp.runner import ExperimentRunner, RunResult, default_observers

__all__ = ["SUITES", "check_exp_registry", "run_suite", "suite_artifact_path"]

#: Suite name -> ordered spec ids.  The artifact is ``BENCH_<suite>.json``.
SUITES: Dict[str, Tuple[str, ...]] = {
    "core": ("fig3", "fig4", "tab1"),
    "paper": ("fig9", "fig14", "fig15", "ext-ud-rpc", "breakdown"),
    "cluster": (
        "ext-cluster-scaling",
        "ext-cluster-failover",
        "ext-cluster-rejoin",
        "ext-cluster-rebalance",
        "ext-txn-structures",
    ),
}

#: src/repro/exp/suites.py -> repo root.
_REPO_ROOT = Path(__file__).resolve().parents[3]


def suite_artifact_path(suite: str, out_dir: Optional[str] = None) -> str:
    base = Path(out_dir) if out_dir is not None else _REPO_ROOT
    return str(base / f"BENCH_{suite}.json")


def run_suite(
    suite: str,
    scale: Scale = Scale.fast(),
    observers: Optional[Sequence] = None,
    out_dir: Optional[str] = None,
    write: bool = True,
) -> Tuple[Dict[str, object], List[RunResult], Optional[str]]:
    """Run one suite; returns ``(payload, results, path_written)``."""
    spec_ids = SUITES.get(suite)
    if spec_ids is None:
        raise ExpError(
            f"unknown suite {suite!r}; available: {sorted(SUITES)}"
        )
    runner = ExperimentRunner(
        observers=default_observers() if observers is None else observers
    )
    results = [runner.run(SPECS[spec_id], scale) for spec_id in spec_ids]
    payload = build_payload(suite, results, scale)
    path: Optional[str] = None
    if write:
        path = write_payload(payload, suite_artifact_path(suite, out_dir))
    return payload, results, path


def check_exp_registry() -> List[str]:
    """Cross-check specs, drivers, suites, and the bench registry.

    Returns human-readable problems (empty when consistent):

    - a spec keyed under a different id than it declares;
    - a spec naming an unregistered driver, or failing to expand;
    - a spec id missing from the ``repro.bench`` experiment registry
      (the CLI entry point users already know);
    - a suite referencing an undeclared spec, or a declared spec that
      no suite covers (it would silently drop out of the artifacts).
    """
    from repro.bench.experiments import EXPERIMENTS
    from repro.exp.drivers import DRIVERS

    problems: List[str] = []
    for spec_id, spec in sorted(SPECS.items()):
        if spec.experiment_id != spec_id:
            problems.append(
                f"spec registered as {spec_id!r} declares experiment_id "
                f"{spec.experiment_id!r}"
            )
        if spec.driver not in DRIVERS:
            problems.append(
                f"spec {spec_id!r} names unknown driver {spec.driver!r} "
                f"(registered: {sorted(DRIVERS)})"
            )
        try:
            conditions = spec.expand(Scale.fast())
        except ExpError as error:
            problems.append(f"spec {spec_id!r} does not expand: {error}")
        else:
            if not conditions:
                problems.append(f"spec {spec_id!r} expands to no conditions")
        if spec_id not in EXPERIMENTS:
            problems.append(
                f"spec {spec_id!r} is not registered in "
                "repro.bench.experiments.EXPERIMENTS"
            )
    covered = {spec_id for members in SUITES.values() for spec_id in members}
    for suite, members in sorted(SUITES.items()):
        for spec_id in members:
            if spec_id not in SPECS:
                problems.append(
                    f"suite {suite!r} references undeclared spec {spec_id!r}"
                )
    for spec_id in sorted(set(SPECS) - covered):
        problems.append(
            f"spec {spec_id!r} belongs to no suite — it would never be "
            "written to an artifact"
        )
    return problems
