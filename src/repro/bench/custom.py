"""User-defined experiments from a JSON spec.

``python -m repro.bench --spec my.json`` runs a custom closed-loop KV
experiment without writing code.  Example spec::

    {
      "title": "jakiro vs serverreply across threads",
      "systems": ["jakiro", "serverreply"],
      "workload": {
        "records": 8192,
        "get_fraction": 0.95,
        "distribution": "uniform",
        "value_size": 32
      },
      "server_threads": [2, 4, 6],
      "client_threads": 35,
      "window_us": 2500
    }

Exactly one of ``server_threads`` / ``client_threads`` / ``value_size``
/ ``get_fraction`` may be a list — that becomes the sweep axis; the
cross product of systems × sweep points is measured.  Thread counts,
``value_size``, ``records`` and ``window_us`` must be positive and
``get_fraction`` lie in [0, 1]; :func:`load_spec` refuses anything else
with a :class:`~repro.errors.BenchError` naming the field.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from repro.bench.figures import ExperimentResult, _fmt
from repro.bench.harness import Scale, run_kv
from repro.bench.systems import SYSTEMS
from repro.errors import BenchError
from repro.workloads.value_sizes import FixedValues
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["load_spec", "run_custom"]

_SWEEPABLE = ("server_threads", "client_threads", "value_size", "get_fraction")
_DEFAULTS = {
    "server_threads": 6,
    "client_threads": 35,
    "value_size": 32,
    "get_fraction": 0.95,
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(field: str, value: Any) -> None:
    if not (_is_number(value) and isinstance(value, int) and value >= 1):
        raise BenchError(f"{field} must be a positive integer, got {value!r}")


def _fraction(field: str, value: Any) -> None:
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise BenchError(f"{field} must be a number in [0, 1], got {value!r}")


_CHECKS = {
    "server_threads": _positive_int,
    "client_threads": _positive_int,
    "value_size": _positive_int,
    "get_fraction": _fraction,
}


def load_spec(path: str) -> Dict:
    """Read and validate a custom-experiment spec.

    Every field :func:`run_custom` reads is type- and range-checked here,
    so a malformed spec fails with one :class:`BenchError` before any
    simulation starts.
    """
    with open(path, "r", encoding="utf-8") as source:
        spec = json.load(source)
    if not isinstance(spec, dict):
        raise BenchError("spec must be a JSON object")
    if not isinstance(spec.get("title", ""), str):
        raise BenchError(f"title must be a string, got {spec['title']!r}")
    systems = spec.get("systems", ["jakiro"])
    if isinstance(systems, str):
        systems = [systems]
    if not isinstance(systems, list) or not systems:
        raise BenchError(f"systems must be a name or a non-empty list, got {systems!r}")
    unknown = [
        name for name in systems if not isinstance(name, str) or name not in SYSTEMS
    ]
    if unknown:
        raise BenchError(f"unknown systems {unknown}; options: {sorted(SYSTEMS)}")
    spec["systems"] = systems
    workload = spec.get("workload", {})
    if not isinstance(workload, dict):
        raise BenchError(f"workload must be a JSON object, got {workload!r}")
    for key, check in _CHECKS.items():
        if key in workload:
            check(f"workload.{key}", workload[key])
        value = spec.get(key)
        if isinstance(value, list):
            if not value:
                raise BenchError(f"sweep {key} must list at least one point")
            for point in value:
                check(key, point)
        elif key in spec:
            check(key, value)
    if "records" in workload:
        _positive_int("workload.records", workload["records"])
    seed = workload.get("seed", 0)
    if not (_is_number(seed) and isinstance(seed, int) and seed >= 0):
        raise BenchError(f"workload.seed must be a non-negative integer, got {seed!r}")
    if workload.get("distribution", "uniform") not in ("uniform", "zipfian"):
        raise BenchError(
            "workload.distribution must be 'uniform' or 'zipfian', "
            f"got {workload['distribution']!r}"
        )
    window = spec.get("window_us", 1.0)
    if not (_is_number(window) and math.isfinite(window) and window > 0):
        raise BenchError(f"window_us must be a positive number, got {window!r}")
    sweeps = [key for key in _SWEEPABLE if isinstance(spec.get(key), list)]
    if len(sweeps) > 1:
        raise BenchError(f"only one sweep axis allowed, got {sweeps}")
    spec["_sweep_axis"] = sweeps[0] if sweeps else None
    return spec


def run_custom(spec: Dict, scale: Scale = Scale.fast()) -> ExperimentResult:
    """Run a loaded spec; one row per (sweep point)."""
    workload_spec = dict(spec.get("workload", {}))
    systems: List[str] = spec["systems"]
    axis = spec.get("_sweep_axis")
    points = spec.get(axis, [None]) if axis else [None]
    window = float(spec.get("window_us", scale.window_us))
    base_settings = dict(_DEFAULTS)
    for key in _SWEEPABLE:
        if key in workload_spec:
            base_settings[key] = workload_spec.pop(key)
        if key in spec and not isinstance(spec[key], list):
            base_settings[key] = spec[key]
    rows = []
    for point in points:
        settings = dict(base_settings)
        if axis is not None:
            settings[axis] = point
        workload = WorkloadSpec(
            records=int(workload_spec.get("records", scale.records)),
            get_fraction=float(settings["get_fraction"]),
            distribution=workload_spec.get("distribution", "uniform"),
            value_sizes=FixedValues(int(settings["value_size"])),
            seed=int(workload_spec.get("seed", 42)),
        )
        row = [point if point is not None else "-"]
        for system in systems:
            result = run_kv(
                system,
                workload,
                server_threads=int(settings["server_threads"]),
                client_threads=int(settings["client_threads"]),
                scale=Scale(window_us=window, records=workload.records),
            )
            row.append(_fmt(result.throughput_mops))
        rows.append(row)
    return ExperimentResult(
        "custom",
        spec.get("title", "custom experiment"),
        [axis or "point"] + [f"{name}_mops" for name in systems],
        rows,
        paper_expectation="user-defined experiment",
    )
