"""Declarative experiment specs: conditions as a cross-product grid.

An :class:`ExperimentSpec` names a driver plus a ``base`` settings
mapping and ``axes`` — each axis a sequence of values (or a
:class:`Sweep` that picks its granularity from the measurement
:class:`~repro.bench.harness.Scale`).  :meth:`ExperimentSpec.expand`
takes the cross-product of the axes over the base and materializes one
frozen :class:`Condition` per point, routing every setting into its
typed dimension: :class:`Workload`, :class:`Topology`, the
:class:`FaultPoint` schedule, the paradigm string, and the scale.
Anything the router does not recognize lands in ``Condition.settings``
for the driver (phase layout, audit selection, ...).

Fault times and measurement phases are declared as *fractions* of the
measurement window, so the same spec runs unchanged at fast and full
scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.harness import Scale
from repro.cluster.faults import Fault
from repro.errors import ExpError

__all__ = [
    "Condition",
    "ExperimentSpec",
    "FaultPoint",
    "Phase",
    "Sweep",
    "Topology",
    "Workload",
]


@dataclass(frozen=True)
class Sweep:
    """An axis whose granularity depends on the measurement scale."""

    fast: Tuple[object, ...]
    full: Tuple[object, ...]

    def resolve(self, scale: Scale) -> Tuple[object, ...]:
        return self.full if scale.full else self.fast


@dataclass(frozen=True)
class FaultPoint:
    """A scripted fault at a *fraction* of the measurement window."""

    at_frac: float
    action: str
    shard: str

    def resolve(self, window_us: float) -> Fault:
        return Fault(window_us * self.at_frac, self.action, self.shard)


@dataclass(frozen=True)
class Phase:
    """One measurement phase: ``[start_frac, end_frac]`` of the window.

    Both edges are closed: :class:`~repro.workloads.ClosedLoop` counts a
    completion at a shared edge in both adjacent phases.
    """

    name: str
    start_frac: float
    end_frac: float


@dataclass(frozen=True)
class Workload:
    """The offered-load dimension of a condition.

    ``kind`` selects the driver-side load generator: ``"ycsb"`` (finite
    GET/PUT streams from :class:`~repro.workloads.ycsb.YcsbWorkload`),
    ``"ledger"`` (the cluster benches' infinite loop with disjoint write
    ownership and an acknowledged-write ledger for durability audits),
    ``"echo"`` (the RDTSC-controlled process-time RPC), or
    ``"raw-verbs"`` (bare synchronous RDMA read/write loops).
    """

    kind: str = "ycsb"
    #: ``None`` means "use ``scale.records``".
    records: Optional[int] = None
    #: Upper bound applied after resolution (audited ledgers stay small
    #: enough to check exhaustively at any scale).
    records_cap: Optional[int] = None
    get_fraction: float = 0.95
    value_bytes: int = 32
    distribution: str = "uniform"
    seed: int = 42
    #: echo only: exact server-side process time per request.
    process_us: float = 0.0
    #: echo only: reply payload size.
    response_bytes: int = 32
    #: ledger only: one PUT every ``put_every`` operations.
    put_every: int = 4

    def resolve_records(self, scale: Scale) -> int:
        records = self.records if self.records is not None else scale.records
        if self.records_cap is not None:
            records = min(records, self.records_cap)
        return records


@dataclass(frozen=True)
class Topology:
    """The cluster-shape dimension of a condition."""

    machines: int = 8
    shards: int = 1
    replication_factor: int = 1
    server_threads: int = 6
    client_threads: int = 35
    #: First machine index clients occupy (cluster driver).  ``None``
    #: means "right after the shards"; a fixed value keeps client
    #: placement identical across a shard-count sweep.
    client_slot_start: Optional[int] = None


_WORKLOAD_FIELDS = {f.name for f in fields(Workload)}
_TOPOLOGY_FIELDS = {f.name for f in fields(Topology)}
_RESERVED = {"paradigm", "faults"}


@dataclass(frozen=True)
class Condition:
    """One fully-materialized point of the matrix."""

    experiment_id: str
    label: str
    paradigm: str
    workload: Workload
    topology: Topology
    faults: Tuple[FaultPoint, ...]
    scale: Scale
    #: The axis coordinates that produced this condition.
    axis: Mapping[str, object] = field(default_factory=dict)
    #: Driver-specific residue (phases, audits, timeouts, ...).
    settings: Mapping[str, object] = field(default_factory=dict)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly record of the condition for artifacts."""
        return {
            "paradigm": self.paradigm,
            "workload": {
                "kind": self.workload.kind,
                "records": self.workload.resolve_records(self.scale),
                "get_fraction": self.workload.get_fraction,
                "value_bytes": self.workload.value_bytes,
                "distribution": self.workload.distribution,
                "seed": self.workload.seed,
            },
            "topology": {
                "machines": self.topology.machines,
                "shards": self.topology.shards,
                "replication_factor": self.topology.replication_factor,
                "server_threads": self.topology.server_threads,
                "client_threads": self.topology.client_threads,
            },
            "faults": [
                {"at_frac": f.at_frac, "action": f.action, "shard": f.shard}
                for f in self.faults
            ],
            "axis": dict(self.axis),
        }


def _route(
    experiment_id: str,
    label: str,
    merged: Mapping[str, object],
    axis: Mapping[str, object],
    scale: Scale,
) -> Condition:
    """Split a flat settings mapping into the condition's dimensions."""
    workload_kwargs: Dict[str, object] = {}
    topology_kwargs: Dict[str, object] = {}
    settings: Dict[str, object] = {}
    paradigm = "default"
    faults: Tuple[FaultPoint, ...] = ()
    for key, value in merged.items():
        if key == "paradigm":
            paradigm = str(value)
        elif key == "faults":
            faults = tuple(value)  # type: ignore[arg-type]
        elif key in _WORKLOAD_FIELDS:
            workload_kwargs[key] = value
        elif key in _TOPOLOGY_FIELDS:
            topology_kwargs[key] = value
        else:
            settings[key] = value
    for point in faults:
        if not isinstance(point, FaultPoint):
            raise ExpError(
                f"{experiment_id}: faults must be FaultPoint instances, "
                f"got {point!r}"
            )
        if not 0.0 < point.at_frac < 1.0:
            raise ExpError(
                f"{experiment_id}: fault fraction {point.at_frac} outside "
                "(0, 1) — faults are declared relative to the window"
            )
    return Condition(
        experiment_id=experiment_id,
        label=label,
        paradigm=paradigm,
        workload=Workload(**workload_kwargs),  # type: ignore[arg-type]
        topology=Topology(**topology_kwargs),  # type: ignore[arg-type]
        faults=faults,
        scale=scale,
        axis=dict(axis),
        settings=settings,
    )


def _axis_label(axis: Mapping[str, object]) -> str:
    if not axis:
        return "base"
    return ",".join(f"{key}={value}" for key, value in axis.items())


AxisValues = Union[Sweep, Sequence[object]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One declared experiment: a driver plus its condition matrix."""

    experiment_id: str
    title: str
    driver: str
    base: Mapping[str, object] = field(default_factory=dict)
    #: Axis name -> values; the cross-product (in declaration order)
    #: over ``base`` yields the condition grid.
    axes: Mapping[str, AxisValues] = field(default_factory=dict)
    #: Off-grid conditions appended after the cross-product (e.g. the
    #: single in-bound-peak measurement fig. 3 pairs with its sweep).
    extras: Tuple[Mapping[str, object], ...] = ()
    #: Axis names that are driver-read knobs rather than workload or
    #: topology fields; they route into ``Condition.settings`` like any
    #: unrecognized base key, but declaring them here lets the spec
    #: sweep them (e.g. ``rebalance`` on/off) without tripping the
    #: unknown-axis guard below; they also name an extra in its label.
    setting_axes: Tuple[str, ...] = ()
    paper_expectation: str = ""

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ExpError("experiment_id must be non-empty")
        if not self.driver:
            raise ExpError(f"{self.experiment_id}: driver must be non-empty")
        for name in self.axes:
            if name in self.setting_axes:
                continue
            if name in _RESERVED or name in _WORKLOAD_FIELDS | _TOPOLOGY_FIELDS:
                continue
            # Unrecognized axis names would silently sweep a setting no
            # driver reads; fail at declaration time instead.
            raise ExpError(
                f"{self.experiment_id}: axis {name!r} is not a workload, "
                "topology, paradigm, or faults dimension"
            )

    def expand(self, scale: Scale) -> Tuple[Condition, ...]:
        """Materialize the condition grid for one measurement scale."""
        names = list(self.axes)
        value_lists = []
        for name in names:
            values = self.axes[name]
            resolved = (
                values.resolve(scale)
                if isinstance(values, Sweep)
                else tuple(values)
            )
            if not resolved:
                raise ExpError(f"{self.experiment_id}: axis {name!r} is empty")
            value_lists.append(resolved)
        conditions = []
        seen = set()
        for point in itertools.product(*value_lists) if names else [()]:
            axis = dict(zip(names, point))
            merged = dict(self.base)
            merged.update(axis)
            label = _axis_label(axis)
            conditions.append(
                _route(self.experiment_id, label, merged, axis, scale)
            )
        for extra in self.extras:
            merged = dict(self.base)
            merged.update(extra)
            axis = {
                key: value
                for key, value in extra.items()
                if key in _RESERVED | _WORKLOAD_FIELDS | _TOPOLOGY_FIELDS
                or key in self.setting_axes
            }
            conditions.append(
                _route(self.experiment_id, _axis_label(axis), merged, axis, scale)
            )
        for condition in conditions:
            if condition.label in seen:
                raise ExpError(
                    f"{self.experiment_id}: duplicate condition label "
                    f"{condition.label!r}"
                )
            seen.add(condition.label)
        if not conditions:
            raise ExpError(f"{self.experiment_id}: spec expands to no conditions")
        return tuple(conditions)


def phases_of(condition: Condition) -> Tuple[Phase, ...]:
    """The condition's measurement phases (default: one post-warmup one)."""
    declared = condition.settings.get("phases")
    if declared:
        phases = tuple(declared)  # type: ignore[arg-type]
    else:
        phases = (Phase("run", condition.scale.warmup_fraction, 1.0),)
    last = 0.0
    for phase in phases:
        if not (0.0 <= phase.start_frac < phase.end_frac <= 1.0):
            raise ExpError(
                f"{condition.experiment_id}: phase {phase.name!r} bounds "
                f"({phase.start_frac}, {phase.end_frac}) invalid"
            )
        if phase.start_frac < last:
            raise ExpError(
                f"{condition.experiment_id}: phases must not overlap; "
                f"{phase.name!r} starts before the previous phase ends"
            )
        last = phase.end_frac
    return phases
