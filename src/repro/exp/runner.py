"""The experiment runner: matrix expansion + observed condition runs.

:class:`ExperimentRunner` is infrastructure-free orchestration: it
expands an :class:`~repro.exp.spec.ExperimentSpec` into conditions, hands
each to its registered driver with a fresh :class:`ConditionContext`,
and streams lifecycle events to the subscribed observers.  Drivers
create their simulator and tracers *through* the context so observers
see them (progress, invariant-checker attachment) without the driver
knowing any observer exists.

Wall-clock seconds per condition are captured around the driver call and
carried as host-dependent data — they are flagged ``unpinned`` in run
artifacts and never participate in determinism checks.
A failed condition (a breached audit, a checker's violation) stops the
run with :class:`ConditionFailed`; a malformed spec stays an ``ExpError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import Scale
from repro.core.config import RfpConfig
from repro.errors import BenchError, ExpError, ReproError
from repro.exp.observers import RunObserver
from repro.exp.spec import Condition, ExperimentSpec
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

__all__ = [
    "ConditionContext",
    "ConditionFailed",
    "ConditionOutcome",
    "Driver",
    "ExperimentRunner",
    "RunResult",
]

#: A driver runs one condition and returns its deterministic metrics.
Driver = Callable[["ConditionContext"], Mapping[str, object]]


class ConditionFailed(BenchError):
    """One condition failed: ``<experiment>/<label>: <reason>``."""


class ConditionContext:
    """What a driver sees while running one condition.

    ``make_simulator`` / ``publish_tracer`` exist so lifecycle observers
    are told about the simulator and every tracer; ``checkers`` is
    populated by an :class:`~repro.exp.observers.InvariantObserver` (if
    subscribed) and read back by driver-side audits.  ``samples`` holds
    per-operation arrays (latencies) for report shaping; they reach the
    outcome, never the artifact.
    """

    def __init__(
        self,
        condition: Condition,
        notify: Callable[[str], Callable[..., None]],
    ) -> None:
        self.condition = condition
        self.simulator: Optional[Simulator] = None
        self.tracers: Dict[str, Tracer] = {}
        self.checkers: Dict[str, object] = {}
        self.samples: Dict[str, np.ndarray] = {}
        self._notify = notify

    def make_simulator(self) -> Simulator:
        """Fresh simulator for this condition; observers are told."""
        if self.simulator is not None:
            raise ExpError(
                f"{self.condition.experiment_id}: condition "
                f"{self.condition.label!r} already has a simulator — each "
                "condition runs on exactly one fresh simulator"
            )
        self.simulator = Simulator()
        self._notify("simulator_created")(self, self.simulator)
        return self.simulator

    def publish_tracer(
        self,
        name: str,
        tracer: Tracer,
        kind: str,
        rfp_config: Optional[RfpConfig] = None,
    ) -> Tracer:
        """Announce a tracer so observers can attach checkers to it."""
        if name in self.tracers:
            raise ExpError(f"tracer {name!r} published twice")
        self.tracers[name] = tracer
        self._notify("tracer_created")(self, name, tracer, kind, rfp_config)
        return tracer

    def register_checker(self, name: str, checker: object) -> None:
        """Record an attached invariant checker (observer-side API)."""
        self.checkers[name] = checker


@dataclass
class ConditionOutcome:
    """One condition's run: deterministic metrics + host wall time."""

    condition: Condition
    metrics: Dict[str, object]
    #: Host-dependent; recorded for trajectory, never asserted.
    wall_s: float
    #: The driver's per-operation arrays; not written to artifacts.
    samples: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class RunResult:
    """All outcomes of one expanded spec."""

    spec: ExperimentSpec
    scale: Scale
    outcomes: List[ConditionOutcome] = field(default_factory=list)

    def outcome(self, label: str) -> ConditionOutcome:
        for outcome in self.outcomes:
            if outcome.condition.label == label:
                return outcome
        raise ExpError(
            f"{self.spec.experiment_id}: no condition labelled {label!r} "
            f"(have {[o.condition.label for o in self.outcomes]})"
        )

class ExperimentRunner:
    """Expand a spec and run every condition under the observers."""

    def __init__(
        self,
        observers: Sequence[RunObserver] = (),
        drivers: Optional[Mapping[str, Driver]] = None,
    ) -> None:
        self.observers: Tuple[RunObserver, ...] = tuple(observers)
        if drivers is None:
            from repro.exp.drivers import DRIVERS

            drivers = DRIVERS
        self._drivers = dict(drivers)

    def _notify(self, event: str) -> Callable[..., None]:
        def emit(*args: object) -> None:
            for observer in self.observers:
                getattr(observer, event)(*args)

        return emit

    def run(self, spec: ExperimentSpec, scale: Scale = Scale.fast()) -> RunResult:
        driver = self._drivers.get(spec.driver)
        if driver is None:
            raise ExpError(
                f"{spec.experiment_id}: unknown driver {spec.driver!r}; "
                f"registered: {sorted(self._drivers)}"
            )
        conditions = spec.expand(scale)
        self._notify("run_started")(spec, scale, conditions)
        result = RunResult(spec=spec, scale=scale)
        total = len(conditions)
        for index, condition in enumerate(conditions):
            context = ConditionContext(condition, self._notify)
            self._notify("condition_started")(context, index, total)
            try:
                # Host wall time around the driver call — recorded as
                # unpinned trajectory data, never fed back into the model.
                started = time.perf_counter()  # lint: disable=no-wall-clock
                metrics = driver(context)
                wall_s = time.perf_counter() - started  # lint: disable=no-wall-clock
                outcome = ConditionOutcome(
                    condition, dict(metrics), wall_s, context.samples
                )
                self._notify("condition_finished")(context, outcome, index, total)
            except ExpError:
                raise
            except ReproError as error:
                where = f"{spec.experiment_id}/{condition.label}"
                raise ConditionFailed(f"{where}: {error}") from error
            result.outcomes.append(outcome)
        self._notify("run_finished")(result)
        return result


def default_observers() -> Tuple[RunObserver, ...]:
    """The observer stack the migrated benchmarks run under: invariant
    checkers attached to every published tracer and asserted clean."""
    from repro.exp.observers import InvariantObserver

    return (InvariantObserver(),)
