"""Pluggable lifecycle observers for :class:`~repro.exp.runner.ExperimentRunner`.

The runner is deliberately free of progress printing and invariant
checking — those are observers, so tests can swap them and the CLI
can stack them.  Two ship here:

- :class:`ProgressObserver` — one line per condition to a stream.
- :class:`InvariantObserver` — attaches the runtime invariant checkers
  to every tracer a driver publishes and asserts them clean when the
  condition finishes.  It also registers the checkers back into the
  :class:`~repro.exp.runner.ConditionContext` so driver-side audits
  (NIC accounting, durability) can interrogate them.

Each condition's metrics need no observer: they are in
:attr:`~repro.exp.runner.RunResult.outcomes`.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Optional, TextIO, Tuple

from repro.core.config import RfpConfig
from repro.core.mode import Mode
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bench.harness import Scale
    from repro.exp.runner import ConditionContext, ConditionOutcome, RunResult
    from repro.exp.spec import Condition, ExperimentSpec

__all__ = [
    "InvariantObserver",
    "ProgressObserver",
    "RunObserver",
]


class RunObserver:
    """Base observer: every lifecycle hook defaults to a no-op."""

    def run_started(
        self,
        spec: "ExperimentSpec",
        scale: "Scale",
        conditions: Tuple["Condition", ...],
    ) -> None:
        """The matrix has been expanded; nothing has run yet."""

    def condition_started(
        self, context: "ConditionContext", index: int, total: int
    ) -> None:
        """A condition is about to run."""

    def simulator_created(
        self, context: "ConditionContext", sim: Simulator
    ) -> None:
        """The condition's fresh simulator exists (nothing scheduled yet)."""

    def tracer_created(
        self,
        context: "ConditionContext",
        name: str,
        tracer: Tracer,
        kind: str,
        rfp_config: Optional[RfpConfig],
    ) -> None:
        """A driver published a tracer: ``kind`` is ``cluster``, ``rfp``
        or ``server-reply`` (RFP channels pinned to server-reply), and
        ``rfp_config`` is what the traced RFP channels run with."""

    def condition_finished(
        self,
        context: "ConditionContext",
        outcome: "ConditionOutcome",
        index: int,
        total: int,
    ) -> None:
        """The condition ran; its metrics are final."""

    def run_finished(self, result: "RunResult") -> None:
        """Every condition has run."""


class ProgressObserver(RunObserver):
    """One progress line per condition (CLI narration)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout

    def run_started(self, spec, scale, conditions) -> None:
        print(
            f"[{spec.experiment_id}] {len(conditions)} condition(s)",
            file=self.stream,
        )

    def condition_finished(self, context, outcome, index, total) -> None:
        mops = outcome.metrics.get("mops")
        note = f" mops={mops}" if mops is not None else ""
        print(
            f"  [{index + 1}/{total}] {outcome.condition.label}"
            f"{note} ({outcome.wall_s:.2f}s)",
            file=self.stream,
        )


class InvariantObserver(RunObserver):
    """Attach protocol/cluster invariant checkers to published tracers."""

    def tracer_created(self, context, name, tracer, kind, rfp_config) -> None:
        # Imported here: repro.lint pulls the full analyzer stack.
        from repro.lint.invariants import (
            ClusterInvariantChecker,
            RfpInvariantChecker,
        )

        if kind == "cluster":
            checker = ClusterInvariantChecker().attach(tracer)
        elif kind in ("rfp", "server-reply"):
            mode = Mode.SERVER_REPLY if kind == "server-reply" else Mode.REMOTE_FETCH
            checker = RfpInvariantChecker(rfp_config, initial_mode=mode)
            checker.attach(tracer)
        else:
            return
        context.register_checker(name, checker)

    def condition_finished(self, context, outcome, index, total) -> None:
        for checker in context.checkers.values():
            checker.assert_clean()
