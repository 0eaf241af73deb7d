"""The closed loop behind every §4 measurement.

Each client thread issues one synchronous operation, waits for it to
complete, and issues the next.  :class:`ClosedLoop` owns what every such
measurement shares: the window, the warm-up, one throughput meter per
phase, and the per-operation latency samples.

An *operation* is a process-body generator (``client.get(key)``,
``client.call(payload)``, ...); a thread runs a stream of them with
``yield from``, so the loop adds no simulator event between operations.
:func:`repeat` and :func:`kv_operations` build the two common streams.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import WorkloadError
from repro.sim.core import Process, Simulator
from repro.sim.monitor import Tally, ThroughputMeter
from repro.workloads.ycsb import Operation

__all__ = ["ClosedLoop", "kv_operations", "repeat"]

#: One operation: a process body that returns when the operation completes.
Body = Generator[Any, Any, Any]


class ClosedLoop:
    """Client threads issuing operations back to back, measured in a window.

    ``phases`` is a sequence of ``(name, start_us, end_us)``; the default
    is one phase, ``"run"``, from ``warmup_us`` to ``window_us``.  A
    completion at time ``t`` counts in every phase with
    ``start_us <= t <= end_us``, and its latency is kept when
    ``t >= warmup_us``.  :meth:`run` stops the simulator at ``window_us``.
    """

    def __init__(
        self,
        sim: Simulator,
        window_us: float,
        warmup_us: float,
        phases: Optional[Sequence[Tuple[str, float, float]]] = None,
    ) -> None:
        if not (math.isfinite(window_us) and window_us > 0):
            raise WorkloadError(
                f"closed-loop window must be finite and positive, got {window_us} us"
            )
        if not 0.0 <= warmup_us < window_us:
            raise WorkloadError(
                f"closed-loop warm-up {warmup_us} us outside [0, {window_us})"
            )
        if phases is None:
            phases = (("run", warmup_us, window_us),)
        self.phases = tuple((name, start, end) for name, start, end in phases)
        for name, start, end in self.phases:
            if not 0.0 <= start < end <= window_us:
                raise WorkloadError(
                    f"closed-loop phase {name!r} ({start}, {end}) us is empty "
                    f"or outside [0, {window_us}]"
                )
        self.sim = sim
        self.window_us = window_us
        self.warmup_us = warmup_us
        self.latency_us = Tally("latency_us")
        self._meters = [
            ThroughputMeter(window_start=start, window_end=end, name=name)
            for name, start, end in self.phases
        ]
        self._threads = 0

    def spawn(self, operations: Iterable[Body], name: str = "") -> Process:
        """Start one client thread running ``operations`` back to back."""
        self._threads += 1
        return self.sim.process(self._client_thread(operations), name=name)

    def _client_thread(self, operations: Iterable[Body]) -> Body:
        sim = self.sim
        meters = self._meters
        warmup = self.warmup_us
        record_latency = self.latency_us.record
        for operation in operations:
            began = sim.now
            yield from operation
            now = sim.now
            for meter in meters:
                meter.record(now)
            if now >= warmup:
                record_latency(now - began)

    def run(self) -> None:
        """Run the simulator to the end of the window."""
        if not self._threads:
            raise WorkloadError("closed loop has no client thread to run")
        self.sim.run(until=self.window_us)

    def completions(self, phase: int = 0) -> int:
        """Operations completed inside phase ``phase``."""
        return self._meters[phase].completions

    def mops(self, phase: int = 0) -> float:
        """Completions per µs (= MOPS) over phase ``phase``."""
        return self._meters[phase].mops()


def repeat(fn: Callable[..., Body], *args: Any) -> Iterator[Body]:
    """An endless stream of ``fn(*args)`` operation bodies."""
    while True:
        yield fn(*args)


def kv_operations(client: Any, operations: Iterable[Operation]) -> Iterator[Body]:
    """Turn a YCSB operation stream into ``client`` GET/PUT bodies."""
    for operation in operations:
        if operation.is_get:
            yield client.get(operation.key)
        else:
            yield client.put(operation.key, operation.value)
