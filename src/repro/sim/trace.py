"""Structured event tracing for simulation runs.

A :class:`Tracer` collects timestamped, categorized events from any
instrumented component (the RFP client/server accept an optional tracer
and emit their protocol phases).  Traces answer "what exactly happened
to request #1293?" — the question throughput counters cannot.

Events are cheap named tuples; recording is O(1) and a category filter
plus an optional ring-buffer capacity keep long runs bounded.

Cost model (what one ``record()`` call pays):

- **Nobody listens** (``enabled=False`` and no observers): one
  truthiness check on a precomputed flag, then return.  Benches that
  only need a tracer to satisfy a component signature opt out this way.
- **Observers subscribed** (invariant checkers): every offered event is
  materialized and dispatched to every observer — observers always see
  100% of the stream, before the category filter and unaffected by
  ring-buffer eviction.
- **Storage**: events of wanted categories are counted exactly and
  stored; ``categories=[]`` stores nothing while observers still see
  every event.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
)

from repro.errors import ReproError
from repro.sim.core import Simulator

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent(NamedTuple):
    """One recorded event."""

    at_us: float
    category: str
    label: str
    data: Dict[str, Any]


class Tracer:
    """Collects :class:`TraceEvent` records from instrumented components.

    Parameters
    ----------
    sim:
        The simulator whose clock stamps the events.
    categories:
        If given, only these categories are recorded (cheap filtering at
        the source).
    capacity:
        If given, keep only the most recent ``capacity`` events.
    enabled:
        When false, nothing is counted or stored; subscribed observers
        still see every offered event.  A disabled tracer with no
        observers rejects every event with a single flag check, making
        invariant checking opt-in per bench instead of a per-op tax.
    """

    def __init__(
        self,
        sim: Simulator,
        categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
        *,
        enabled: bool = True,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self._categories: Optional[Set[str]] = (
            set(categories) if categories is not None else None
        )
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._counts: TallyCounter[str] = TallyCounter()
        self._observers: List[Callable[[TraceEvent], None]] = []
        self._enabled = bool(enabled)
        #: Hot-path guard: false only when a record() call could not
        #: possibly have an effect (disabled, no observers).
        self._hot = self._enabled

    @property
    def enabled(self) -> bool:
        """True while counting/storage is on (observers are unaffected)."""
        return self._enabled

    def wants(self, category: str) -> bool:
        """True when this tracer records ``category`` (hot-path guard).

        A fully cold tracer (disabled, no observers) wants nothing, so
        instrumented components can skip building the event kwargs at
        the call site.
        """
        if not self._hot:
            return False
        return self._categories is None or category in self._categories

    def subscribe(self, observer: Callable[[TraceEvent], None]) -> None:
        """Register a live observer (e.g. an invariant checker).

        Observers see every event offered to :meth:`record` — before the
        category filter and unaffected by ring-buffer eviction — so a
        checker never misses a protocol step just because the stored
        trace is trimmed.
        """
        self._observers.append(observer)
        self._hot = True

    def record(self, category: str, label: str, **data: Any) -> None:
        """Record one event at the current simulated time."""
        if not self._hot:
            return
        observers = self._observers
        if observers:
            event = TraceEvent(self.sim.now, category, label, data)
            for observer in observers:
                observer(event)
            if not self._enabled or not (
                self._categories is None or category in self._categories
            ):
                return
        else:
            # _hot with no observers implies enabled.
            if not (self._categories is None or category in self._categories):
                return
            event = TraceEvent(self.sim.now, category, label, data)
        self._counts[category] += 1
        self._events.append(event)

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------

    def events(
        self,
        category: Optional[str] = None,
        label: Optional[str] = None,
        since_us: float = 0.0,
    ) -> List[TraceEvent]:
        """Filtered view of the recorded events, in time order."""
        return [
            event
            for event in self._events
            if event.at_us >= since_us
            and (category is None or event.category == category)
            and (label is None or event.label == label)
        ]

    def counts(self) -> Dict[str, int]:
        """Events recorded per category (including ring-evicted ones —
        counts are exact even when storage is trimmed)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._events)

    def format_lines(self, limit: int = 50) -> List[str]:
        """Human-readable tail of the trace."""
        tail = list(self._events)[-limit:]
        lines: List[str] = []
        for event in tail:
            details = " ".join(f"{k}={v}" for k, v in sorted(event.data.items()))
            lines.append(
                f"t={event.at_us:10.3f}  [{event.category}] {event.label}"
                + (f"  {details}" if details else "")
            )
        return lines
