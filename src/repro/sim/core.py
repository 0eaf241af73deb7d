"""Event loop, events, and generator-based processes.

The design follows the classic calendar-queue discrete-event pattern,
split across two structures for speed:

- The :class:`Simulator` owns a binary heap of ``(time, seq, fn, args)``
  entries for *future* work.  ``seq`` is a monotonically increasing
  tie-breaker, so callbacks scheduled for the same timestamp run in FIFO
  order and every run is deterministic.
- Same-timestamp ("zero-delay") work — event triggers waking their
  waiters, process start steps, waits on already-completed events — goes
  to a plain FIFO **ready deque** instead of the heap.  Ready entries
  carry the same ``seq`` counter, and the run loop merges the two
  structures by ``(time, seq)``, so the global dispatch order is
  bit-for-bit identical to a pure-heap engine while the dominant
  same-timestamp traffic pays two deque operations instead of two
  ``O(log n)`` heap operations.
- An :class:`Event` is a one-shot condition that processes can wait on.
  It either *triggers* with a value or *fails* with an exception.  Its
  waiters sit in one slot: the one callback, or a list from the second
  waiter on.
- A :class:`Timeout` is the fast path for ``yield sim.timeout(d)``: an
  :class:`Event` armed at creation with one heap entry that calls
  :meth:`Event.trigger` (so its ``seq`` matches the pure-Event engine).
- A :class:`Process` wraps a generator.  The generator advances by
  yielding events (or other processes, which waits for their completion)
  and receives the event's value as the result of the ``yield``
  expression.  Every step is one call of :meth:`Process._step`: a
  completed wait, the entry of a ``yield <number>`` timer and the start
  all land there.
- :meth:`Process.deadline` entries of one delay expire in the order they
  were armed, so they wait in one FIFO per delay and only the FIFO's
  head sits in the heap, under the ``(time, seq)`` it was armed with.

``Simulator(reference=True)`` retains the original single-heap engine
(zero-delay entries heap-pushed, timeouts built from plain events).  It
exists so the equivalence tests and golden traces can prove the fast
paths preserve dispatch order and count.

Time is a ``float`` in microseconds by project convention.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple, Union

from repro.sim.atomic import _ATOMIC_STACK

__all__ = [
    "SimulationError",
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine or for unhandled process failures."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    3.0

    Parameters
    ----------
    reference:
        When true, run the original pure-heap engine: zero-delay work is
        heap-pushed and :meth:`timeout` builds a plain :class:`Event`.
        Dispatch order is identical either way (the fast engine merges
        its ready deque into the heap order by ``(time, seq)``); the
        reference engine exists as the slow half of equivalence tests.
    """

    def __init__(self, reference: bool = False) -> None:
        #: Current simulated time in microseconds.  A plain attribute
        #: (every model layer reads it several times per operation) that
        #: only the run loop writes; read-only by convention.
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]] = []
        #: FIFO of ``(seq, fn, args)`` entries due at the current time.
        self._ready: Deque[Tuple[int, Callable[..., Any], Tuple[Any, ...]]] = deque()
        self._seq = 0
        #: Deadline FIFOs by delay, of ``(time, seq, done, value)``
        #: entries (see :meth:`Process.deadline`).
        self._deadlines: Dict[float, Deque[Tuple[float, int, "Event", Any]]] = {}
        self._running = False
        self._fast = not reference
        #: Total callbacks dispatched across all ``run()`` calls.  The
        #: dispatch sequence is deterministic, so this count is too, and
        #: it is the same under both engines (the equivalence tests
        #: assert that); the perf-workload and hot-path-budget tests pin
        #: its value.
        self.dispatched = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units."""
        # ``not >=`` also rejects NaN, which slips past ``< 0``.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        # Exact zero is an identity (same-timestamp work), not a
        # tolerance question: only literal 0.0 may skip the heap.
        if delay == 0.0 and self._fast:  # lint: disable=no-float-eq -- exact-zero identity routes to the ready deque
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _schedule_now(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current timestamp (FIFO).

        This is the internal zero-delay path used by event triggers,
        process starts, and waits on already-completed events.  In the
        fast engine it appends to the ready deque; in reference mode it
        heap-pushes a ``(now, seq)`` entry — both give the same order.
        """
        self._seq += 1
        if self._fast:
            self._ready.append((self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (self.now, self._seq, fn, args))

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """Return an event that triggers after ``delay`` time units."""
        if self._fast:
            return Timeout(self, delay, value)
        event = Event(self)
        self.schedule(delay, event.trigger, value)
        return event

    def event(self) -> "Event":
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> "Process":
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, which makes throughput
        windows easy to reason about.  A bound before the current time
        (or negative, or NaN) raises :class:`SimulationError`; a bound
        equal to it dispatches what is due now.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and not until >= 0:
            raise SimulationError(f"run until a negative or NaN time: {until}")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run until {until}, which is before the current time {self.now}"
            )
        self._running = True
        # Locals hoisted out of the hot loop: the ``until`` comparison
        # reduces to a float compare against ``limit`` (``inf`` when no
        # bound was given) and every container/function is bound once.
        limit = inf if until is None else until
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        dispatched = 0
        now = self.now
        try:
            while True:
                if ready:
                    # Merge rule: a heap entry due *now* with a
                    # smaller seq than the oldest ready entry was
                    # scheduled earlier and must dispatch first;
                    # otherwise the ready FIFO is next.  Ready
                    # entries are always due at the current time
                    # (the clock only advances once both are
                    # drained), so no time comparison is needed.
                    if heap:
                        head = heap[0]
                        # Exact equality is the merge identity: a
                        # heap entry is "due now" only at the very
                        # timestamp it was keyed with.
                        if head[0] == now and head[1] < ready[0][0]:  # lint: disable=no-float-eq -- (time, seq) merge identity
                            heappop(heap)
                            dispatched += 1
                            head[2](*head[3])
                            continue
                    # No heap entry is due now, and none can appear
                    # while draining: every fast-mode heap push is
                    # strictly future (zero-delay work rides the
                    # deque), so the whole ready FIFO — including
                    # entries appended by the callbacks themselves —
                    # drains without re-peeking the heap.
                    while ready:
                        entry = popleft()
                        dispatched += 1
                        entry[1](*entry[2])
                    continue
                if not heap:
                    break
                head = heap[0]
                at = head[0]
                if at > limit:
                    break
                heappop(heap)
                self.now = now = at
                dispatched += 1
                head[2](*head[3])
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.dispatched += dispatched
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or ``None`` if drained."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else None


class Event:
    """A one-shot condition that can be waited on by processes.

    An event is *pending* until :meth:`trigger` or :meth:`fail` is called,
    after which waiting on it resumes the waiter immediately (at the current
    simulated time).  A failure that is never observed by any waiter raises
    :class:`SimulationError` so that bugs do not pass silently.
    """

    __slots__ = ("sim", "_cb", "_done", "_value", "_exc", "_defused")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Waiters: ``None``, the one callback, or a list of them from
        #: the second waiter on (nearly every event has one waiter).
        self._cb: Any = None
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has either triggered or failed."""
        return self._done

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._done and self._exc is None

    @property
    def value(self) -> Any:
        """The trigger value (raises if the event failed or is pending)."""
        if not self._done:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its waiters."""
        if self._done:
            raise SimulationError("event triggered twice")
        self._done = True
        self._value = value
        cb = self._cb
        if cb is not None:
            self._cb = None
            sim = self.sim
            if sim._fast and type(cb) is not list:
                # Inlined ready-deque append for the one waiter nearly
                # every event has: the hottest scheduling site.
                sim._seq += 1
                sim._ready.append((sim._seq, cb, (self,)))
            else:
                self._schedule_waiters(cb)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters receive ``exc``."""
        if self._done:
            raise SimulationError("event triggered twice")
        self._done = True
        self._exc = exc
        cb = self._cb
        if cb is not None:
            self._cb = None
            self._defused = True
            self._schedule_waiters(cb)
        else:
            # Give same-timestamp subscribers one chance to observe the
            # failure before we escalate it.
            self.sim._schedule_now(self._check_defused)
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(self)`` once the event completes."""
        if self._done:
            if self._exc is not None:
                self._defused = True
            sim = self.sim
            if sim._fast:
                # Wait-on-done rides the ready deque (inlined): this is
                # the immediate-grant path of resources and stores.
                sim._seq += 1
                sim._ready.append((sim._seq, callback, (self,)))
            else:
                sim._schedule_now(callback, self)
            return
        cb = self._cb
        if cb is None:
            self._cb = callback
        elif type(cb) is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]

    def _schedule_waiters(self, cb: Any) -> None:
        """Schedule the waiters ``cb`` held, in wait order."""
        schedule_now = self.sim._schedule_now
        if type(cb) is list:
            for callback in cb:
                schedule_now(callback, self)
        else:
            schedule_now(cb, self)

    def _check_defused(self) -> None:
        if not self._defused:
            raise SimulationError("unhandled failure in event") from self._exc


class Timeout(Event):
    """An event armed at creation to trigger after a fixed delay.

    ``yield sim.timeout(d)`` is one of the most common waits.  A
    ``Timeout`` takes its heap entry when it is created, carrying the
    creation-order ``seq`` the reference engine's scheduled trigger
    takes, so firing order among equal deadlines matches that engine
    exactly; the entry calls :meth:`Event.trigger` itself.

    The public :class:`Event` surface (``triggered``/``ok``/``value``,
    ``wait``, composites) behaves identically.  Manually triggering or
    failing a pending timeout is allowed, and — as with the reference
    engine, whose pre-armed trigger would collide at fire time — raises
    ``event triggered twice`` when the timer later fires.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.sim = sim
        self._cb = None
        self._done = False
        self._value = None
        self._exc = None
        self._defused = False
        # Inlined schedule(): a Timeout only ever exists in the fast
        # engine, so the mode branch reduces to the zero-delay test.
        sim._seq += 1
        if delay == 0.0:  # lint: disable=no-float-eq -- exact-zero identity routes to the ready deque
            sim._ready.append((sim._seq, self.trigger, (value,)))
        else:
            heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self.trigger, (value,)))


#: What :meth:`Process._step` gets from a ``yield <number>`` timer entry,
#: which passes no argument.
_TIMER = object()


class _Thrown:
    """A failed wait: :meth:`Process._step` throws its error into the
    generator at the yield."""

    __slots__ = ("_exc",)

    def __init__(self, message: str) -> None:
        self._exc = SimulationError(message)


class Process:
    """A running generator, advanced each time a yielded event completes.

    The generator may yield:

    - an :class:`Event` — resumes with ``event.value`` when it completes,
      or re-raises the failure exception inside the generator;
    - another :class:`Process` — resumes with that process's return value.

    The process itself exposes :attr:`done` (an event triggered with the
    generator's return value), so processes compose.  A :meth:`deadline`
    may complete :attr:`done` first; the generator then runs on detached.

    A finished process drops the bound method it holds of itself, so
    reference counting frees it, its generator and :attr:`done` once
    nothing else refers to them; the cyclic collector is never needed.
    """

    __slots__ = ("sim", "name", "_gen", "done", "_on_done", "__weakref__")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.done = Event(sim)
        # One bound method per process instead of one per yield: every
        # waiter slot and timer entry of this process holds it.
        self._on_done: Optional[Callable[[Any], None]] = self._step
        sim._schedule_now(self._step, None)

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def value(self) -> Any:
        """Return value of the generator (raises if it failed/is running)."""
        return self.done.value

    def wait(self, callback: Callable[[Event], None]) -> None:
        """Subscribe ``callback`` to this process's completion event."""
        self.done.wait(callback)

    def deadline(self, delay: float, value: Any) -> None:
        """Complete :attr:`done` with ``value`` after ``delay`` unless the
        generator finished first.

        The entry takes its seq now, before anything the generator
        schedules, so a completion due at the deadline instant loses the
        tie.  Past its deadline the generator runs on detached; what it
        later returns or raises is dropped.  The entry holds :attr:`done`,
        not the process, so a finished process is freed at once.

        Entries of one delay expire in arming order, so they queue in one
        FIFO per delay and only its head sits in the heap.  Each live
        entry dispatches in the ``(time, seq)`` slot it was armed with;
        one whose ``done`` completed first is dropped undispatched.
        """
        # ``not >`` also rejects NaN.
        if not delay > 0:
            raise SimulationError(f"deadline delay must be positive (delay={delay})")
        sim = self.sim
        sim._seq += 1
        at = sim.now + delay
        fifo = sim._deadlines.get(delay)
        if fifo is None:
            fifo = sim._deadlines[delay] = deque()
        if not fifo:
            heapq.heappush(sim._heap, (at, sim._seq, _expire_head, (sim._heap, fifo)))
        fifo.append((at, sim._seq, self.done, value))

    def _step(self, event: Any = _TIMER) -> None:
        """Advance the generator past what completed: ``None`` for the
        start or a queued timer resume, :data:`_TIMER` for a timer's
        entry, otherwise the event it waited on."""
        if event is _TIMER:
            # Fire half of ``yield <number>``: like an event-based
            # timeout, the timer entry is engine bookkeeping (dispatch
            # one) and the process resumes under a seq taken at fire
            # time (dispatch two), as the reference engine's trigger and
            # callback do.  With the ready deque empty and no heap entry
            # keyed ``now`` (armed earlier, so it must run first), the
            # resume would be the very next dispatch: it runs inline and
            # still counts as its own dispatch.
            sim = self.sim
            sim._seq += 1
            ready = sim._ready
            heap = sim._heap
            if ready or (heap and heap[0][0] == sim.now):  # lint: disable=no-float-eq -- (time, seq) merge identity
                ready.append((sim._seq, self._on_done, (None,)))
                return
            sim.dispatched += 1
            event = None
        if _ATOMIC_STACK:
            # Only populated while repro.sim.atomic's guard is enabled: a
            # process advancing here means an atomic section re-entered
            # the engine (nested run(), direct step) — sim time would
            # pass inside a region that promised none does.  The check
            # guards both dispatch paths: heap pops and ready-deque
            # drains land here alike.
            raise SimulationError(
                f"process {self.name!r} stepped inside atomic section "
                f"{_ATOMIC_STACK[-1]!r}"
            )
        try:
            if event is None:
                target = self._gen.send(None)
            elif event._exc is None:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._exc)
        except StopIteration as stop:
            # Finished: drop the self-reference (a cycle otherwise), and
            # drop the result of a process its deadline already completed.
            self._on_done = None
            if not self.done._done:
                self.done.trigger(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - escalated via event
            self._on_done = None
            if not self.done._done:
                # Store the failure without this stepping frame: it holds
                # the process, which holds ``done``, which would hold the
                # failure.  The generator frames stay for the report.
                self.done.fail(error.with_traceback(error.__traceback__.tb_next))
            return
        # ``yield <float>`` is a plain delay: the timeout fast path with
        # no waitable object at all.  Hot model code (client spin loops,
        # server threads) yields its CPU charges directly as floats; the
        # reference engine expands the same yield into the pre-PR
        # event-based timeout, so both consume identical (time, seq)
        # slots and dispatch order is bit-for-bit unchanged.  Ints are
        # accepted too so hand-written configs with integral delays work.
        typ = type(target)
        if typ is float or typ is int:
            sim = self.sim
            if not target >= 0.0:
                self._step(_Thrown(f"cannot schedule in the past (delay={target})"))
            elif sim._fast:
                sim._seq += 1
                if target == 0.0:  # lint: disable=no-float-eq -- exact-zero identity routes to the ready deque
                    sim._ready.append((sim._seq, self._on_done, ()))
                else:
                    heapq.heappush(
                        sim._heap, (sim.now + target, sim._seq, self._on_done, ())
                    )
            else:
                sim.timeout(target).wait(self._on_done)
            return
        if not (typ is Event or typ is Timeout):
            if isinstance(target, Process):
                target = target.done
            elif not isinstance(target, Event):
                self._step(
                    _Thrown(
                        f"process {self.name!r} yielded {typ.__name__}, "
                        "expected Event or Process"
                    )
                )
                return
        # A pending event with a free waiter slot is claimed inline —
        # same effect as ``wait()``, one call cheaper.
        if target._cb is None and not target._done:
            target._cb = self._on_done
        else:
            target.wait(self._on_done)


def _expire_head(heap: List[Any], fifo: Deque[Tuple[float, int, Event, Any]]) -> None:
    """Heap entry of a :meth:`Process.deadline` FIFO: expire the head,
    drop the no-ops behind it, and push the next live entry.

    That entry's ``(time, seq)`` may key the current instant (two
    deadlines armed at one instant).  It is pushed from a heap dispatch,
    and every ready entry was scheduled at this instant, after it, so
    the merge rule still runs it first.
    """
    _, _, done, value = fifo.popleft()
    if not done._done:
        done.trigger(value)
    while fifo:
        at, seq, done, _ = fifo[0]
        if not done._done:
            heapq.heappush(heap, (at, seq, _expire_head, (heap, fifo)))
            return
        fifo.popleft()


def AnyOf(sim: Simulator, waitables: Iterable[Union["Event", "Process"]]) -> Event:
    """Event that triggers when the *first* of ``waitables`` completes.

    The trigger value is ``(index, value)`` of the first completion.  If the
    first completion is a failure, the composite fails with that exception.
    """
    children = [w.done if isinstance(w, Process) else w for w in waitables]
    if not children:
        raise SimulationError("AnyOf requires at least one waitable")
    composite = Event(sim)

    def make_callback(index: int) -> Callable[[Event], None]:
        def on_done(event: Event) -> None:
            if composite.triggered:
                if event._exc is not None:
                    event._defused = True
                return
            if event._exc is not None:
                composite.fail(event._exc)
            else:
                composite.trigger((index, event._value))

        return on_done

    for index, child in enumerate(children):
        child.wait(make_callback(index))
    return composite


def AllOf(sim: Simulator, waitables: Iterable[Union["Event", "Process"]]) -> Event:
    """Event that triggers when *all* ``waitables`` complete.

    The trigger value is the list of values in input order.  The first
    failure fails the composite.
    """
    children = [w.done if isinstance(w, Process) else w for w in waitables]
    composite = Event(sim)
    if not children:
        # Guaranteed-immediate completion: ready-deque, not heap.
        sim._schedule_now(composite.trigger, [])
        return composite
    results: List[Any] = [None] * len(children)
    remaining = [len(children)]

    def make_callback(index: int) -> Callable[[Event], None]:
        def on_done(event: Event) -> None:
            if composite.triggered:
                if event._exc is not None:
                    event._defused = True
                return
            if event._exc is not None:
                composite.fail(event._exc)
                return
            results[index] = event._value
            remaining[0] -= 1
            if remaining[0] == 0:
                composite.trigger(list(results))

        return on_done

    for index, child in enumerate(children):
        child.wait(make_callback(index))
    return composite
