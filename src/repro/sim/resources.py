"""Shared-resource primitives built on the event core.

Three abstractions cover everything the hardware model needs:

- :class:`Resource` — a counted semaphore with a FIFO wait queue.  Used for
  locks (e.g. RDMA-Memcached's global LRU lock) and bounded structures.
- :class:`Store` — an unbounded FIFO of items with blocking ``get``.  Used
  for message queues between simulated threads.
- :class:`ServiceStation` — a ``k``-server FIFO queueing station with
  *deterministic per-op service times* implemented without processes: each
  submission is assigned ``max(now, earliest_free_server) + service_time``
  in O(log k).  NIC pipelines, wire serialization, and DMA engines are all
  service stations, which keeps the event count per simulated RDMA
  operation small.

``Resource.request`` and ``Store.get`` grants that can complete
immediately ride the engine's zero-delay ready deque (any wait on an
already-triggered event does); ``Resource.acquire`` skips even that
when a slot is free.  Station completions use the slotted timeout fast
path.  None costs a heap round trip on the common path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "ServiceStation"]


class Resource:
    """A counted resource with FIFO granting.

    Processes obtain a slot with ``yield resource.request()`` and must call
    :meth:`release` exactly once per grant.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        event = self.acquire()
        if event is None:
            event = Event(self.sim)
            event.trigger()
        return event

    def acquire(self) -> Optional[Event]:
        """Take a free slot at once and return ``None``, or queue for one
        and return the event that triggers when it is granted.

        Unlike ``yield request()``, an uncontended grant costs no event
        and no engine round trip.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return None
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one granted slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().trigger()
        else:
            self._in_use -= 1

    def locked(self) -> bool:
        """True when every slot is in use."""
        return self._in_use >= self.capacity


class Store:
    """Unbounded FIFO of items with blocking retrieval.

    ``put`` never blocks.  ``get`` returns an event that triggers with the
    next item (immediately if one is available).  Items are delivered in
    insertion order and each item is delivered exactly once.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        event = Event(self.sim)
        if self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def clear(self) -> None:
        """Drop all queued items without waking any blocked getter.

        Models a consumer rebooting with a volatile queue: whatever was
        deposited but not yet retrieved is lost; getters keep waiting for
        the next post-reboot ``put``.
        """
        self._items.clear()


class ServiceStation:
    """A ``k``-server FIFO queueing station with deterministic service.

    Submissions are served in arrival order by the earliest-free server.
    The station records busy time and operation count so utilization and
    served rate can be read out by the harness:

    - :attr:`operations` — number of completed/enqueued submissions,
    - :meth:`utilization` — busy time / (servers * elapsed).

    The implementation keeps a heap of per-server free times; no simulator
    processes are created, so a station costs one event per submission.
    """

    def __init__(self, sim: Simulator, servers: int = 1, name: str = "") -> None:
        if servers < 1:
            raise SimulationError(f"servers must be >= 1, got {servers}")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._free_at: List[float] = [0.0] * servers
        heapq.heapify(self._free_at)
        self.operations = 0
        self.busy_time = 0.0

    def occupy(self, service_time: float) -> float:
        """Enqueue one op taking ``service_time``; returns its completion
        instant (absolute sim time) without arming any event.

        Service is deterministic, so the completion time is fully known at
        submission — callers that drive their own continuation (the verbs
        layer) schedule directly against the returned instant and skip an
        event round trip per pipeline transit.
        """
        if not service_time >= 0:  # ``not >=`` also rejects NaN
            raise SimulationError(f"negative or NaN service time: {service_time}")
        now = self.sim.now
        free_at = self._free_at
        if len(free_at) == 1:
            # Single-server station (every NIC pipeline): the heap is one
            # float, so skip the heapq round trip.
            free = free_at[0]
            start = now if now > free else free
            done_at = start + service_time
            free_at[0] = done_at
        else:
            start = max(now, heapq.heappop(free_at))
            done_at = start + service_time
            heapq.heappush(free_at, done_at)
        self.operations += 1
        self.busy_time += service_time
        return done_at

    def submit(self, service_time: float, value: Any = None) -> Event:
        """Enqueue one op taking ``service_time``; event fires at completion."""
        done_at = self.occupy(service_time)
        # timeout() is the engine's cheapest armed event (slotted fast
        # path, waiters resumed through the ready deque), and a station
        # completion is exactly an armed one-shot at ``done_at``.
        return self.sim.timeout(done_at - self.sim.now, value)

    def backlog(self) -> float:
        """Time until the earliest server becomes free (0 if idle)."""
        return max(0.0, min(self._free_at) - self.sim.now)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of server-time spent busy over ``elapsed`` (or sim.now)."""
        window = self.sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.servers * window))
