"""Host-speed reference loop for normalizing wall times.

The benchmark times this fixed pure-Python loop (heap, dict and
generator churn, the same mix the simulator's event loop does) right
before every timed region and scales the region's wall time by
``NOMINAL_S / loop time``.  A host that is momentarily slower, because
another process shares its cores or its clock dropped, slows the loop
and the region alike, so the ratio cancels most of that noise.  The
shorter the regions between passes, the more closely the loop tracks
the host; see the README for the measured spreads.

It imports nothing from ``repro``: no change to the system under test
can change what this loop measures.
"""

from __future__ import annotations

import gc
import heapq
import time

#: What one pass is defined to take: normalized times are "seconds on a
#: host where a pass of the reference loop takes exactly this long".
NOMINAL_S = 0.003

#: Iterations that take about ``NOMINAL_S`` inside a running benchmark
#: sample on a 2-core x86 container with CPython 3.11.
_ITERATIONS = 3_900


def _count(limit: int):
    for value in range(limit):
        yield value


def _churn(iterations: int) -> int:
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 2047] = i
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
        if i & 15 == 0:
            total += sum(_count(8))
    return total + len(table)


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop.

    The garbage collector is held off during the pass: a collection
    the program's allocations made due belongs to the program's time,
    not to the host-speed sample.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        _churn(_ITERATIONS)
        return time.perf_counter() - started
    finally:
        gc.enable()


def warm_up() -> None:
    """Run the loop three times so its first timed pass is not cold."""
    for _ in range(3):
        loop_seconds()


def normalized(raw_s: float, loop_s: float) -> float:
    """``raw_s`` rescaled to a host where a pass takes ``NOMINAL_S``."""
    return raw_s * NOMINAL_S / loop_s
