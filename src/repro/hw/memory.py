"""RNIC-registered memory regions.

RDMA verbs may only touch memory that has been registered with the NIC
(the real ibverbs restriction the paper's ``malloc_buf``/``free_buf`` APIs
wrap).  A :class:`MemoryRegion` holds real bytes; one-sided verbs copy
real bytes between regions, so data-integrity machinery above (CRC64
in Pilaf, RFP response headers) operates on genuine data rather than
token placeholders.

The bytes come from an :class:`Arena`, one per machine, that carves
regions out of private anonymous mappings.  The kernel zero-fills a page
the first time it is written, so a region is resident only for the pages
it has written: an RFP connection registers seven buffers (about 80 KiB)
and a run writes about one page of each.

:func:`staged_write` models a *non-atomic* local write by the host CPU:
the first half of the payload lands when the write begins and the second
half when it ends.  A concurrent one-sided RDMA Read that samples the
region mid-write therefore observes a genuinely torn value — exactly the
race Pilaf's per-entry checksums exist to detect (§2.3).
"""

from __future__ import annotations

import itertools
import mmap
from typing import TYPE_CHECKING, Generator

from repro.errors import RegistrationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.hw.machine import Machine
    from repro.sim.core import Simulator

__all__ = ["ARENA_CHUNK_BYTES", "Arena", "MemoryRegion", "staged_write"]

_MR_IDS = itertools.count(1)

#: Bytes an :class:`Arena` maps at a time.  A mapping costs address
#: space, not memory: the kernel backs a page only once it is written.
ARENA_CHUNK_BYTES = 4 << 20

#: Alignment of a region within its chunk (one cache line).
_REGION_ALIGN = 64


def _map(size: int) -> memoryview:
    """``size`` zero bytes the kernel fills on first write."""
    # MAP_PRIVATE, not mmap's default MAP_SHARED: a forked child (a
    # worker pool) must copy a page on write, not write into its
    # parent's regions.
    return memoryview(
        mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    )


class Arena:
    """Backing store for one machine's registered regions.

    Regions are carved back to back, 64-byte aligned, from mappings of
    :data:`ARENA_CHUNK_BYTES`; a region larger than that gets a mapping
    of its own.  Carving writes nothing, so a region reads as zeros and
    becomes resident page by page as it is written.  Released bytes are
    not reused; a mapping is unmapped once neither the arena nor any
    region refers to it.
    """

    __slots__ = ("_chunk", "_next")

    def __init__(self) -> None:
        self._chunk = memoryview(b"")
        #: Offset of the first byte of ``_chunk`` not carved yet.
        self._next = 0

    def carve(self, size: int) -> memoryview:
        """A writable view of ``size`` fresh zero bytes."""
        if size > ARENA_CHUNK_BYTES:
            return _map(size)
        start = -(-self._next // _REGION_ALIGN) * _REGION_ALIGN
        if start + size > len(self._chunk):
            self._chunk = _map(ARENA_CHUNK_BYTES)
            start = 0
        self._next = start + size
        return self._chunk[start : start + size]


class MemoryRegion:
    """A contiguous region of RNIC-registered memory on one machine.

    Created via :meth:`repro.hw.machine.Machine.register_memory`, over
    ``view``, the bytes its machine's :class:`Arena` carved for it.
    Deregistered regions reject all access, mirroring ibverbs semantics.
    """

    __slots__ = ("machine", "size", "name", "mr_id", "_view", "_registered")

    def __init__(self, machine: "Machine", view: memoryview, name: str = "") -> None:
        self.machine = machine
        self.size = len(view)
        self.mr_id = next(_MR_IDS)
        self.name = name or f"mr{self.mr_id}"
        self._view = view
        self._registered = True

    @property
    def registered(self) -> bool:
        return self._registered

    def deregister(self) -> None:
        """Invalidate the region; further access raises."""
        self._registered = False

    def _check(self, offset: int, length: int) -> None:
        if not self._registered:
            raise RegistrationError(f"{self.name}: access to deregistered region")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise RegistrationError(
                f"{self.name}: access [{offset}, {offset + length}) outside "
                f"region of {self.size} bytes"
            )

    def read_local(self, offset: int, length: int) -> bytes:
        """Host-CPU read of ``length`` bytes (no simulated time charged)."""
        # The bounds check is inlined (not delegated to _check): these two
        # accessors run several times per simulated op across every bench.
        if offset < 0 or length < 0 or offset + length > self.size or not self._registered:
            self._check(offset, length)
        return self._view[offset : offset + length].tobytes()

    def write_local(self, offset: int, data: bytes) -> None:
        """Host-CPU write (atomic at the current instant)."""
        length = len(data)
        if offset < 0 or offset + length > self.size or not self._registered:
            self._check(offset, length)
        self._view[offset : offset + length] = data

    def fill(self, offset: int, length: int, byte: int = 0) -> None:
        """Zero/fill a range (buffer recycling)."""
        self._check(offset, length)
        self._view[offset : offset + length] = bytes([byte]) * length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryRegion({self.name}, {self.size}B on {self.machine.name})"


def staged_write(
    sim: "Simulator",
    region: MemoryRegion,
    offset: int,
    data: bytes,
    duration: float,
) -> Generator:
    """Process body: write ``data`` non-atomically over ``duration`` µs.

    The first half of the payload is visible immediately, the second half
    only after ``duration``; a concurrent RDMA Read lands on torn bytes.
    Yield from this inside a process::

        yield sim.process(staged_write(sim, region, off, payload, 0.2))
    """
    half = len(data) // 2
    region.write_local(offset, data[:half])
    yield sim.timeout(duration)
    region.write_local(offset + half, data[half:])
    return None
