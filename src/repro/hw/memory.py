"""RNIC-registered memory regions.

RDMA verbs may only touch memory that has been registered with the NIC
(the real ibverbs restriction the paper's ``malloc_buf``/``free_buf`` APIs
wrap).  A :class:`MemoryRegion` owns a real ``bytearray``; one-sided verbs
copy real bytes between regions, so data-integrity machinery above (CRC64
in Pilaf, RFP response headers) operates on genuine data rather than
token placeholders.

:func:`staged_write` models a *non-atomic* local write by the host CPU:
the first half of the payload lands when the write begins and the second
half when it ends.  A concurrent one-sided RDMA Read that samples the
region mid-write therefore observes a genuinely torn value — exactly the
race Pilaf's per-entry checksums exist to detect (§2.3).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator

from repro.errors import RegistrationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.hw.machine import Machine
    from repro.sim.core import Simulator

__all__ = ["MemoryRegion", "staged_write"]

_MR_IDS = itertools.count(1)


class MemoryRegion:
    """A contiguous region of RNIC-registered memory on one machine.

    Created via :meth:`repro.hw.machine.Machine.register_memory`; direct
    construction is allowed for tests.  Deregistered regions reject all
    access, mirroring ibverbs semantics.
    """

    __slots__ = ("machine", "size", "name", "mr_id", "_view", "_registered")

    def __init__(self, machine: "Machine", size: int, name: str = "") -> None:
        if size <= 0:
            raise RegistrationError(f"region size must be positive, got {size}")
        self.machine = machine
        self.size = size
        self.mr_id = next(_MR_IDS)
        self.name = name or f"mr{self.mr_id}"
        # The bytes live in a bytearray reached only through this view:
        # slicing a memoryview copies once on read and assigns in place
        # on write, about twice as fast as bytearray slicing.
        self._view = memoryview(bytearray(size))
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
