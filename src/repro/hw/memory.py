"""RNIC-registered memory regions.

RDMA verbs may only touch memory that has been registered with the NIC
(the real ibverbs restriction the paper's ``malloc_buf``/``free_buf`` APIs
wrap).  A :class:`MemoryRegion` holds real bytes; one-sided verbs copy
real bytes between regions, so data-integrity machinery above (CRC64
in Pilaf, RFP response headers) operates on genuine data rather than
token placeholders.

A region holds only the bytes an access has reached.  Its bytes grow,
one 64-byte line at a time and never past its size, to the furthest
byte any read or write has touched; a read past them zero-fills like a
first touch.  An RFP connection registers seven buffers (about 80 KiB)
and a run reaches a few hundred bytes of them.

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

#: A region's bytes grow in whole cache lines.
_LINE = 64

#: The view of every region no access has reached yet: empty, and
#: replaced by the region's own bytes on its first growth.
_UNREACHED = memoryview(bytearray())


class MemoryRegion:
    """A contiguous region of RNIC-registered memory on one machine.

    Created via :meth:`repro.hw.machine.Machine.register_memory`.  Its
    bytes, ``_view``, cover ``[0, _extent)``: the lines up to the
    furthest byte an access has reached, never more than ``size``.  An
    access that reaches past ``_extent`` goes through :meth:`_reach`
    first, which grows the bytes with zeros; a slice of ``_view`` past
    ``_extent`` would silently come back short.  Deregistered regions
    reject all access, mirroring ibverbs semantics.
    """

    __slots__ = ("machine", "size", "name", "mr_id", "_view", "_extent", "_registered")

    def __init__(self, machine: "Machine", size: int, name: str = "") -> None:
        self.machine = machine
        self.size = size
        self.mr_id = next(_MR_IDS)
        self.name = name or f"mr{self.mr_id}"
        self._view = _UNREACHED
        self._extent = 0
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

    def _reach(self, offset: int, length: int) -> None:
        """Check an access, then grow the bytes to cover it."""
        self._check(offset, length)
        end = offset + length
        if end <= self._extent:
            return
        extent = min(-(-end // _LINE) * _LINE, self.size)
        if self._extent:
            data = self._view.obj
            # A bytearray resizes in place only once no view exports it.
            self._view.release()
            data += bytes(extent - self._extent)
        else:
            data = bytearray(extent)
        self._view = memoryview(data)
        self._extent = extent

    def read_local(self, offset: int, length: int) -> bytes:
        """Host-CPU read of ``length`` bytes (no simulated time charged)."""
        # The checks are inlined (not delegated to _reach): these two
        # accessors run several times per simulated op across every bench.
        end = offset + length
        if offset < 0 or length < 0 or end > self._extent or not self._registered:
            self._reach(offset, length)
        return self._view[offset:end].tobytes()

    def write_local(self, offset: int, data: bytes) -> None:
        """Host-CPU write (atomic at the current instant)."""
        end = offset + len(data)
        if offset < 0 or end > self._extent or not self._registered:
            self._reach(offset, len(data))
        self._view[offset:end] = data

    def fill(self, offset: int, length: int, byte: int = 0) -> None:
        """Zero/fill a range (buffer recycling)."""
        self._reach(offset, length)
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
