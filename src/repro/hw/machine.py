"""A simulated machine: cores, registered memory, and one RNIC."""

from __future__ import annotations

from repro.errors import RegistrationError
from repro.hw.memory import MemoryRegion
from repro.hw.rnic import RNIC
from repro.hw.specs import MachineSpec
from repro.sim.core import Simulator

__all__ = ["Machine"]


class Machine:
    """One host of the simulated cluster.

    Threads (simulated processes) are not scheduled onto cores explicitly —
    the paper never oversubscribes cores (at most 16 threads on 16 cores) —
    but :attr:`cores` bounds how many server threads a system may launch.
    """

    def __init__(self, sim: Simulator, spec: MachineSpec, name: str) -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self.rnic = RNIC(sim, spec.nic, owner_name=name)
        # Running tally for the budget check; summing per registration
        # turns region-heavy setups (cluster rejoin) quadratic.
        self._in_use_bytes = 0

    @property
    def cores(self) -> int:
        return self.spec.cores

    def register_memory(self, size: int, name: str = "") -> MemoryRegion:
        """Allocate and register ``size`` bytes with the RNIC.

        Mirrors ``malloc_buf`` in the RFP API (Table 2): RDMA verbs only
        accept registered regions.  The region reads as zeros and holds
        host memory only up to the furthest byte an access reaches (see
        :class:`~repro.hw.memory.MemoryRegion`).  The budget of
        ``spec.memory_gb`` counts registered bytes, reached or not.
        """
        budget = self.spec.memory_gb * (1 << 30)
        if self._in_use_bytes + size > budget:
            raise RegistrationError(
                f"{self.name}: registering {size} B exceeds {self.spec.memory_gb} GB"
            )
        if size <= 0:
            raise RegistrationError(f"region size must be positive, got {size}")
        region = MemoryRegion(self, size, name=name)
        self._in_use_bytes += size
        return region

    def release_memory(self, region: MemoryRegion) -> None:
        """Deregister a region (``free_buf``)."""
        if region.machine is not self:
            raise RegistrationError(
                f"{self.name}: cannot release region owned by {region.machine.name}"
            )
        if region.registered:
            self._in_use_bytes -= region.size
        region.deregister()

    def registered_bytes(self) -> int:
        """Total bytes currently registered with the RNIC."""
        return self._in_use_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.name}, {self.cores} cores, {self.rnic.spec.name})"
