"""The server-bypass paradigm: client-driven one-sided access.

In server-bypass designs the server CPU never processes requests; clients
reach into server memory with one-sided RDMA Reads/Writes and coordinate
among themselves.  The price is *bypass access amplification* (§2.3): a
logical request needs several RDMA operations — metadata probes to locate
the data, the data transfer itself, checksum validation retries when a
read races a writer, and key-conflict retries.

This module provides the **synthetic** client used by the Fig. 6
microbenchmark (a configurable number of one-sided reads per logical
request); the full, honest server-bypass *system* — Pilaf with its 3-way
Cuckoo hash and CRC64-validated GETs — lives in
:mod:`repro.baselines.pilaf` and drives its reads through real data
structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.errors import ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Tally

__all__ = ["SyntheticBypassClient", "BypassStats"]


@dataclass
class BypassStats:
    """Counters for a server-bypass client."""

    requests: Counter = field(default_factory=lambda: Counter("requests"))
    rdma_reads: Counter = field(default_factory=lambda: Counter("rdma_reads"))
    latency_us: Tally = field(default_factory=lambda: Tally("latency_us"))

    def reads_per_request(self) -> float:
        if self.requests.value == 0:
            return 0.0
        return self.rdma_reads.value / self.requests.value


class SyntheticBypassClient:
    """A client that completes one logical request with k one-sided reads.

    This is the experiment behind Fig. 6: as ``operations_per_request``
    grows (metadata probing, conflict resolution), per-request throughput
    collapses even though the server NIC's in-bound IOPS stays saturated.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        cluster: Cluster,
        server_region: MemoryRegion,
        operations_per_request: int,
        op_size: int = 32,
        post_cpu_us: float = 0.15,
        name: str = "",
    ) -> None:
        if operations_per_request < 1:
            raise ProtocolError(
                f"a request needs >= 1 operation, got {operations_per_request}"
            )
        if op_size < 1:
            raise ProtocolError(f"op size must be >= 1, got {op_size}")
        self.sim = sim
        self.machine = machine
        self.operations_per_request = operations_per_request
        self.op_size = op_size
        self.post_cpu_us = post_cpu_us
        self.name = name or f"bypass-client@{machine.name}"
        self.stats = BypassStats()
        server_machine = server_region.machine
        self.endpoint, _ = cluster.connect(machine, server_machine)
        self.server_region = server_region
        self._landing = machine.register_memory(
            max(op_size, 64), name=f"{self.name}.landing"
        )
        self._offsets = self._spread_offsets(server_region.size, op_size)
        machine.rnic.register_issuer()

    def _spread_offsets(self, region_size: int, op_size: int) -> list:
        """Distinct probe offsets, mimicking hash-bucket scatter."""
        count = max(1, self.operations_per_request)
        stride = max(op_size, (region_size - op_size) // count or 1)
        return [(i * stride) % max(1, region_size - op_size) for i in range(count)]

    def request(self) -> Generator:
        """Process body: one logical request = k sequential sync reads."""
        sim = self.sim
        start = sim.now
        for offset in self._offsets:
            yield sim.timeout(self.post_cpu_us)
            yield self.endpoint.post_read(
                self._landing, 0, self.server_region, offset, self.op_size
            )
            self.stats.rdma_reads.increment()
        self.stats.requests.increment()
        self.stats.latency_us.record(sim.now - start)
