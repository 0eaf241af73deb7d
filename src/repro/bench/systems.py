"""Uniform adapters over the key-value systems under test.

Every system exposes the same contract to the harness:

- ``build(sim, cluster, threads, config, value_limit, records, tracer)`` → a handle,
- ``handle.preload(pairs)``,
- ``handle.connect(machine)`` → a client with ``get(key)``/``put(key,
  value)`` process-body generators, ``busy_time()`` (client CPU µs) and
  ``fetch_attempt_samples()`` (remote fetches per call),
- ``handle.server`` → the underlying server object,
- ``handle.server_stats`` → the server's
  :class:`~repro.core.server.RfpServerStats`, or ``None`` for a system
  with no RFP server (Pilaf).

``SYSTEMS`` maps the names used throughout the benches: ``jakiro``,
``serverreply``, ``memcached`` and ``pilaf`` — the four systems of the
paper's evaluation (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.baselines import PilafServer, RdmaMemcachedServer, build_serverreply_kv
from repro.core.config import RfpConfig
from repro.core.server import RfpServerStats
from repro.errors import BenchError
from repro.hw.cluster import Cluster
from repro.kv.jakiro import Jakiro
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

__all__ = ["SYSTEMS", "SystemHandle", "build_system"]


@dataclass
class SystemHandle:
    """A built system: preload data, connect clients, read server stats."""

    name: str
    server: object
    preload: Callable
    connect: Callable
    server_stats: Optional[RfpServerStats]


def _build_jakiro(sim, cluster, threads, config, value_limit, records, tracer):
    jakiro = Jakiro(
        sim,
        cluster,
        threads=threads,
        config=config,
        max_value_bytes=value_limit,
        tracer=tracer,
    )
    return SystemHandle(
        "jakiro", jakiro, jakiro.preload, jakiro.connect, jakiro.server.stats
    )


def _build_serverreply(sim, cluster, threads, config, value_limit, records, tracer):
    kv = build_serverreply_kv(
        sim,
        cluster,
        threads=threads,
        config=config,
        max_value_bytes=value_limit,
        tracer=tracer,
    )
    return SystemHandle("serverreply", kv, kv.preload, kv.connect, kv.server.stats)


def _build_memcached(sim, cluster, threads, config, value_limit, records, tracer):
    server = RdmaMemcachedServer(sim, cluster, threads=threads, config=config)
    return SystemHandle(
        "memcached", server, server.preload, server.connect, server.stats
    )


def _build_pilaf(sim, cluster, threads, config, value_limit, records, tracer):
    # Pilaf runs its cuckoo table at 75% fill (§2.3): size it to the
    # dataset so the probe amplification matches the paper's regime.
    capacity = 32768 if records is None else max(CAPACITY_FLOOR, int(records / 0.75))
    server = PilafServer(
        sim,
        cluster,
        threads=threads,
        config=config,
        capacity=capacity,
        max_value_bytes=max(value_limit, 256),
    )
    return SystemHandle("pilaf", server, server.preload, server.connect, None)


CAPACITY_FLOOR = 1024


SYSTEMS = {
    "jakiro": _build_jakiro,
    "serverreply": _build_serverreply,
    "memcached": _build_memcached,
    "pilaf": _build_pilaf,
}


def build_system(
    name: str,
    sim: Simulator,
    cluster: Cluster,
    threads: int,
    config: Optional[RfpConfig] = None,
    value_limit: int = 16384,
    records: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> SystemHandle:
    """Build one system under test by name.

    ``records`` hints the dataset size so Pilaf's fixed-geometry cuckoo
    table runs at the paper's 75% fill.  ``tracer`` reaches the server
    and every client of the two RFP systems (Jakiro, ServerReply); the
    others speak no RFP and ignore it.
    """
    builder = SYSTEMS.get(name)
    if builder is None:
        raise BenchError(f"unknown system {name!r}; options: {sorted(SYSTEMS)}")
    return builder(sim, cluster, threads, config, value_limit, records, tracer)
