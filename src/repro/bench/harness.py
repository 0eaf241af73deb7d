"""The two closed-loop entry points of the evaluation.

Every evaluation number in the paper is a closed-loop measurement: N
client threads issue synchronous operations back to back, throughput is
completions per second in a steady-state window, latency the per-op
round trip.  The loop itself is :class:`repro.workloads.ClosedLoop`;
this module builds what it drives.  :func:`run_kv` runs one KV system
under a YCSB workload and reads the clients' busy time and fetch
attempts and the server's counters through typed methods;
:func:`run_controlled_process_time` runs the RDTSC-controlled
process-time echo RPC (Figs. 9, 14, 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.bench.systems import build_system
from repro.core.client import RfpClient
from repro.core.config import RfpConfig
from repro.core.mode import Mode
from repro.core.server import RfpServer
from repro.errors import BenchError
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec
from repro.paradigms.server_reply import ServerReplyClient, ServerReplyServer
from repro.sim.core import Simulator
from repro.sim.trace import Tracer
from repro.workloads.loop import ClosedLoop, kv_operations, repeat
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload

__all__ = ["Scale", "KvRunResult", "run_kv", "run_controlled_process_time"]


@dataclass(frozen=True)
class Scale:
    """Measurement scale: FAST for tests/benches, FULL for reports.

    ``window_us`` is the simulated measurement window; the first
    ``warmup_fraction`` of it is discarded.  ``records`` scales the
    preloaded dataset (the paper uses 128M pairs; the simulator keeps the
    *behaviour* — hash pressure, LRU churn — at a laptop-friendly count).
    """

    window_us: float = 2500.0
    warmup_fraction: float = 0.25
    records: int = 8192
    full: bool = False

    @classmethod
    def fast(cls) -> "Scale":
        return cls()

    @classmethod
    def full_scale(cls) -> "Scale":
        return cls(window_us=8000.0, records=32768, full=True)

    def sweep(self, fast_points, full_points):
        """Pick the sweep granularity appropriate for this scale."""
        return list(full_points) if self.full else list(fast_points)


@dataclass
class KvRunResult:
    """Outcome of one closed-loop KV run."""

    system: str
    throughput_mops: float
    latency_us: np.ndarray
    client_cpu_utilization: float
    fetch_attempts: List[int] = field(default_factory=list)
    replies_sent: int = 0
    requests_served: int = 0
    operations_completed: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def mean_latency(self) -> float:
        return float(np.mean(self.latency_us)) if len(self.latency_us) else 0.0

    def percentile_latency(self, p: float) -> float:
        return float(np.percentile(self.latency_us, p)) if len(self.latency_us) else 0.0


def run_kv(
    system: str,
    workload: WorkloadSpec,
    *,
    server_threads: int = 6,
    client_threads: int = 35,
    scale: Scale = Scale.fast(),
    config: Optional[RfpConfig] = None,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    value_limit: int = 16384,
    sim: Optional[Simulator] = None,
) -> KvRunResult:
    """Closed-loop run of one KV system under one workload.

    ``sim`` lets an orchestrator (:mod:`repro.exp`) supply the fresh
    simulator so its observers see it; by default one is created here.
    """
    if client_threads < 1:
        raise BenchError("need at least one client thread")
    if sim is None:
        sim = Simulator()
    window = scale.window_us
    loop = ClosedLoop(sim, window, window * scale.warmup_fraction)
    cluster = build_cluster(sim, cluster_spec)
    handle = build_system(
        system,
        sim,
        cluster,
        server_threads,
        config=config,
        value_limit=value_limit,
        records=workload.records,
    )
    generator = YcsbWorkload(workload)
    handle.preload(generator.dataset())

    clients = []
    machines = cluster.client_machines
    for index in range(client_threads):
        client = handle.connect(machines[index % len(machines)])
        clients.append(client)
        operations = kv_operations(client, generator.operations(f"client-{index}"))
        loop.spawn(operations, name=f"driver-{index}")
    loop.run()

    busy = sum(client.busy_time() for client in clients)
    stats = handle.server_stats
    return KvRunResult(
        system=system,
        throughput_mops=loop.mops(),
        latency_us=np.array(loop.latency_us.samples, dtype=float),
        client_cpu_utilization=min(1.0, busy / (client_threads * window)),
        fetch_attempts=[
            int(a) for client in clients for a in client.fetch_attempt_samples()
        ],
        replies_sent=stats.replies_sent.value if stats is not None else 0,
        requests_served=stats.requests.value if stats is not None else 0,
        operations_completed=loop.completions(),
    )


def run_controlled_process_time(
    mode: str,
    process_time_us: float,
    *,
    server_threads: int = 16,
    client_threads: int = 35,
    scale: Scale = Scale.fast(),
    response_bytes: int = 32,
    config: Optional[RfpConfig] = None,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    sim: Optional[Simulator] = None,
    tracer: Optional[Tracer] = None,
) -> KvRunResult:
    """The RDTSC-loop experiments: echo RPC with an exact process time.

    ``mode`` is ``"rfp"`` (hybrid on), ``"rfp-no-switch"`` (pure repeated
    remote fetching, the Fig. 9/14 ablation), or ``"serverreply"``.
    ``sim`` lets an orchestrator supply the fresh simulator; ``tracer``
    (on that simulator) is handed to the server and every client.
    """
    if sim is None:
        sim = Simulator()
    window = scale.window_us
    loop = ClosedLoop(sim, window, window * scale.warmup_fraction)
    cluster = build_cluster(sim, cluster_spec)
    response = bytes(response_bytes)

    def handler(payload, ctx):
        return response, process_time_us

    base = config if config is not None else RfpConfig()
    if mode == "rfp":
        server_class, client_class = RfpServer, RfpClient
    elif mode == "rfp-no-switch":
        base = replace(base, hybrid_enabled=False)
        server_class, client_class = RfpServer, RfpClient
    elif mode == "serverreply":
        server_class, client_class = ServerReplyServer, ServerReplyClient
    else:
        raise BenchError(f"unknown mode {mode!r}")
    server = server_class(
        sim, cluster, cluster.server, handler, server_threads, base, tracer=tracer
    )

    clients = []
    for index in range(client_threads):
        machine = cluster.client_machines[index % len(cluster.client_machines)]
        client = client_class(sim, machine, server, base, tracer=tracer)
        clients.append(client)
        loop.spawn(repeat(client.call, bytes(16)), name=f"driver-{index}")
    loop.run()

    busy = sum(c.stats.busy.busy_time for c in clients)
    in_reply_mode = sum(1 for c in clients if c.policy.mode is Mode.SERVER_REPLY)
    return KvRunResult(
        system=mode,
        throughput_mops=loop.mops(),
        latency_us=np.array(loop.latency_us.samples, dtype=float),
        client_cpu_utilization=min(1.0, busy / (client_threads * window)),
        replies_sent=server.stats.replies_sent.value,
        requests_served=server.stats.requests.value,
        operations_completed=loop.completions(),
        extras={"clients_in_reply_mode": float(in_reply_mode)},
    )
