"""The §2.2 microbenchmarks (Figs. 3-5) and hardware curves.

These are the experiments the paper runs before designing RFP: raw
synchronous one-sided operation loops that expose the in-bound vs
out-bound asymmetry, its thread scaling, and the size crossover, plus
the server-bypass loop whose throughput collapses with the one-sided
operations each request needs (Fig. 6).  The same curves feed the §3.2
parameter selection (``N`` from the Fig. 9 curve, ``[L, H]`` from the
Fig. 5 curve).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec
from repro.paradigms.server_bypass import SyntheticBypassClient
from repro.sim.core import Simulator
from repro.workloads.loop import ClosedLoop, repeat

__all__ = [
    "BypassRun",
    "measure_bypass",
    "measure_inbound_iops",
    "measure_outbound_iops",
    "inbound_iops_curve",
    "outbound_iops_curve",
    "model_inbound_iops",
    "measured_fetch_round_trip_us",
]

#: The raw-verb probes discard the first quarter of their window.
_PROBE_WARMUP_FRACTION = 0.25


def _synchronous(post, local, remote, size, post_cpu):
    """One synchronous verb: the posting CPU cost, then the verb itself."""
    yield post_cpu
    yield post(local, 0, remote, 0, size)


def measure_inbound_iops(
    client_threads: int,
    size: int = 32,
    window_us: float = 3000.0,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    *,
    sim: Optional[Simulator] = None,
) -> float:
    """Aggregate MOPS the server NIC serves when ``client_threads``
    (spread over 7 machines) issue synchronous RDMA Reads at it.

    ``sim`` lets an orchestrator supply the fresh simulator.
    """
    if sim is None:
        sim = Simulator()
    loop = ClosedLoop(sim, window_us, window_us * _PROBE_WARMUP_FRACTION)
    cluster = build_cluster(sim, cluster_spec)
    server_region = cluster.server.register_memory(1 << 20)
    post_cpu = cluster_spec.machine.nic.post_cpu_us
    machines = cluster.client_machines
    for index in range(client_threads):
        machine = machines[index % len(machines)]
        endpoint, _ = cluster.connect(machine, cluster.server)
        machine.rnic.register_issuer()
        local = machine.register_memory(max(64, size))
        loop.spawn(
            repeat(_synchronous, endpoint.post_read, local, server_region, size, post_cpu)
        )
    loop.run()
    return loop.mops()


def measure_outbound_iops(
    server_threads: int,
    size: int = 32,
    window_us: float = 3000.0,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
    sim: Optional[Simulator] = None,
) -> float:
    """Aggregate MOPS the server issues with ``server_threads`` posting
    synchronous RDMA Writes to the 7 client machines."""
    if sim is None:
        sim = Simulator()
    loop = ClosedLoop(sim, window_us, window_us * _PROBE_WARMUP_FRACTION)
    cluster = build_cluster(sim, cluster_spec)
    post_cpu = cluster_spec.machine.nic.post_cpu_us
    for index in range(server_threads):
        client = cluster.client_machines[index % len(cluster.client_machines)]
        _, server_endpoint = cluster.connect(client, cluster.server)
        cluster.server.rnic.register_issuer()
        local = cluster.server.register_memory(max(64, size))
        remote = client.register_memory(max(64, size))
        loop.spawn(
            repeat(_synchronous, server_endpoint.post_write, local, remote, size, post_cpu)
        )
    loop.run()
    return loop.mops()


class BypassRun(NamedTuple):
    """One server-bypass measurement (Fig. 6, Table 1's bypass corner)."""

    mops: float
    requests: int
    inbound_ops: int


def measure_bypass(
    amplification: int,
    client_threads: int,
    window_us: float,
    warmup_fraction: float,
    *,
    sim: Optional[Simulator] = None,
) -> BypassRun:
    """Server-bypass requests of ``amplification`` one-sided reads each.

    Returns the request MOPS and the requests completed in the
    post-warm-up window, and the one-sided operations the server NIC's
    in-bound pipeline served over the whole run.
    """
    if sim is None:
        sim = Simulator()
    loop = ClosedLoop(sim, window_us, window_us * warmup_fraction)
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    region = cluster.server.register_memory(1 << 20)
    machines = cluster.client_machines
    for index in range(client_threads):
        client = SyntheticBypassClient(
            sim, machines[index % len(machines)], cluster, region, amplification
        )
        loop.spawn(repeat(client.request))
    loop.run()
    return BypassRun(
        loop.mops(), loop.completions(), cluster.server.rnic.in_pipeline.operations
    )


def inbound_iops_curve(
    sizes: Sequence[int],
    client_threads: int = 35,
    window_us: float = 2000.0,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
) -> List[Tuple[int, float]]:
    """Measured (size, in-bound MOPS) points — the Fig. 5 in-bound line."""
    return [
        (size, measure_inbound_iops(client_threads, size, window_us, cluster_spec))
        for size in sizes
    ]


def outbound_iops_curve(
    sizes: Sequence[int],
    server_threads: int = 4,
    window_us: float = 2000.0,
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
) -> List[Tuple[int, float]]:
    """Measured (size, out-bound MOPS) points — the Fig. 5 out-bound line."""
    return [
        (size, measure_outbound_iops(server_threads, size, window_us, cluster_spec))
        for size in sizes
    ]


def model_inbound_iops(
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17,
) -> Callable[[int, int], float]:
    """Closed-form ``I(R, F)`` for Eq. 2 from the NIC model (equivalent
    to running the size sweep once and interpolating)."""
    from repro.hw.rnic import pipeline_service_time

    nic = cluster_spec.machine.nic

    def iops_at(retry: int, fetch: int) -> float:
        return 1.0 / pipeline_service_time(
            nic.inbound_base_us,
            fetch,
            nic.effective_bandwidth_bytes_per_us,
            nic.softmax_order,
        )

    return iops_at


def measured_fetch_round_trip_us(
    cluster_spec: ClusterSpec = CLUSTER_EUROSYS17, size: int = 256
) -> float:
    """One unloaded remote-fetch round trip (post + read RTT): the time
    quantum a retry burns, used to map the Fig. 9 crossover to N."""
    sim = Simulator()
    cluster = build_cluster(sim, cluster_spec)
    remote = cluster.server.register_memory(max(64, size))
    machine = cluster.client_machines[0]
    endpoint, _ = cluster.connect(machine, cluster.server)
    local = machine.register_memory(max(64, size))
    nic = cluster_spec.machine.nic
    done = {}

    def body(sim):
        yield sim.timeout(nic.post_cpu_us)
        yield endpoint.post_read(local, 0, remote, 0, size)
        done["at"] = sim.now

    sim.process(body(sim))
    sim.run()
    return done["at"]
