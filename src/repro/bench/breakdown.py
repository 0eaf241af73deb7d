"""Per-phase latency decomposition of an RFP call.

Uses the tracing hooks to split each call's latency into:

- **send** — call start to the request write's completion (client post +
  write round trip, including any client-NIC queueing),
- **server** — request arrival to response publication (poll queueing +
  handler + stub),
- **fetch** — response publication to the result in the client's hands
  (fetch reads, including wasted retries).

This answers *why* a configuration is slow: a saturated in-bound
pipeline shows up in ``fetch``, an overloaded server in ``server``, and
client-side issue contention in ``send``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.figures import ExperimentResult, _fmt
from repro.bench.harness import Scale
from repro.core.client import RfpClient
from repro.core.server import RfpServer
from repro.errors import BenchError
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17
from repro.sim.core import Simulator
from repro.sim.trace import Tracer
from repro.workloads.loop import ClosedLoop, repeat

__all__ = ["PhaseBreakdown", "measure_breakdown", "run_breakdown"]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Mean per-phase times for one configuration (µs)."""

    send_us: float
    server_us: float
    fetch_us: float
    total_us: float
    calls: int


def measure_breakdown(
    process_us: float,
    client_threads: int = 35,
    server_threads: int = 6,
    scale: Scale = Scale.fast(),
    response_bytes: int = 32,
) -> PhaseBreakdown:
    """Run a controlled-process-time workload and decompose latency."""
    sim = Simulator()
    loop = ClosedLoop(sim, scale.window_us, scale.window_us * scale.warmup_fraction)
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim)
    response = bytes(response_bytes)

    def handler(payload, ctx):
        return response, process_us

    server = RfpServer(
        sim, cluster, cluster.server, handler, server_threads, tracer=tracer
    )
    clients: List[RfpClient] = []
    for index in range(client_threads):
        machine = cluster.client_machines[index % len(cluster.client_machines)]
        # Names key the trace stitching: they must be unique per client.
        client = RfpClient(
            sim, machine, server, tracer=tracer, name=f"bd-client-{index}"
        )
        clients.append(client)
        loop.spawn(repeat(client.call, bytes(16)))
    loop.run()

    # Stitch phases per (client, seq).  call_started is implicit: the
    # previous call's call_done (or 0 for seq 1) — we instead use the
    # latency recorded at call_done together with the two intermediate
    # marks, which is exact for sequential clients.
    sent: Dict[Tuple[str, int], float] = {}
    published: Dict[Tuple[int, int], float] = {}
    sends, servers, fetches, totals = [], [], [], []
    for event in tracer.events():
        if event.label == "request_sent":
            sent[(event.data["client"], event.data["seq"])] = event.at_us
        elif event.label == "response_published":
            published[(event.data["client"], event.data["seq"])] = event.at_us
    # Client ids on the server side differ from client names; align by
    # matching the k-th published response of channel c to the k-th sent
    # request of the client bound to that channel.
    channel_of = {
        client.name: client.channel.client_id for client in clients
    }
    for event in tracer.events(label="call_done"):
        name = event.data["client"]
        seq = event.data["seq"]
        latency = event.data["latency_us"]
        send_done = sent.get((name, seq))
        publish = published.get((channel_of[name], seq))
        if send_done is None or publish is None:
            continue
        done = event.at_us
        started = done - latency
        sends.append(send_done - started)
        servers.append(publish - send_done)
        fetches.append(done - publish)
        totals.append(latency)
    if not totals:
        raise BenchError(
            f"no complete calls traced in a {scale.window_us} us window"
        )
    return PhaseBreakdown(
        send_us=float(np.mean(sends)),
        server_us=float(np.mean(servers)),
        fetch_us=float(np.mean(fetches)),
        total_us=float(np.mean(totals)),
        calls=len(totals),
    )


def run_breakdown(scale: Scale) -> ExperimentResult:
    """The ``breakdown`` experiment: phase decomposition across load."""
    rows = []
    for process_us in scale.sweep([0.2, 2.0, 5.0], [0.2, 1.0, 2.0, 3.0, 5.0]):
        breakdown = measure_breakdown(process_us, scale=scale)
        rows.append(
            [
                process_us,
                _fmt(breakdown.send_us),
                _fmt(breakdown.server_us),
                _fmt(breakdown.fetch_us),
                _fmt(breakdown.total_us),
            ]
        )
    return ExperimentResult(
        "breakdown",
        "Per-phase latency decomposition of an RFP call",
        ["process_time_us", "send_us", "server_us", "fetch_us", "total_us"],
        rows,
        paper_expectation=(
            "not a paper figure — explains Fig. 13: at peak load most of "
            "the latency sits in the server phase (queueing for worker "
            "threads), while send and fetch stay near their unloaded costs"
        ),
        observations=f"at P={rows[0][0]}: phases {rows[0][1]}/{rows[0][2]}/{rows[0][3]} µs",
    )
