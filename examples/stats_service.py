#!/usr/bin/env python3
"""The porting-cost claim, demonstrated with a second application.

A metrics/statistics RPC service (the intro's "applications with simple
statistic operations") is written once against the RPC stub interface.
Switching it from legacy server-reply to RFP is the one-word change
``transport="rfp"`` — no data-structure redesign, no application edits —
and buys ~2.5× the throughput.  (Contrast with server-bypass, where the
same port would mean designing a remotely-probeable lock-free structure
for the aggregation state.)

Run:  python examples/stats_service.py
"""

import itertools

from repro.apps import StatsService
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator
from repro.workloads import ClosedLoop

WINDOW_US = 2500.0


def run_service(transport: str) -> tuple:
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    # The only transport-aware line in the whole application:
    service = StatsService(sim, cluster, threads=4, transport=transport)

    loop = ClosedLoop(sim, WINDOW_US, WINDOW_US * 0.25)
    metrics = [f"api.endpoint.{i}.latency".encode() for i in range(32)]

    def records(client, offset):
        for index in itertools.count(offset):
            yield client.record(metrics[index % 32], float(index % 100))

    clients = [service.connect(cluster.client_machines[i % 7]) for i in range(35)]
    for index, client in enumerate(clients):
        loop.spawn(records(client, index * 13))
    loop.run()

    # One final query through a fresh client, to show reads work too.
    sim2_probe = {}

    def probe(sim):
        sim2_probe["snap"] = yield from clients[0].query(metrics[0])

    sim.process(probe(sim))
    sim.run(until=WINDOW_US + 50.0)
    return loop.mops(), sim2_probe["snap"]


def main() -> None:
    print("Identical application, two transports:\n")
    results = {}
    for transport in ("serverreply", "rfp"):
        mops, snapshot = run_service(transport)
        results[transport] = mops
        print(
            f"  transport={transport:12s} {mops:5.2f} MOPS of RECORDs   "
            f"(sample metric: n={snapshot.count}, mean={snapshot.mean:.1f})"
        )
    gain = results["rfp"] / results["serverreply"]
    print(
        f"\nPorting cost: one constructor argument."
        f"\nThroughput gain: {gain:.1f}x — the server stopped issuing"
        f"\nout-bound replies and its NIC now serves only in-bound reads."
    )


if __name__ == "__main__":
    main()
