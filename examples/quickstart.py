#!/usr/bin/env python3
"""Quickstart: an RFP echo RPC in ~40 lines.

Builds the paper's 8-machine testbed in the simulator, starts an RFP
server whose handler upper-cases its input, connects one client, and
runs a few calls — printing what happened at each step.

Run:  python examples/quickstart.py
"""

from repro.core import RfpClient, RfpServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator


def shout_handler(payload: bytes, context) -> tuple:
    """The application: returns (response, process_time_us)."""
    return payload.upper(), 0.5


def main() -> None:
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    server = RfpServer(
        sim, cluster, cluster.server, shout_handler, threads=2, name="echo"
    )
    client = RfpClient(sim, cluster.client_machines[0], server)
    latencies = []

    def session(sim):
        for message in (b"hello rfp", b"remote fetching paradigm", b"eurosys 2017"):
            began = sim.now
            response = yield from client.call(message)
            latencies.append(sim.now - began)
            print(f"t={sim.now:8.2f} us  {message!r} -> {response!r}")

    sim.process(session(sim))
    sim.run()

    stats = client.stats
    print(f"\ncalls:            {stats.calls.value}")
    print(f"mean latency:     {sum(latencies) / len(latencies):.2f} us")
    print(f"fetch attempts:   {stats.fetch_attempts.mean():.2f} per call")
    print(f"server replies:   {server.stats.replies_sent.value} "
          "(0 = the server NIC only ever served in-bound reads)")


if __name__ == "__main__":
    main()
