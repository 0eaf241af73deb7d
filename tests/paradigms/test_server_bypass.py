"""Tests for the synthetic server-bypass client (Fig. 6 machinery)."""

import pytest

from repro.errors import ProtocolError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.paradigms import SyntheticBypassClient
from repro.sim import Simulator, ThroughputMeter


def make_client(sim, cluster, ops, machine_index=1, op_size=32):
    region = cluster.server.register_memory(1 << 16)
    return SyntheticBypassClient(
        sim,
        cluster.client_machines[machine_index - 1],
        cluster,
        region,
        operations_per_request=ops,
        op_size=op_size,
    )


class TestSyntheticBypassClient:
    def test_counts_reads_per_request(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        client = make_client(sim, cluster, ops=4)
        proc = sim.process(client.request())
        sim.run()
        assert proc.finished
        assert client.stats.requests.value == 1
        assert client.stats.rdma_reads.value == 4
        assert client.stats.reads_per_request() == pytest.approx(4.0)

    def test_latency_grows_with_amplification(self):
        def request_latency(ops):
            sim = Simulator()
            cluster = build_cluster(sim, CLUSTER_EUROSYS17)
            client = make_client(sim, cluster, ops=ops)
            sim.process(client.request())
            sim.run()
            return sim.now  # the one request started at 0

        assert request_latency(6) > 2.5 * request_latency(2)

    def test_validation(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        with pytest.raises(ProtocolError):
            make_client(sim, cluster, ops=0)
        with pytest.raises(ProtocolError):
            make_client(sim, cluster, ops=2, op_size=0)

    def test_offsets_stay_in_region(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        client = make_client(sim, cluster, ops=15)
        region_size = client.server_region.size
        for offset in client._offsets:
            assert 0 <= offset <= region_size - client.op_size


def bypass_throughput(ops_per_request, client_threads=21, window=4000.0):
    """Fig. 6 measurement: throughput vs amplification factor."""
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    region = cluster.server.register_memory(1 << 20)
    meter = ThroughputMeter(window_start=window * 0.25, window_end=window)

    def loop(sim, client):
        while True:
            yield from client.request()
            meter.record(sim.now)

    for i in range(client_threads):
        client = SyntheticBypassClient(
            sim,
            cluster.client_machines[i % 7],
            cluster,
            region,
            operations_per_request=ops_per_request,
        )
        sim.process(loop(sim, client))
    sim.run(until=window)
    return meter.mops(elapsed=window * 0.75)


class TestFig6Amplification:
    def test_throughput_collapses_with_more_ops(self):
        """Fig. 6: request throughput ~ in-bound IOPS / k."""
        at_2 = bypass_throughput(2)
        at_8 = bypass_throughput(8)
        assert at_2 > 3.0 * at_8

    def test_heavy_amplification_below_one_mops(self):
        """Paper: with ~15 ops per request throughput sinks below 1 MOPS."""
        assert bypass_throughput(15) < 1.0

    def test_inbound_stays_saturated_while_throughput_drops(self):
        """The NIC serves ~the same IOPS; the *requests* get slower."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        region = cluster.server.register_memory(1 << 20)

        def loop(sim, client):
            while True:
                yield from client.request()

        for i in range(21):
            client = SyntheticBypassClient(
                sim, cluster.client_machines[i % 7], cluster, region, 8
            )
            sim.process(loop(sim, client))
        sim.run(until=3000.0)
        served = cluster.server.rnic.in_pipeline.operations
        assert served / sim.now > 5.0  # still many MOPS of in-bound service
