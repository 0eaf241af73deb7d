"""Tests for JakiroClient's cross-transport statistics aggregation."""

import pytest

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.sim import Simulator


def make_client(threads=3):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(sim, cluster, threads=threads)
    client = jakiro.connect(cluster.client_machines[0])
    return sim, jakiro, client


def run_ops(sim, client, count):
    def body(sim):
        for i in range(count):
            key = f"key-{i}".encode()
            yield from client.put(key, b"v")
            yield from client.get(key)

    sim.process(body(sim))
    sim.run()


class TestAggregation:
    def test_total_calls_sums_transports(self):
        sim, jakiro, client = make_client()
        run_ops(sim, client, 15)
        assert client.total_calls() == 30  # 15 PUTs + 15 GETs
        per_transport = [t.stats.calls.value for t in client.transports]
        assert sum(per_transport) == 30
        # EREW routing spreads keys over several transports.
        assert sum(1 for calls in per_transport if calls > 0) >= 2

    def test_fetch_attempts_cover_every_call(self):
        sim, jakiro, client = make_client()
        run_ops(sim, client, 10)
        attempts = client.fetch_attempt_samples()
        # All calls stayed in remote-fetch mode on a fast server.
        assert len(attempts) == client.total_calls()
        assert all(a >= 1 for a in attempts)

    def test_remote_reads_counted(self):
        sim, jakiro, client = make_client()
        run_ops(sim, client, 10)
        # One fetch read per call on an unloaded server.
        assert client.remote_reads() == client.total_calls()

    def test_one_issuer_registered_per_client_thread(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        jakiro = Jakiro(sim, cluster, threads=4)
        machine = cluster.client_machines[0]
        before = machine.rnic.issuing_threads
        jakiro.connect(machine)
        assert machine.rnic.issuing_threads == before + 1  # not +4
