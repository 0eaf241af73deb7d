"""Tests for the RDMA-Memcached and ServerReply-KV baselines."""

import pytest

from repro.baselines import (
    MemcachedCostModel,
    RdmaMemcachedServer,
    build_serverreply_kv,
)
from repro.core.rpc import RPC_MALFORMED, RPC_NO_FUNCTION, RpcClient
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import GET_FUNCTION, PUT_FUNCTION, STATUS_MALFORMED, pack_get_request
from repro.sim import Simulator, ThroughputMeter

#: Requests the worker cannot decode, and the status each earns.
MALFORMED_REQUESTS = {
    "empty": (b"", RPC_MALFORMED),
    "runt": (b"\x01", RPC_MALFORMED),
    "unknown-function": (RpcClient.encode(9, pack_get_request(b"k")), RPC_NO_FUNCTION),
    "get-one-byte": (RpcClient.encode(GET_FUNCTION, b"\x05"), STATUS_MALFORMED),
    "get-short-key": (bytes([1, 0]) + b"\x05\x00ab", STATUS_MALFORMED),
    "put-short-key": (
        RpcClient.encode(PUT_FUNCTION, b"\x09\x00ab"),
        STATUS_MALFORMED,
    ),
    "get-trailing": (
        RpcClient.encode(GET_FUNCTION, pack_get_request(b"k") + b"!"),
        STATUS_MALFORMED,
    ),
}


def make_memcached(threads=16, **kwargs):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    server = RdmaMemcachedServer(sim, cluster, threads=threads, **kwargs)
    return sim, cluster, server


class TestMemcachedSemantics:
    def test_put_get_round_trip(self):
        sim, cluster, server = make_memcached(threads=4)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"k", b"v")
            return (yield from client.get(b"k"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"v"

    def test_get_missing(self):
        sim, cluster, server = make_memcached(threads=4)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            return (yield from client.get(b"missing"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value is None

    def test_shared_cache_visible_across_threads(self):
        """Unlike EREW Jakiro, any thread can serve any key (shared)."""
        sim, cluster, server = make_memcached(threads=8)
        writer = server.connect(cluster.client_machines[0])
        readers = [server.connect(cluster.client_machines[m]) for m in range(1, 5)]
        values = []

        def write(sim):
            yield from writer.put(b"shared", b"data")

        def read(sim, client):
            yield sim.timeout(200.0)
            values.append((yield from client.get(b"shared")))

        sim.process(write(sim))
        for reader in readers:
            sim.process(read(sim, reader))
        sim.run()
        assert values == [b"data"] * 4

    def test_lru_eviction_at_capacity(self):
        sim, cluster, server = make_memcached(threads=2, capacity=3)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            for i in range(5):
                yield from client.put(f"k{i}".encode(), b"v")
            return (yield from client.get(b"k0"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value is None
        assert server.cache.evictions == 2

    @pytest.mark.parametrize(
        "payload, status", MALFORMED_REQUESTS.values(), ids=MALFORMED_REQUESTS
    )
    def test_malformed_request_is_answered_and_the_worker_keeps_serving(
        self, payload, status
    ):
        """A request that does not decode is answered before the global
        lock; the cache, its recency and the counters are untouched."""
        sim, cluster, server = make_memcached(threads=1)
        server.preload([(b"k", b"v")])
        client = server.connect(cluster.client_machines[0])

        def state():
            stats = server.kv_stats
            return (
                [getattr(stats, name).value for name in vars(stats)],
                list(server.cache._items.items()),
                list(server._recent),
            )

        before = state()
        outcome = {}

        def body(sim):
            response = yield from client.transport.call(payload)
            outcome["status"] = RpcClient.decode(response)[0]
            outcome["untouched"] = state() == before
            outcome["next"] = yield from client.get(b"k")

        sim.process(body(sim))
        sim.run()
        assert outcome == {"status": status, "untouched": True, "next": b"v"}

    def test_lock_contention_counted(self):
        sim, cluster, server = make_memcached(threads=16)
        clients = [server.connect(cluster.client_machines[i % 7]) for i in range(20)]

        def loop(sim, client, tag):
            for i in range(15):
                yield from client.put(f"{tag}-{i}".encode(), b"v")

        for i, client in enumerate(clients):
            sim.process(loop(sim, client, i))
        sim.run()
        assert server.kv_stats.lock_waits.value > 0


def measure_memcached(threads, get_ratio=0.95, window=8000.0, clients=35):
    sim, cluster, server = make_memcached(threads=threads)
    # Keyspace much larger than the locality window, so uniform load does
    # not ride the hot-key shortcut.
    keys = [f"key-{i}".encode() for i in range(4096)]
    server.preload((k, bytes(32)) for k in keys)
    meter = ThroughputMeter(window_start=window * 0.25, window_end=window)

    def loop(sim, client, offset):
        index = offset
        while True:
            key = keys[(index * 7919) % len(keys)]
            if (index % 100) < get_ratio * 100:
                yield from client.get(key)
            else:
                yield from client.put(key, bytes(32))
            meter.record(sim.now)
            index += 1

    for i in range(clients):
        client = server.connect(cluster.client_machines[i % 7])
        sim.process(loop(sim, client, i * 31))
    sim.run(until=window)
    return meter.mops(elapsed=window * 0.75)


class TestMemcachedScaling:
    def test_throughput_scales_with_threads_until_16(self):
        """Fig. 12: CPU-bound — more threads help, unlike ServerReply."""
        at_4 = measure_memcached(4)
        at_16 = measure_memcached(16)
        assert at_16 > 2.0 * at_4

    def test_peak_near_paper_value(self):
        """Paper: ~1.3 MOPS at 16 threads, 95% GET, 32 B values."""
        assert measure_memcached(16) == pytest.approx(1.3, rel=0.25)

    def test_write_heavy_collapses(self):
        """Fig. 16: the global lock serializes PUT-heavy load."""
        read_heavy = measure_memcached(16, get_ratio=0.95)
        write_heavy = measure_memcached(16, get_ratio=0.05)
        assert write_heavy < 0.5 * read_heavy


class TestServerReplyKv:
    def test_round_trip_and_reply_counting(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        kv = build_serverreply_kv(sim, cluster, threads=4)
        client = kv.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"k", b"v")
            return (yield from client.get(b"k"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"v"
        assert kv.server.stats.replies_sent.value == 2
