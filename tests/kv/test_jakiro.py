"""Integration tests: the Jakiro KV store end to end."""

import pytest

from repro.core import Mode
from repro.core.rpc import RPC_MALFORMED, RpcClient
from repro.errors import KVError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import (
    GET_FUNCTION,
    PUT_FUNCTION,
    STATUS_MALFORMED,
    Jakiro,
    pack_get_request,
    partition_of,
)
from repro.sim import Simulator, ThroughputMeter

#: Requests whose arguments do not decode, and the status each earns.
MALFORMED_REQUESTS = {
    "empty": (b"", RPC_MALFORMED),
    "runt": (b"\x01", RPC_MALFORMED),
    "get-one-byte": (RpcClient.encode(GET_FUNCTION, b"\x05"), STATUS_MALFORMED),
    "put-one-byte": (RpcClient.encode(PUT_FUNCTION, b"\x05"), STATUS_MALFORMED),
    "get-short-key": (bytes([1, 0]) + b"\x05\x00ab", STATUS_MALFORMED),
    "put-short-key": (
        RpcClient.encode(PUT_FUNCTION, b"\x09\x00ab"),
        STATUS_MALFORMED,
    ),
    "get-trailing": (
        RpcClient.encode(GET_FUNCTION, pack_get_request(b"fits") + b"!"),
        STATUS_MALFORMED,
    ),
}


def make_jakiro(threads=6, **kwargs):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(sim, cluster, threads=threads, **kwargs)
    return sim, cluster, jakiro


class TestJakiroSemantics:
    def test_put_get_round_trip(self):
        sim, cluster, jakiro = make_jakiro()
        client = jakiro.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"user:1", b"alice")
            value = yield from client.get(b"user:1")
            return value

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"alice"

    def test_get_missing_key_returns_none(self):
        sim, cluster, jakiro = make_jakiro()
        client = jakiro.connect(cluster.client_machines[0])

        def body(sim):
            return (yield from client.get(b"nothing"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value is None

    def test_overwrite(self):
        sim, cluster, jakiro = make_jakiro()
        client = jakiro.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"k", b"v1")
            yield from client.put(b"k", b"v2")
            return (yield from client.get(b"k"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"v2"

    def test_keys_visible_across_clients(self):
        """EREW routing sends the same key to the same partition from
        any client, so writes are globally visible."""
        sim, cluster, jakiro = make_jakiro()
        writer = jakiro.connect(cluster.client_machines[0])
        reader = jakiro.connect(cluster.client_machines[3])
        result = {}

        def write(sim):
            yield from writer.put(b"shared", b"payload")

        def read(sim):
            yield sim.timeout(100.0)
            result["value"] = yield from reader.get(b"shared")

        sim.process(write(sim))
        sim.process(read(sim))
        sim.run()
        assert result["value"] == b"payload"

    def test_requests_land_on_owning_partition(self):
        sim, cluster, jakiro = make_jakiro(threads=4)
        client = jakiro.connect(cluster.client_machines[0])
        keys = [f"key-{i}".encode() for i in range(40)]

        def body(sim):
            for key in keys:
                yield from client.put(key, b"v")

        sim.process(body(sim))
        sim.run()
        sizes = jakiro.store.partition_sizes()
        expected = {p: 0 for p in range(4)}
        for key in keys:
            expected[partition_of(key, 4)] += 1
        assert sizes == expected

    def test_preload_bypasses_simulation(self):
        sim, cluster, jakiro = make_jakiro()
        jakiro.preload((f"k{i}".encode(), b"v") for i in range(1000))
        assert jakiro.store.size() == 1000
        assert sim.now == 0.0

    def test_values_up_to_8kb(self):
        sim, cluster, jakiro = make_jakiro()
        client = jakiro.connect(cluster.client_machines[0])
        big = bytes(range(256)) * 32  # 8192 B

        def body(sim):
            yield from client.put(b"big", big)
            return (yield from client.get(b"big"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == big

    @pytest.mark.parametrize(
        "key, value",
        [(b"k", b"v" * 100), (b"k" * 300, b"v")],
        ids=["value", "key"],
    )
    def test_oversize_put_is_rejected_and_the_server_keeps_serving(
        self, key, value
    ):
        sim, cluster, jakiro = make_jakiro(threads=1, max_value_bytes=64)
        client = jakiro.connect(cluster.client_machines[0])
        rng_state = jakiro.store._rng.bit_generator.state
        outcome = {}

        def body(sim):
            with pytest.raises(KVError, match="status 17"):
                yield from client.put(key, value)
            outcome["puts"] = jakiro.store.counters.puts.value
            outcome["rng_untouched"] = (
                jakiro.store._rng.bit_generator.state == rng_state
            )
            yield from client.put(b"fits", b"v" * 64)
            outcome["value"] = yield from client.get(b"fits")

        sim.process(body(sim))
        sim.run()
        assert outcome == {"puts": 0, "rng_untouched": True, "value": b"v" * 64}

    @pytest.mark.parametrize(
        "payload, status", MALFORMED_REQUESTS.values(), ids=MALFORMED_REQUESTS
    )
    def test_malformed_request_is_answered_and_the_server_keeps_serving(
        self, payload, status
    ):
        """A request that does not decode earns an error status at no
        store cost and no RNG draw; the same thread serves the next."""
        sim, cluster, jakiro = make_jakiro(threads=1)
        jakiro.preload([(b"fits", b"v" * 32)])
        client = jakiro.connect(cluster.client_machines[0])
        store = jakiro.store

        def state():
            counters = store.counters
            return (
                store._clock,
                [getattr(counters, name).value for name in vars(counters)],
                store._rng.bit_generator.state,
            )

        before = state()
        outcome = {}

        def body(sim):
            response = yield from client.transports[0].call(payload)
            outcome["status"] = RpcClient.decode(response)[0]
            outcome["untouched"] = state() == before
            outcome["next"] = yield from client.get(b"fits")

        sim.process(body(sim))
        sim.run()
        assert outcome == {"status": status, "untouched": True, "next": b"v" * 32}

    @pytest.mark.parametrize("size", [16376, 16384])
    def test_get_of_a_stored_value_too_large_to_serve_is_refused(self, size):
        # A preload skips the request-size check a PUT meets, so the store
        # holds a value that, behind the RPC status byte, overflows the
        # 16,376 B left in the response buffer after its header.
        sim, cluster, jakiro = make_jakiro(threads=2)
        small = next(
            key
            for key in (b"small-%d" % index for index in range(64))
            if partition_of(key, 2) == partition_of(b"k1", 2)
        )
        jakiro.preload([(b"k1", b"v" * size), (small, b"fits")])
        client = jakiro.connect(cluster.client_machines[0])
        outcome = {}

        def body(sim):
            with pytest.raises(KVError, match="status 17"):
                yield from client.get(b"k1")
            # The same server thread goes on serving.
            outcome["next"] = yield from client.get(small)

        sim.process(body(sim))
        sim.run()
        assert outcome == {"next": b"fits"}

    def test_largest_servable_value_round_trips(self):
        sim, cluster, jakiro = make_jakiro(threads=2)
        value = bytes(range(256)) * 63 + bytes(range(247))  # 16,375 B
        jakiro.preload([(b"k1", value)])
        client = jakiro.connect(cluster.client_machines[0])

        def body(sim):
            return (yield from client.get(b"k1"))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == value

    def test_fast_server_stays_in_remote_fetch(self):
        sim, cluster, jakiro = make_jakiro()
        client = jakiro.connect(cluster.client_machines[0])

        def body(sim):
            for i in range(30):
                yield from client.put(f"k{i}".encode(), bytes(32))
                yield from client.get(f"k{i}".encode())

        sim.process(body(sim))
        sim.run()
        assert all(t.mode is Mode.REMOTE_FETCH for t in client.transports)
        assert jakiro.server.stats.replies_sent.value == 0


class TestJakiroThroughput:
    def run_peak(self, threads=6, client_threads=35, value_size=32, window=4000.0):
        sim, cluster, jakiro = make_jakiro(threads=threads)
        value = bytes(value_size)
        keys = [f"key-{i}".encode() for i in range(2048)]
        jakiro.preload((k, value) for k in keys)
        meter = ThroughputMeter(window_start=window * 0.25, window_end=window)

        def loop(sim, client, offset):
            index = offset
            while True:
                yield from client.get(keys[index % len(keys)])
                meter.record(sim.now)
                index += 7

        for i in range(client_threads):
            client = jakiro.connect(cluster.client_machines[i % 7])
            sim.process(loop(sim, client, i * 13))
        sim.run(until=window)
        return meter.mops(elapsed=window * 0.75)

    def test_peak_throughput_near_paper(self):
        """Paper Fig. 10/12: Jakiro peaks at ~5.5 MOPS."""
        mops = self.run_peak()
        assert mops == pytest.approx(5.5, rel=0.12)

    def test_two_server_threads_nearly_enough(self):
        """Paper §4.4.1: >2 threads suffice once networking is offloaded."""
        at_2 = self.run_peak(threads=2)
        at_6 = self.run_peak(threads=6)
        assert at_2 > 0.8 * at_6
