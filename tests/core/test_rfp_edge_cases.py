"""Edge-case tests for the RFP client/server machinery."""

import pytest

from repro.core import Mode, RfpClient, RfpConfig, RfpServer
from repro.core.headers import RESPONSE_HEADER_BYTES
from repro.errors import ProtocolError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator
from repro.sim.random import seeded_rng, stable_hash


def make_rig(handler, threads=2, config=None, client_count=1):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    config = config or RfpConfig()
    server = RfpServer(sim, cluster, cluster.server, handler, threads, config)
    clients = [
        RfpClient(sim, cluster.client_machines[i % 7], server, config)
        for i in range(client_count)
    ]
    return sim, cluster, server, clients


def run_calls(sim, client, payloads):
    def body(sim):
        out = []
        for payload in payloads:
            out.append((yield from client.call(payload)))
        return out

    return sim.process(body(sim))


def call_latencies(sim, client, payloads):
    """Run ``payloads`` back to back; each call's latency, timed by the caller."""
    latencies = []

    def body(sim):
        for payload in payloads:
            began = sim.now
            yield from client.call(payload)
            latencies.append(sim.now - began)

    sim.process(body(sim))
    sim.run()
    return latencies


class TestBufferBoundaries:
    def test_request_at_exact_buffer_limit(self):
        config = RfpConfig(request_buffer_bytes=256)
        sim, _, _, (client,) = make_rig(lambda p, c: (b"ok", 0.0), config=config)
        payload = bytes(256 - 4)  # request header is 4 bytes
        proc = run_calls(sim, client, [payload])
        sim.run()
        assert proc.value == [b"ok"]

    def test_request_one_byte_over_limit_rejected(self):
        config = RfpConfig(request_buffer_bytes=256)
        sim, _, _, (client,) = make_rig(lambda p, c: (b"ok", 0.0), config=config)
        with pytest.raises(ProtocolError):
            next(client.call(bytes(253)))

    def test_response_at_exact_buffer_limit(self):
        config = RfpConfig(response_buffer_bytes=512)
        big = bytes(512 - RESPONSE_HEADER_BYTES)
        sim, _, _, (client,) = make_rig(lambda p, c: (big, 0.0), config=config)
        proc = run_calls(sim, client, [b"q"])
        sim.run()
        assert proc.value == [big]

    def test_response_payload_exactly_one_byte(self):
        sim, _, _, (client,) = make_rig(lambda p, c: (b"!", 0.0))
        proc = run_calls(sim, client, [b"q"])
        sim.run()
        assert proc.value == [b"!"]

    def test_fetch_size_equal_to_full_response(self):
        config = RfpConfig(fetch_size=64)
        payload = bytes(64 - RESPONSE_HEADER_BYTES)
        sim, _, _, (client,) = make_rig(lambda p, c: (payload, 0.0), config=config)
        proc = run_calls(sim, client, [b"q"] * 5)
        sim.run()
        assert proc.value == [payload] * 5
        # Exactly one read per call: the boundary is inclusive.
        assert client.stats.remote_reads.value == 5

    def test_client_request_buffer_larger_than_servers_rejected(self):
        """A client whose request buffer outgrows the server's would pass
        its own size check and then fault in the verbs layer."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        server = RfpServer(
            sim,
            cluster,
            cluster.server,
            lambda p, c: (p, 0.0),
            threads=1,
            config=RfpConfig(request_buffer_bytes=64),
        )
        client_config = RfpConfig(
            request_buffer_bytes=4096, response_buffer_bytes=64, fetch_size=64
        )
        with pytest.raises(ProtocolError, match="larger buffers"):
            RfpClient(sim, cluster.client_machines[0], server, client_config)


class TestParityToggle:
    def test_many_alternating_calls_never_cross_responses(self):
        """Consecutive calls alternate parity; each must get *its own*
        response even though the buffer is reused in place."""
        counter = {"n": 0}

        def handler(payload, ctx):
            counter["n"] += 1
            return f"r{counter['n']}".encode(), 0.0

        sim, _, _, (client,) = make_rig(handler)
        proc = run_calls(sim, client, [b"q"] * 64)
        sim.run()
        assert proc.value == [f"r{i}".encode() for i in range(1, 65)]

    def test_zero_length_responses_alternate_correctly(self):
        sim, _, _, (client,) = make_rig(lambda p, c: (b"", 0.0))
        proc = run_calls(sim, client, [b"q"] * 10)
        sim.run()
        assert proc.value == [b""] * 10


class TestServerStats:
    def test_late_reply_counter(self):
        """A mid-call switch whose response was already buffered shows up
        as a late reply."""

        def handler(payload, ctx):
            return payload, 8.6  # slightly beyond the retry window

        sim, _, server, (client,) = make_rig(handler)
        proc = run_calls(sim, client, [b"a", b"b", b"c", b"d"])
        sim.run()
        assert proc.value == [b"a", b"b", b"c", b"d"]
        # Whether the flag lands before or after the publish is a race;
        # either a direct or a late reply must have resolved call 2.
        assert server.stats.replies_sent.value >= 1

    def test_response_time_tally_populated(self):
        sim, _, server, (client,) = make_rig(lambda p, c: (p, 1.0))
        run_calls(sim, client, [b"x"] * 10)
        sim.run()
        assert server.stats.response_time_us.count == 10
        assert server.stats.response_time_us.mean() >= 1.0


class TestServerJitter:
    def test_jitter_disabled_is_deterministic_per_call(self):
        config = RfpConfig(server_sw_jitter_us=0.0)
        sim, _, _, (client,) = make_rig(lambda p, c: (p, 0.5), config=config)
        latencies = call_latencies(sim, client, [b"x"] * 20)
        assert len(latencies) == 20
        assert max(latencies) - min(latencies) < 1e-9

    def test_jitter_spreads_latency(self):
        config = RfpConfig(server_sw_jitter_us=0.5)
        sim, _, _, (client,) = make_rig(lambda p, c: (p, 0.5), config=config)
        latencies = call_latencies(sim, client, [b"x"] * 20)
        assert len(latencies) == 20
        assert max(latencies) - min(latencies) > 0.05

    def test_buffered_jitter_matches_per_call_draws(self):
        """Draws are taken in chunks but handed out one per request; the
        sequence must be exactly that of one scalar draw per request,
        past chunk boundaries and across a crash and reboot."""
        jitter = 0.5
        config = RfpConfig(server_sw_jitter_us=jitter)
        _, _, server, _ = make_rig(lambda p, c: (p, 0.5), config=config)
        reference = seeded_rng(stable_hash(server.name))
        expected = [float(reference.uniform(0.0, jitter)) for _ in range(700)]
        got = [server._stub_jitter_us() for _ in range(300)]
        server.halt()
        server.restart()
        got += [server._stub_jitter_us() for _ in range(400)]
        assert got == expected

    def test_zero_jitter_draws_nothing(self):
        config = RfpConfig(server_sw_jitter_us=0.0)
        sim, _, server, (client,) = make_rig(lambda p, c: (p, 0.5), config=config)
        state = server._jitter_rng.bit_generator.state
        assert [server._stub_jitter_us() for _ in range(3)] == [0.0] * 3
        run_calls(sim, client, [b"x"] * 5)
        sim.run()
        assert server._jitter_rng.bit_generator.state == state


class TestClientIsolation:
    def test_one_slow_client_does_not_switch_others(self):
        """Mode flags are per ⟨client, RPC⟩ (§3.2 Discussion): a client
        hammered by slow calls switches alone."""
        slow_ids = set()

        def handler(payload, ctx):
            if payload == b"slow":
                slow_ids.add(ctx.client_id)
                return payload, 30.0
            return payload, 0.2

        sim, _, _, clients = make_rig(handler, threads=2, client_count=3)
        run_calls(sim, clients[0], [b"slow"] * 4)
        run_calls(sim, clients[1], [b"fast"] * 40)
        run_calls(sim, clients[2], [b"fast"] * 40)
        sim.run()
        assert clients[0].mode is Mode.SERVER_REPLY
        assert clients[1].mode is Mode.REMOTE_FETCH
        assert clients[2].mode is Mode.REMOTE_FETCH
