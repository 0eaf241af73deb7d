"""Runtime protocol checker: clean runs stay clean, planted bugs trip.

The planted bug is the torn-read class the checker exists for: a client
that commits the first fetched bytes without checking the response
header parity "receives" results the server has not published yet
(paper §3.1's status-field discipline).
"""

import pytest

from repro.baselines.serverreply_kv import build_serverreply_kv
from repro.core import Mode, RfpClient, RfpServer
from repro.core.headers import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    ResponseHeader,
)
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.jakiro import Jakiro
from repro.lint.invariants import InvariantViolation, RfpInvariantChecker
from repro.sim import Simulator, Tracer


class FetchBeforeFlagClient(RfpClient):
    """Planted bug: commit the first fetch without the parity check."""

    def call(self, payload):
        config = self.config
        channel = self.channel
        parity = self._stage_request(payload)
        yield config.client_post_cpu_us
        yield self.endpoint.post_write(
            self._request_staging,
            0,
            channel.request_region,
            0,
            REQUEST_HEADER_BYTES + len(payload),
            on_delivery=self._on_request_delivery,
        )
        self._request_sent(parity, len(payload))
        yield config.client_post_cpu_us
        self._trace("fetch_read", seq=self.seq, attempt=1, bytes=config.fetch_size)
        yield self.endpoint.post_read(
            self._fetch_landing, 0, channel.response_region, 0, config.fetch_size
        )
        yield config.client_parse_cpu_us
        self.stats.remote_reads.increment()
        header = ResponseHeader.unpack(
            self._fetch_landing.read_local(0, RESPONSE_HEADER_BYTES)
        )
        # BUG: no `header.status == parity` check before committing.
        self._trace("fetch_success", seq=self.seq, attempts=1)
        self.stats.fetch_attempts.record(1)
        self.policy.note_fast_call()
        self._call_done(parity)
        return self._fetch_landing.read_local(RESPONSE_HEADER_BYTES, header.size)


def make_rig(process_us, client_class=RfpClient):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim)
    checker = RfpInvariantChecker().attach(tracer)
    server = RfpServer(
        sim,
        cluster,
        cluster.server,
        lambda payload, context: (payload, process_us),
        threads=2,
        tracer=tracer,
    )
    client = client_class(
        sim, cluster.client_machines[0], server, tracer=tracer
    )
    return sim, checker, server, client


def run_calls(sim, client, count):
    def body(sim):
        for _ in range(count):
            yield from client.call(b"payload")

    sim.process(body(sim))
    sim.run()


class TestPlantedBug:
    def test_fetch_before_ready_trips_the_checker(self):
        # Slow enough that the first fetch read lands before the server
        # publishes; the buggy client commits that unpublished read.
        sim, checker, _server, client = make_rig(
            10.0, client_class=FetchBeforeFlagClient
        )
        run_calls(sim, client, 1)
        assert not checker.ok
        assert any("before the server published" in v for v in checker.violations)
        with pytest.raises(InvariantViolation):
            checker.assert_clean()

    def test_halt_on_violation_raises_at_the_event(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim)
        checker = RfpInvariantChecker(halt_on_violation=True).attach(tracer)
        server = RfpServer(
            sim, cluster, cluster.server, lambda p, c: (p, 10.0), threads=2,
            tracer=tracer,
        )
        client = FetchBeforeFlagClient(
            sim, cluster.client_machines[0], server, tracer=tracer
        )
        # The violation is raised inside the client process, so the engine
        # surfaces it as an unhandled process failure chained to the cause.
        with pytest.raises(Exception) as excinfo:
            run_calls(sim, client, 1)
        chain = excinfo.value
        while chain is not None and not isinstance(chain, InvariantViolation):
            chain = chain.__cause__
        assert isinstance(chain, InvariantViolation)


class TestCleanRuns:
    def test_fast_remote_fetch_run_is_clean(self):
        sim, checker, server, client = make_rig(0.2)
        run_calls(sim, client, 10)
        checker.assert_clean()
        assert checker.events_checked > 0
        # Headline §3 claim: the server NIC issued nothing.
        checker.check_nic_accounting(server, expect_inbound_only=True)
        assert checker.ok

    def test_mode_switch_run_is_clean(self):
        sim, checker, server, client = make_rig(30.0)
        run_calls(sim, client, 4)
        assert client.mode is Mode.SERVER_REPLY
        checker.assert_clean()
        # Once switched, pushed replies are legitimate out-bound ops.
        checker.check_nic_accounting(server)
        assert checker.ok

    def test_jakiro_kv_run_is_clean_and_inbound_only(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        # Storing no categories keeps memory flat; observers see all events.
        tracer = Tracer(sim, categories=[])
        checker = RfpInvariantChecker().attach(tracer)
        jakiro = Jakiro(sim, cluster, threads=2, tracer=tracer)
        client = jakiro.connect(cluster.client_machines[0])

        def body():
            for i in range(8):
                key = f"key-{i}".encode()
                yield from client.put(key, b"v" * 64)
                value = yield from client.get(key)
                assert value == b"v" * 64

        sim.process(body())
        sim.run()
        checker.assert_clean()
        checker.check_nic_accounting(jakiro.server, expect_inbound_only=True)
        assert checker.ok

    def test_serverreply_baseline_is_clean(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim, categories=[])
        checker = RfpInvariantChecker(initial_mode=Mode.SERVER_REPLY).attach(tracer)
        system = build_serverreply_kv(sim, cluster, threads=2, tracer=tracer)
        client = system.connect(cluster.client_machines[0])

        def body():
            for i in range(6):
                key = f"key-{i}".encode()
                yield from client.put(key, b"w" * 32)
                yield from client.get(key)

        sim.process(body())
        sim.run()
        checker.assert_clean()
        # ServerReply pushes every result: out-bound ops must match.
        checker.check_nic_accounting(system.server)
        assert checker.ok
        assert system.server.machine.rnic.outbound_ops > 0


class TestFixtureWiring:
    def test_rfp_invariants_fixture(self, rfp_invariants):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        tracer = Tracer(sim)
        checker = rfp_invariants(tracer)
        server = RfpServer(
            sim, cluster, cluster.server, lambda p, c: (p, 0.2), threads=2,
            tracer=tracer,
        )
        client = RfpClient(sim, cluster.client_machines[0], server, tracer=tracer)
        run_calls(sim, client, 3)
        if checker is not None:  # only with --rfp-invariants
            assert checker.events_checked > 0
