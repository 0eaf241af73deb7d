"""Integration tests for the sharded RFP cluster service.

Small-scale versions of what the cluster benchmarks measure: routing,
the per-shard lock, failure detection + replica takeover, durability of
acknowledged writes, and NIC silence on healthy shards.
"""

import gc
import inspect
import weakref

import pytest

from repro.cluster import ClusterConfig, RfpCluster, ShardStatus
from repro.core.config import RfpConfig
from repro.errors import ClusterError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.lint.invariants import ClusterInvariantChecker, RfpInvariantChecker
from repro.sim import Simulator, Tracer


def make_service(shards=3, replication_factor=2, shard_tracers=None, **kwargs):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim, categories=["cluster"])
    service = RfpCluster(
        sim,
        cluster,
        shards=shards,
        cluster_config=ClusterConfig(replication_factor=replication_factor),
        tracer=tracer,
        shard_tracers=shard_tracers,
        **kwargs,
    )
    return sim, cluster, tracer, service


KEYS = [f"key{i:04d}".encode() for i in range(40)]


class TestConfig:
    def test_replication_factor_validated(self):
        with pytest.raises(ClusterError):
            ClusterConfig(replication_factor=0)

    def test_op_timeout_validated(self):
        with pytest.raises(ClusterError):
            ClusterConfig(op_timeout_us=0.0)

    def test_needs_enough_machines(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        with pytest.raises(ClusterError):
            RfpCluster(sim, cluster, shards=2, server_machines=cluster.machines[:1])

    def test_unknown_shard_rejected(self):
        _, _, _, service = make_service(shards=2)
        with pytest.raises(ClusterError):
            service.kill("shard9")


class TestPeek:
    def test_peek_has_no_side_effects(self):
        """``peek`` is a verification readout: it must not draw cost
        jitter, tick the LRU clock, bump counters or refresh recency."""
        _, _, _, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])

        def observed():
            state = {}
            for name, handle in service.shards.items():
                store = handle.jakiro.store
                state[name] = (
                    store._rng.bit_generator.state,
                    store._clock,
                    [
                        getattr(store.counters, counter).value
                        for counter in ("gets", "hits", "misses")
                    ],
                    # A bucket is flat (key, value, last_used) triples.
                    [
                        stamp
                        for partition in store._buckets
                        for bucket in filter(None, partition)
                        for stamp in bucket[2::3]
                    ],
                )
            return state

        before = observed()
        for key in KEYS:
            for shard_name in service.replicas_for(key):
                assert service.peek(shard_name, key) == b"v" * 32
        assert service.peek("shard0", b"missing") is None
        assert observed() == before


class TestRouting:
    def test_get_put_roundtrip(self):
        sim, cluster, _, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        results = []

        def body():
            value = yield from client.get(KEYS[0])
            results.append(value)
            yield from client.put(KEYS[1], b"fresh")
            value = yield from client.get(KEYS[1])
            results.append(value)
            value = yield from client.get(b"missing")
            results.append(value)

        sim.process(body())
        sim.run(until=500.0)
        assert results == [b"v" * 32, b"fresh", None]

    def test_routes_follow_the_ring(self):
        sim, cluster, tracer, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])

        def body():
            for key in KEYS[:10]:
                yield from client.get(key)

        sim.process(body())
        sim.run(until=500.0)
        routed = [e.data["shard"] for e in tracer.events(label="route")]
        assert routed == [service.ring.lookup(key) for key in KEYS[:10]]

    def test_put_writes_every_replica(self):
        sim, cluster, _, service = make_service(replication_factor=2)
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])

        def body():
            yield from client.put(KEYS[5], b"both")

        sim.process(body())
        sim.run(until=500.0)
        for shard_name in service.ring.lookup_replicas(KEYS[5], 2):
            assert service.peek(shard_name, KEYS[5]) == b"both"

    def test_metrics_count_operations(self):
        sim, cluster, _, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])

        def body():
            for key in KEYS[:8]:
                yield from client.get(key)

        sim.process(body())
        sim.run(until=500.0)
        assert sum(m.gets.value for m in service.metrics.shards.values()) == 8
        assert service.metrics.total_operations() == 8


class TestFailover:
    def run_with_kill(self, windows=1500.0, kill_at=400.0):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        shard_tracers = {f"shard{i}": Tracer(sim, capacity=1) for i in range(3)}
        rfp_config = RfpConfig(consecutive_slow_calls=1)
        checkers = {
            name: RfpInvariantChecker(config=rfp_config).attach(tracer)
            for name, tracer in shard_tracers.items()
        }
        cluster_tracer = Tracer(sim, categories=["cluster"])
        cluster_checker = ClusterInvariantChecker().attach(cluster_tracer)
        service = RfpCluster(
            sim,
            cluster,
            shards=3,
            rfp_config=rfp_config,
            cost_model=StoreCostModel(jitter_probability=0.0),
            cluster_config=ClusterConfig(replication_factor=2),
            tracer=cluster_tracer,
            shard_tracers=shard_tracers,
        )
        service.preload([(key, b"v" * 32) for key in KEYS])
        acked = {}
        completed = []

        def body(client, my_keys, client_id):
            sequence = 0
            while True:
                key = my_keys[sequence % len(my_keys)]
                if sequence % 3 == 2:
                    sequence += 1
                    yield from client.put(key, b"w%04d" % sequence)
                    acked[key] = sequence
                else:
                    sequence += 1
                    yield from client.get(key)
                completed.append(sim.now)

        for index in range(4):
            client = service.connect(cluster.machines[3 + index], name=f"c{index}")
            sim.process(body(client, KEYS[index::4], index))
        sim.schedule(kill_at, service.kill, "shard1")
        sim.run(until=windows)
        return sim, service, cluster_checker, checkers, acked, completed

    def test_kill_triggers_single_failover(self):
        _, service, _, _, _, _ = self.run_with_kill()
        assert [event.shard for event in service.failover.events] == ["shard1"]
        assert service.membership.status("shard1") is ShardStatus.DEAD
        assert service.ring.nodes == ["shard0", "shard2"]

    def test_operations_continue_after_failover(self):
        _, service, _, _, _, completed = self.run_with_kill()
        failover_at = service.failover.last_failover_at_us
        assert failover_at is not None
        after = [at for at in completed if at > failover_at + 100.0]
        assert len(after) > 50

    def test_cluster_invariants_clean(self):
        _, _, cluster_checker, checkers, _, _ = self.run_with_kill()
        cluster_checker.assert_clean()
        assert cluster_checker.events_checked > 0
        for checker in checkers.values():
            checker.assert_clean()

    def test_healthy_shards_stay_inbound_only(self):
        _, service, _, checkers, _, _ = self.run_with_kill()
        for name in ("shard0", "shard2"):
            server = service.shards[name].jakiro.server
            assert server.machine.rnic.outbound_ops == 0
            checkers[name].check_nic_accounting(
                server, expect_inbound_only=True, strict_inbound=False
            )
            checkers[name].assert_clean()

    def test_stuck_calls_degrade_via_hybrid_rule(self):
        """Calls stranded on the dead shard burn their fetch retries and
        switch to server-reply — the §3.2 path, not an ad-hoc abort."""
        _, service, _, checkers, _, _ = self.run_with_kill()
        dead = service.shards["shard1"].jakiro.server
        assert dead.halted
        switched = [
            transport.mode.name
            for client in service._clients
            for transport in client.shard_client("shard1").transports
            if transport.mode.name == "SERVER_REPLY"
        ]
        assert switched  # at least the in-flight calls degraded
        checkers["shard1"].assert_clean()

    def test_no_acknowledged_write_lost(self):
        _, service, _, _, acked, _ = self.run_with_kill()
        assert acked
        for key, sequence in acked.items():
            survivors = service.ring.lookup_replicas(key, 2)
            values = [service.peek(name, key) for name in survivors]
            best = max(
                int(value[1:].decode()) if value and value[:1] == b"w" else 0
                for value in values
            )
            assert best >= sequence

    def test_killing_twice_rejected(self):
        _, service, _, _, _, _ = self.run_with_kill()
        with pytest.raises(ClusterError):
            service.kill("shard1")


def capture_attempts(sim, keep):
    """Wrap ``sim.process`` so each routed attempt's call process is
    handed to ``keep`` (the router names them ``<client>.get``/``.put``)."""
    make = sim.process

    def process(generator, name=""):
        proc = make(generator, name=name)
        if name.endswith((".get", ".put")):
            keep(proc)
        return proc

    sim.process = process


class LateShard:
    """Stands in for one shard's transport: answers every call ``delay_us``
    after it starts, with ``outcome`` (raised if it is an exception)."""

    def __init__(self, delay_us, outcome):
        self.delay_us = delay_us
        self.outcome = outcome
        self.answered = []

    def get(self, key):
        yield self.delay_us
        self.answered.append(key)
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


class TestAttemptDeadline:
    """A routed attempt's deadline completes the router's wait itself."""

    def route_log(self, tracer):
        return [
            (event.at_us, event.label, event.data["shard"])
            for event in tracer.events(category="cluster")
            if event.label in ("route", "route_timeout")
        ]

    def test_killed_primary_times_out_exactly_and_reroutes(self):
        sim, cluster, tracer, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3], name="c0")
        key = KEYS[0]
        primary, backup = service.replicas_for(key)
        attempts = []
        capture_attempts(sim, attempts.append)
        results = []

        def body():
            yield 5.0
            service.kill(primary)
            results.append((yield from client.get(key)))

        sim.process(body())
        sim.run(until=500.0)
        timeout = service.config.op_timeout_us
        assert self.route_log(tracer) == [
            (5.0, "route", primary),
            (5.0 + timeout, "route_timeout", primary),
            (5.0 + timeout, "route", backup),
        ]
        assert results == [b"v" * 32]
        assert service.metrics.shards[primary].timeouts.value == 1
        # The abandoned call still runs, stuck on the dead shard.
        abandoned, rerouted = attempts
        assert inspect.getgeneratorstate(abandoned._gen) == inspect.GEN_SUSPENDED
        assert inspect.getgeneratorstate(rerouted._gen) == inspect.GEN_CLOSED

    @pytest.mark.parametrize(
        "late", [b"late", RuntimeError("late")], ids=["value", "exception"]
    )
    def test_late_outcome_of_abandoned_call_dropped(self, late):
        sim, cluster, tracer, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3], name="c0")
        key = KEYS[0]
        primary = service.replicas_for(key)[0]
        stub = LateShard(service.config.op_timeout_us + 20.0, late)
        client._clients[primary] = stub
        results = []

        def body():
            results.append((yield from client.get(key)))
            results.append(sim.now)

        sim.process(body())
        sim.run(until=500.0)  # a late failure would escalate here
        assert stub.answered == [key]
        assert results[0] == b"v" * 32
        assert results[1] < stub.delay_us
        assert [label for _, label, _ in self.route_log(tracer)] == [
            "route",
            "route_timeout",
            "route",
        ]

    def test_attempt_processes_freed_as_they_finish(self):
        sim, cluster, _, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        refs = []
        capture_attempts(sim, lambda proc: refs.append(weakref.ref(proc)))
        alive = []

        def body():
            for index, key in enumerate(KEYS[:12]):
                if index % 3 == 2:
                    yield from client.put(key, b"w")
                else:
                    yield from client.get(key)
                alive.append(sum(ref() is not None for ref in refs))

        enabled = gc.isenabled()
        gc.disable()
        try:
            sim.process(body())
            sim.run(until=500.0)
        finally:
            if enabled:
                gc.enable()
        assert len(refs) == 8 + 4 * 2  # a PUT writes both replicas
        assert alive == [0] * 12


class TestShardLock:
    """Processes that share one :class:`ClusterClient` queue FIFO for a
    shard's transport (one in-flight call per transport) and overlap
    across shards."""

    def test_same_shard_get_queues_behind_put(self):
        sim, cluster, tracer, service = make_service(replication_factor=1)
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        put_done = []

        def writer():
            yield from client.put(KEYS[0], b"new")
            put_done.append(sim.now)

        def reader():
            return (yield from client.get(KEYS[0]))

        write = sim.process(writer())
        read = sim.process(reader())
        sim.run(until=500.0)
        assert write.finished and read.finished
        assert read.value == b"new"
        routes = tracer.events(label="route")
        assert [event.data["op"] for event in routes] == ["put", "get"]
        assert routes[0].data["shard"] == routes[1].data["shard"]
        # The GET reached the shard only when the PUT released it.
        assert routes[1].at_us == put_done[0] > routes[0].at_us

    def test_free_lock_get_checks_routability_once(self):
        # Heartbeats far apart, so only the router asks the membership.
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        service = RfpCluster(
            sim,
            cluster,
            shards=3,
            cluster_config=ClusterConfig(
                replication_factor=2,
                heartbeat_interval_us=10_000.0,
                lease_timeout_us=30_000.0,
            ),
        )
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        sim.run(until=1.0)  # the first heartbeats
        membership = service.membership
        calls = {"is_routable": 0, "status": 0}
        for name in calls:
            method = getattr(membership, name)

            def counted(node, method=method, name=name):
                calls[name] += 1
                return method(node)

            setattr(membership, name, counted)

        def reader():
            for key in KEYS:
                assert (yield from client.get(key)) == b"v" * 32

        read = sim.process(reader())
        sim.run(until=5_000.0)
        assert read.finished
        # One check where the GET picks its shard; the attempt that took
        # the free lock right after does not repeat it.
        assert calls == {"is_routable": len(KEYS), "status": 0}

    def test_queued_get_bounces_off_an_unroutable_shard(self):
        sim, cluster, tracer, service = make_service()
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        key = KEYS[0]
        primary, backup = service.replicas_for(key)

        def writer():
            yield from client.put(key, b"new")

        def reader():
            return (yield from client.get(key))

        sim.process(writer())
        read = sim.process(reader())
        # The GET queues behind the PUT's attempt on the primary; the
        # primary turns suspect before that attempt releases the lock.
        sim.schedule(1.0, service.membership.report_suspect, primary, "test")
        sim.run(until=15.0)
        assert read.finished and read.value == b"new"
        routes = tracer.events(label="route")
        assert [(event.data["op"], event.data["shard"]) for event in routes] == [
            ("put", primary),
            ("put", backup),
            ("get", backup),
        ]
        # A bounce, not a timeout: the GET never reached the primary.
        assert tracer.events(label="route_timeout") == []
        assert service.metrics.shards[backup].failover_ops.value == 1

    def test_different_shards_overlap(self):
        sim, cluster, tracer, service = make_service(replication_factor=1)
        service.preload([(key, b"v" * 32) for key in KEYS])
        client = service.connect(cluster.machines[3])
        first_key = {}
        for key in KEYS:
            first_key.setdefault(service.ring.lookup(key), key)
        keys = [first_key[shard] for shard in sorted(first_key)[:2]]
        finished = []

        def reader(key):
            value = yield from client.get(key)
            finished.append(sim.now)
            return value

        reads = [sim.process(reader(key)) for key in keys]
        sim.run(until=500.0)
        assert [read.value for read in reads] == [b"v" * 32] * 2
        routes = tracer.events(label="route")
        assert len({event.data["shard"] for event in routes}) == 2
        # Both GETs were on the wire before either returned.
        assert max(event.at_us for event in routes) < min(finished)
