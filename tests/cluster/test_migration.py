"""Live vnode migration & load-aware rebalancing on the shared engine.

The unified :mod:`repro.cluster.migration` engine is already exercised
end-to-end through its recovery client (``test_recovery.py``); this
suite covers the second client: :class:`VnodeMigration` moving tokens
between *healthy* shards under live traffic, the
:class:`RebalanceController` that decides which tokens to move, and the
planted-bug fixture proving the rebalance trace invariants catch a
cutover that would leave keys unroutable mid-move.  It also holds the
engine's plan, placed in whole-batch ring passes, to the per-key loop it
replaced, for both clients.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    RebalanceConfig,
    RfpCluster,
)
from repro.cluster.migration import (
    MigrationConfig,
    RangeMigration,
    RebalanceController,
)
from repro.core.config import RfpConfig
from repro.cluster.membership import ShardStatus
from repro.errors import ClusterError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv.store import StoreCostModel
from repro.sim import Simulator, Tracer

KEYS = [f"key{i:04d}".encode() for i in range(60)]
#: Preloaded for the plan checks, so every donor donates hundreds of keys.
PLAN_KEYS = [b"plan-key-%05d" % i for i in range(3000)]


def make_service(attach_checker=None, shards=3, replication_factor=1):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    tracer = Tracer(sim, categories=["cluster"])
    if attach_checker is not None:
        attach_checker(tracer)
    service = RfpCluster(
        sim,
        cluster,
        shards=shards,
        # No shard dies in most of these tests; a huge slow-call
        # threshold keeps the hybrid rule from degrading the overloaded
        # donor to server-reply (which would post out-bound verbs and
        # muddy the donors-stay-in-bound-only assertions).
        rfp_config=RfpConfig(consecutive_slow_calls=1_000_000),
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(replication_factor=replication_factor),
        tracer=tracer,
    )
    service.preload([(key, b"v" * 32) for key in KEYS])
    return sim, cluster, tracer, service


def pick_move(service):
    """(token, donor, recipient, keys-in-range) for a non-empty vnode."""
    ring = service.ring
    token = ring.token_of(KEYS[0])
    donor = ring.owner_of(token)
    recipient = sorted(name for name in service.shards if name != donor)[0]
    keys = [key for key in KEYS if ring.token_of(key) == token]
    assert keys  # KEYS[0] at minimum
    return token, donor, recipient, keys


def cluster_labels(tracer):
    return [event.label for event in tracer.events()]


class TestVnodeMoveEndToEnd:
    def test_move_relocates_exactly_that_range(self, cluster_invariants):
        sim, _, tracer, service = make_service(cluster_invariants)
        token, donor, recipient, moved_keys = pick_move(service)
        before = {key: service.ring.lookup(key) for key in KEYS}
        migration = service.move_vnodes([token], recipient)
        sim.run(until=2000.0)
        assert not migration.active and not migration.aborted
        assert migration.watermark == migration.target
        assert service.ring.owner_of(token) == recipient
        for key in KEYS:
            expected = recipient if key in moved_keys else before[key]
            assert service.ring.lookup(key) == expected, key
        # The recipient holds every key of the moved range the moment
        # it owns the range.
        for key in moved_keys:
            assert service.peek(recipient, key) is not None
        labels = cluster_labels(tracer)
        assert "migrate_start" in labels
        assert "migrate_batch" in labels
        assert "migrate_cutover" in labels
        assert "migrate_abort" not in labels
        assert labels.index("migrate_start") < labels.index("migrate_batch")
        assert labels.index("migrate_batch") < labels.index("migrate_cutover")
        metrics = service.metrics.shard(recipient)
        assert metrics.rebalanced_vnodes.value == 1

    def test_recipient_pulls_donor_stays_inbound_only(self, cluster_invariants):
        sim, _, _, service = make_service(cluster_invariants)
        token, donor, recipient, _ = pick_move(service)
        migration = service.move_vnodes([token], recipient)
        sim.run(until=2000.0)
        assert not migration.active and not migration.aborted
        assert migration.event.batches >= 1
        # The recipient's only out-bound verbs are its ranged reads;
        # the donor shipped the range without posting a single one.
        assert (
            service.shards[recipient].machine.rnic.outbound_ops
            == migration.event.batches
        )
        assert service.shards[donor].machine.rnic.outbound_ops == 0

    def test_live_writes_forwarded_across_the_move(self, cluster_invariants):
        """A PUT acked mid-stream must be readable from the recipient
        after cutover — forwarding, not the stale donor snapshot, wins."""
        sim, cluster, _, service = make_service(cluster_invariants)
        token, donor, recipient, moved_keys = pick_move(service)
        key = moved_keys[0]
        client = service.connect(cluster.machines[4], name="w")
        acked = []

        def writer():
            sequence = 0
            while True:
                sequence += 1
                value = b"w%04d" % sequence
                yield from client.put(key, value)
                acked.append(value)

        sim.process(writer())
        # A glacial stream so writes land before, during, and after it.
        migration = service.move_vnodes(
            [token], recipient, config=MigrationConfig(batch_keys=1, pace_us=40.0)
        )
        sim.run(until=2000.0)
        assert not migration.active and not migration.aborted
        assert migration.event.catchup_keys >= 1
        assert service.ring.lookup(key) == recipient
        stored = service.peek(recipient, key)
        assert stored is not None and stored >= acked[-1]

    def test_any_membership_transition_aborts(self, cluster_invariants):
        """A vnode move is pure optimization: an unrelated shard dying
        mid-stream aborts it and leaves ownership untouched."""
        sim, _, tracer, service = make_service(cluster_invariants)
        token, donor, recipient, _ = pick_move(service)
        bystander = next(
            name
            for name in sorted(service.shards)
            if name not in (donor, recipient)
        )
        migration = service.move_vnodes(
            [token], recipient, config=MigrationConfig(batch_keys=1, pace_us=300.0)
        )
        sim.schedule(100.0, service.kill, bystander)
        sim.run(until=3000.0)
        assert migration.aborted and not migration.active
        assert service.ring.owner_of(token) == donor
        labels = cluster_labels(tracer)
        assert "migrate_cutover" not in labels
        assert "migrate_abort" in labels
        assert service.metrics.shard(recipient).rebalanced_vnodes.value == 0


class TestMoveValidation:
    def test_refuses_unknown_or_self_moves(self):
        _, _, _, service = make_service()
        token, donor, _, _ = pick_move(service)
        with pytest.raises(ClusterError, match="already owned by"):
            service.move_vnodes([token], donor)
        with pytest.raises(ClusterError, match="at least one token"):
            service.move_vnodes([], donor)

    def test_refuses_concurrent_migrations(self):
        _, _, _, service = make_service()
        token, _, recipient, _ = pick_move(service)
        service.move_vnodes([token], recipient)
        other = service.ring.tokens_of(recipient)[0]
        with pytest.raises(ClusterError, match="already in flight"):
            service.move_vnodes([other], "shard0")

    def test_refuses_unhealthy_recipient(self):
        sim, _, _, service = make_service()
        token, donor, _, _ = pick_move(service)
        bystander = next(
            name for name in sorted(service.shards) if name != donor
        )
        sim.schedule(100.0, service.kill, bystander)
        sim.run(until=1500.0)  # lease expires; failover declares DEAD
        with pytest.raises(ClusterError, match="dead shard"):
            service.move_vnodes([token], bystander)


class TestRebalanceController:
    def test_decide_holds_until_busy_and_skewed(self):
        _, _, _, service = make_service()
        controller = RebalanceController(
            service, RebalanceConfig(min_window_ops=16)
        )
        # Idle window: below min_window_ops.
        assert controller._decide() is None
        # Busy but balanced: no shard clears the threshold.
        for name in service.shards:
            token = service.ring.tokens_of(name)[0]
            for _ in range(20):
                service.metrics.record_op(name, "get", token=token)
        assert controller._decide() is None

    def test_decide_picks_hot_vnodes_for_the_coldest_shard(self):
        _, _, _, service = make_service()
        controller = RebalanceController(
            service, RebalanceConfig(min_window_ops=16)
        )
        _, hot, _, _ = pick_move(service)
        hot_tokens = service.ring.tokens_of(hot)[:3]
        for hot_token in hot_tokens:
            for _ in range(30):
                service.metrics.record_op(hot, "get", token=hot_token)
        others = sorted(name for name in service.shards if name != hot)
        for _ in range(30):
            service.metrics.record_op(
                others[0], "get", token=service.ring.tokens_of(others[0])[0]
            )
        decision = controller._decide()
        assert decision is not None
        decided_hot, tokens, cold = decision
        assert decided_hot == hot
        assert cold == others[1]  # the idle shard, not the warm one
        assert tokens and set(tokens) <= set(hot_tokens)
        # Shedding is bounded by half the hot-cold gap: moving more
        # would just swap which shard is hot.
        shed = sum(
            service.metrics.window_vnode_ops().get(t, 0) for t in tokens
        )
        assert 0 < shed <= (90 - 0) / 2.0

    def test_control_loop_spreads_a_pinned_hot_set(self, cluster_invariants):
        """End to end: clients hammer one shard's keys; the controller
        observes the skew, moves hot vnodes off it live, and the load
        ratio the report exposes drops."""
        sim, cluster, _, service = make_service(cluster_invariants)
        hot = service.ring.lookup(KEYS[0])
        hot_keys = [key for key in KEYS if service.ring.lookup(key) == hot]
        assert len(hot_keys) >= 4

        def reader(client, my_keys):
            index = 0
            while True:
                index += 1
                yield from client.get(my_keys[index % len(my_keys)])

        for i in range(8):
            client = service.connect(cluster.machines[3 + i % 4], name=f"c{i}")
            sim.process(reader(client, hot_keys))
        controller = service.start_rebalancer(
            RebalanceConfig(interval_us=50.0, min_window_ops=32)
        )
        sim.run(until=4000.0)
        controller.stop()
        assert controller.moves >= 1
        assert service.migrations  # the moves are on the public record
        for migration in service.migrations:
            assert not migration.active and not migration.aborted
            assert migration.event.kind == "rebalance"
        # The hot shard shed vnodes; the ring says so.
        moved = sum(len(m.tokens) for m in service.migrations)
        assert moved >= 1
        assert all(m.shard != hot for m in service.migrations)


def per_key_plan(migration):
    """The per-key loop :meth:`RangeMigration._plan` replaced, kept as
    its reference: each donor's resident keys in store order, kept when
    the donor is the key's current primary and the migration wants it."""
    service = migration.service
    plan = {}
    for donor in service.ring.nodes:
        if donor == migration.shard:
            continue
        store = service.shards[donor].jakiro.store
        for key, _value in store.items():
            if service.ring.lookup(key) != donor:
                continue
            if migration._wants(key):
                plan.setdefault(donor, []).append(key)
    return plan


class TestPlan:
    """The batch plan names the per-key loop's donors, in its order, and
    each donor's keys, in its order."""

    def test_recovery_plan_matches_per_key_loop(self, cluster_invariants):
        sim, _, _, service = make_service(cluster_invariants, replication_factor=2)
        service.preload([(key, b"p" * 16) for key in PLAN_KEYS])
        service.kill("shard1")
        sim.run(until=300.0)
        assert service.membership.status("shard1") is ShardStatus.DEAD
        recovery = service.repair("shard1")
        plan = recovery._plan()
        assert list(plan.items()) == list(per_key_plan(recovery).items())
        assert list(plan) == ["shard0", "shard2"]
        assert sum(map(len, plan.values())) > 1000

    def test_vnode_move_plan_matches_per_key_loop(self, cluster_invariants):
        _, _, _, service = make_service(cluster_invariants, replication_factor=2)
        service.preload([(key, b"p" * 16) for key in PLAN_KEYS])
        ring = service.ring
        recipient = "shard2"
        tokens = ring.tokens_of("shard0")[::8] + ring.tokens_of("shard1")[::8]
        moved = [key for key in PLAN_KEYS if ring.token_of(key) in tokens]
        # Some moved keys already have the recipient as their backup:
        # the plan must leave those out.
        assert any(recipient in ring.lookup_replicas(key, 2) for key in moved)
        migration = service.move_vnodes(tokens, recipient)
        plan = migration._plan()
        assert list(plan.items()) == list(per_key_plan(migration).items())
        assert list(plan) == ["shard0", "shard1"]
        assert 0 < sum(map(len, plan.values())) < len(moved)


class TestPlantedBug:
    def test_checker_catches_cutover_below_watermark(self, monkeypatch):
        """Plant the bug the rebalance invariants exist to catch: an
        engine that cuts over without draining the stream flips token
        ownership while the recipient is missing the range's keys —
        every such key is unroutable (a primary that never heard of it)
        the instant placement changes.  The checker, attached to the
        same live trace the clean tests use, must flag the cutover."""
        from repro.lint.invariants import ClusterInvariantChecker

        sim, _, tracer, service = make_service()
        checker = ClusterInvariantChecker().attach(tracer)
        token, _, recipient, moved_keys = pick_move(service)

        def skip_pull(self, donor, keys):
            # The planted bug: claim no keys, install nothing — the
            # watermark never advances, but _run cuts over anyway.
            if False:  # pragma: no cover - never yields
                yield

        monkeypatch.setattr(RangeMigration, "_pull_batch", skip_pull)
        migration = service.move_vnodes([token], recipient)
        sim.run(until=500.0)
        assert not migration.active and not migration.aborted
        assert migration.watermark < migration.target
        # The bug is real: the ring routes the range to a shard that
        # does not hold its keys.
        assert service.ring.lookup(moved_keys[0]) == recipient
        assert service.peek(recipient, moved_keys[0]) is None
        assert not checker.ok
        assert any("below its watermark" in v for v in checker.violations)
