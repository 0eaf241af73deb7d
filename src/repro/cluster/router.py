"""Sharded RFP cluster service and its client-side router.

:class:`RfpCluster` turns N independent :class:`~repro.kv.jakiro.Jakiro`
instances — one per server machine — into one addressable service:

- key placement and replica choice come from a deterministic
  :class:`~repro.cluster.ring.HashRing` (consistent hashing, virtual
  nodes),
- liveness comes from :class:`~repro.cluster.membership.Membership`
  (sim-time heartbeats and leases),
- shard death triggers a :class:`~repro.cluster.failover.FailoverCoordinator`
  ring rebalance so every range falls to the shard already holding its
  replica.

:class:`ClusterClient` is one client *thread*'s view of the service: it
owns one :class:`~repro.kv.jakiro.JakiroClient` per shard (registering
with its NIC's contention model exactly once), routes each operation by
key, guards every attempt with an operation timeout, and re-routes to a
replica when a shard stops answering.  Writes are primary-backup: a PUT
is acknowledged only once every healthy replica applied it, which is
what makes failover lose no acknowledged write.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.failover import FailoverCoordinator
from repro.cluster.membership import Membership, ShardStatus
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.migration import (
    MigrationConfig,
    RangeMigration,
    RebalanceConfig,
    RebalanceController,
    VnodeMigration,
)
from repro.cluster.recovery import RecoveryConfig, RecoveryCoordinator
from repro.cluster.ring import HashRing
from repro.cluster.txn import (
    ABORTED,
    COMMITTED,
    LOCK_WIRE_BYTES,
    RETRY,
    STAGE_OVERHEAD_BYTES,
    TxnConfig,
    TxnManager,
)
from repro.core.config import RfpConfig
from repro.errors import ClusterError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.kv.jakiro import Jakiro, JakiroClient
from repro.kv.store import StoreCostModel
from repro.sim.atomic import atomic_section
from repro.sim.core import AllOf, Process, Simulator
from repro.sim.resources import Resource
from repro.sim.trace import Tracer

__all__ = ["ClusterConfig", "ShardHandle", "RfpCluster", "ClusterClient"]

#: Sentinel distinguishing "operation timed out" from any RPC result.
_TIMED_OUT = object()


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-layer tunables (the RFP transport keeps its own
    :class:`~repro.core.config.RfpConfig`).

    Attributes
    ----------
    replication_factor:
        Healthy replicas per key (1 = plain sharding, 2+ = primary-backup
        with takeover on failure).
    vnodes:
        Virtual nodes per shard on the hash ring.
    heartbeat_interval_us / lease_timeout_us:
        Failure-detector cadence (see :class:`Membership`).
    op_timeout_us:
        Router-side deadline per routed attempt; a timed-out attempt
        marks the shard SUSPECT and re-routes to a replica.  Must sit
        comfortably above the worst healthy-path latency, or slow shards
        get falsely suspected.
    max_op_retries:
        Re-route attempts per logical operation before giving up.
    """

    replication_factor: int = 2
    vnodes: int = 128
    heartbeat_interval_us: float = 20.0
    lease_timeout_us: float = 60.0
    op_timeout_us: float = 40.0
    max_op_retries: int = 4

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ClusterError(
                f"replication factor must be >= 1, got {self.replication_factor}"
            )
        if self.op_timeout_us <= 0:
            raise ClusterError(f"op timeout must be positive: {self.op_timeout_us}")
        if self.max_op_retries < 1:
            raise ClusterError(f"max_op_retries must be >= 1, got {self.max_op_retries}")


class ShardHandle:
    """One shard: its Jakiro server, host machine, and liveness flag."""

    def __init__(self, name: str, jakiro: Jakiro, machine: Machine) -> None:
        self.name = name
        self.jakiro = jakiro
        self.machine = machine
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"ShardHandle({self.name}, {state})"


class RfpCluster:
    """N Jakiro shards behind consistent-hash routing with failover."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        shards: int = 3,
        cluster_config: Optional[ClusterConfig] = None,
        rfp_config: Optional[RfpConfig] = None,
        server_machines: Optional[Sequence[Machine]] = None,
        server_threads: int = 6,
        cost_model: Optional[StoreCostModel] = None,
        tracer: Optional[Tracer] = None,
        shard_tracers: Optional[Dict[str, Tracer]] = None,
        txn_config: Optional[TxnConfig] = None,
        name: str = "cluster",
    ) -> None:
        """``tracer`` records cluster-layer events (``route``,
        ``suspect``/``dead``, ``failover``, ``rebalance``);
        ``shard_tracers`` maps shard name -> a per-shard protocol tracer
        handed to that shard's Jakiro, so an
        :class:`~repro.lint.invariants.RfpInvariantChecker` can audit
        each shard in isolation (e.g. assert a healthy shard's NIC
        stayed in-bound-only through a failover)."""
        if shards < 1:
            raise ClusterError(f"cluster needs at least one shard, got {shards}")
        machines = (
            list(server_machines)
            if server_machines is not None
            else cluster.machines[:shards]
        )
        if len(machines) != shards:
            raise ClusterError(
                f"{shards} shards need {shards} server machines, got {len(machines)}"
            )
        self.sim = sim
        self.cluster = cluster
        self.config = cluster_config if cluster_config is not None else ClusterConfig()
        self.rfp_config = rfp_config if rfp_config is not None else RfpConfig()
        self.tracer = tracer
        self.name = name
        shard_tracers = shard_tracers if shard_tracers is not None else {}
        self.shards: Dict[str, ShardHandle] = {}
        for index, machine in enumerate(machines):
            shard_name = f"shard{index}"
            jakiro = Jakiro(
                sim,
                cluster,
                machine=machine,
                threads=server_threads,
                config=self.rfp_config,
                cost_model=cost_model,
                name=f"{name}.{shard_name}",
                tracer=shard_tracers.get(shard_name),
            )
            self.shards[shard_name] = ShardHandle(shard_name, jakiro, machine)
        self.ring = HashRing(self.shards, vnodes=self.config.vnodes)
        self.membership = Membership(
            sim,
            heartbeat_interval_us=self.config.heartbeat_interval_us,
            lease_timeout_us=self.config.lease_timeout_us,
            tracer=tracer,
        )
        for shard_name in sorted(self.shards):
            self.membership.register(shard_name)
        self.failover = FailoverCoordinator(sim, self.ring, self.membership, tracer)
        self.metrics = ClusterMetrics(sorted(self.shards))
        #: ``kind:shard`` -> its in-flight migration (recoveries and
        #: vnode moves share the registry; at most one per kind+shard).
        self._active_migrations: Dict[str, RangeMigration] = {}
        #: Every recovery ever started, completed and aborted alike.
        self.recoveries: List[RecoveryCoordinator] = []
        #: Every vnode migration ever started, completed and aborted alike.
        self.migrations: List[VnodeMigration] = []
        self._clients: List["ClusterClient"] = []
        #: Multi-key atomic operations (see :mod:`repro.cluster.txn`).
        self.txns = TxnManager(self, config=txn_config)
        for handle in self.shards.values():
            sim.process(
                self._heartbeat(handle), name=f"{name}.{handle.name}.heartbeat"
            )
        self.membership.start()

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------

    def replicas_for(self, key: bytes) -> List[str]:
        """Current replica set for ``key`` (primary first)."""
        return self.ring.lookup_replicas(key, self.config.replication_factor)

    def preload(self, pairs) -> None:
        """Load pairs into every replica (off-line, before the clock runs).

        The ring places the whole batch in one pass; shards are
        independent stores, so each gets its pairs in one bulk load, in
        the order given."""
        pairs = list(pairs)
        placed = self.ring.place_many(
            [key for key, _ in pairs], self.config.replication_factor
        )
        for shard_name, handle in self.shards.items():
            if shard_name in placed:
                handle.jakiro.preload(
                    list(compress(pairs, placed[shard_name].tolist()))
                )

    def peek(self, shard_name: str, key: bytes) -> Optional[bytes]:
        """Direct store readout (no simulated time) — verification only.

        Used post-run to audit durability claims, e.g. that no
        acknowledged write was lost across a failover.  It has no side
        effects: no cost draw, no LRU refresh, no counter.
        """
        return self._handle(shard_name).jakiro.store.peek(key)

    # ------------------------------------------------------------------
    # Clients and failure injection
    # ------------------------------------------------------------------

    def connect(self, machine: Machine, name: str = "") -> "ClusterClient":
        """Attach one client thread running on ``machine``."""
        client = ClusterClient(self, machine, name=name)
        self._clients.append(client)
        return client

    @atomic_section
    def kill(self, shard_name: str) -> None:
        """Crash one shard: its server stops serving and its heartbeats
        stop; the NIC keeps serving one-sided reads (a host crash takes
        the CPU with it, not the fabric), so stuck fetchers see stale
        parity until they degrade to server-reply and block."""
        handle = self._handle(shard_name)
        if not handle.alive:
            raise ClusterError(f"shard {shard_name!r} is already dead")
        handle.alive = False
        handle.jakiro.server.halt()
        if self.tracer is not None:
            self.tracer.record("cluster", "shard_killed", shard=shard_name)

    def repair(
        self,
        shard_name: str,
        recovery_config: Optional[RecoveryConfig] = None,
    ) -> RecoveryCoordinator:
        """Bring a crashed shard back: reboot, rejoin, stream, re-enter.

        The reboot loses the shard's volatile store, so everything it
        will own again must come back over the wire: the returned
        :class:`RecoveryCoordinator` streams the ranges from the replicas
        that absorbed them and performs the atomic ring re-entry when the
        watermark catches up.  Until then the shard is ``RECOVERING`` —
        heartbeating (a second crash mid-transfer is re-detected and
        aborts the recovery) but unroutable, so it never serves a stale
        value.  Requires the failure detector to have declared the shard
        ``DEAD`` (i.e. the failover already ran); repairing a merely
        SUSPECT shard is a race with its own lease and is rejected.
        """
        handle = self._handle(shard_name)
        if handle.alive:
            raise ClusterError(f"shard {shard_name!r} is not dead")
        if self.membership.status(shard_name) is not ShardStatus.DEAD:
            raise ClusterError(
                f"shard {shard_name!r} is "
                f"{self.membership.status(shard_name).name}, not DEAD — "
                "repair races the failure detector"
            )
        if f"recovery:{shard_name}" in self._active_migrations:
            raise ClusterError(f"shard {shard_name!r} is already recovering")
        handle.jakiro.restart()
        self.membership.rejoin(shard_name, reason="repaired")
        handle.alive = True
        self.sim.process(
            self._heartbeat(handle), name=f"{self.name}.{handle.name}.heartbeat"
        )
        for client in self._clients:
            client.reconnect(shard_name)
        recovery = RecoveryCoordinator(self, shard_name, config=recovery_config)
        self._active_migrations[recovery.migration_key] = recovery
        self.recoveries.append(recovery)
        recovery.start()
        return recovery

    def move_vnodes(
        self,
        tokens: Sequence[int],
        to_shard: str,
        config: Optional[MigrationConfig] = None,
    ) -> VnodeMigration:
        """Live-migrate the vnodes at ``tokens`` onto ``to_shard``.

        The returned :class:`VnodeMigration` streams each moved range
        from its current owner (donors keep serving, and keep their
        in-bound-only NIC profile) and flips token ownership atomically
        once its watermark reaches target.  Requires a quiet cluster:
        every involved shard HEALTHY and no other migration in flight —
        vnode moves are pure optimization, so they always yield to the
        correctness machinery instead of racing it.
        """
        handle = self._handle(to_shard)
        if not handle.alive:
            raise ClusterError(f"cannot migrate vnodes onto dead shard {to_shard!r}")
        if self.membership.status(to_shard) is not ShardStatus.HEALTHY:
            raise ClusterError(
                f"cannot migrate vnodes onto {to_shard!r} while it is "
                f"{self.membership.status(to_shard).name}"
            )
        if self._active_migrations:
            raise ClusterError(
                "a migration is already in flight: "
                f"{sorted(self._active_migrations)}"
            )
        for token in tokens:
            owner = self.ring.owner_of(token)
            if owner == to_shard:
                raise ClusterError(f"token {token} is already owned by {to_shard!r}")
            if self.membership.status(owner) is not ShardStatus.HEALTHY:
                raise ClusterError(
                    f"donor {owner!r} of token {token} is "
                    f"{self.membership.status(owner).name}, not HEALTHY"
                )
        migration = VnodeMigration(self, to_shard, tokens, config=config)
        self._active_migrations[migration.migration_key] = migration
        self.migrations.append(migration)
        migration.start()
        return migration

    def start_rebalancer(
        self, config: Optional[RebalanceConfig] = None
    ) -> RebalanceController:
        """Spawn the load-aware rebalance control loop (see
        :class:`repro.cluster.migration.RebalanceController`)."""
        controller = RebalanceController(self, config=config)
        controller.start()
        return controller

    @property
    def active_migrations(self) -> List[RangeMigration]:
        """In-flight migrations (recoveries and vnode moves), sorted by
        registry key for deterministic iteration."""
        return [
            self._active_migrations[key] for key in sorted(self._active_migrations)
        ]

    @atomic_section
    def note_put(self, key: bytes, value: bytes) -> None:
        """Router hook: one PUT fully acknowledged.  Migrations in flight
        forward the write to their recipient if its incoming ranges
        cover the key, so the shard catches up on the live stream
        instead of chasing a dirty set."""
        for migration in self._active_migrations.values():
            migration.note_write(key, value)

    def _migration_finished(self, migration: RangeMigration) -> None:
        self._active_migrations.pop(migration.migration_key, None)

    def _handle(self, shard_name: str) -> ShardHandle:
        try:
            return self.shards[shard_name]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_name!r}") from None

    def _heartbeat(self, handle: ShardHandle) -> Generator:
        interval = self.config.heartbeat_interval_us
        while handle.alive:
            self.membership.beat(handle.name)
            yield self.sim.timeout(interval)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RfpCluster({len(self.shards)} shards, {len(self._clients)} clients)"


class ClusterClient:
    """One client thread's router over the cluster's shards."""

    def __init__(self, service: RfpCluster, machine: Machine, name: str = "") -> None:
        self.sim = service.sim
        self.service = service
        self.machine = machine
        self.name = name or f"cluster-client@{machine.name}"
        self._clients: Dict[str, JakiroClient] = {}
        #: Shards whose transport this client abandoned mid-call (an op
        #: timed out); a one-sided transport with a stuck in-flight call
        #: can never be reused safely.
        self._broken: set = set()
        #: Per-shard serialization: processes sharing this client queue
        #: FIFO for a shard's transport (one in-flight call per
        #: transport is an RFP invariant); different shards overlap.
        self._shard_locks: Dict[str, Resource] = {}
        # Per-op process names, built once instead of per attempt.
        self._op_names = {"get": f"{self.name}.get", "put": f"{self.name}.put"}
        for index, shard_name in enumerate(sorted(service.shards)):
            handle = service.shards[shard_name]
            self._clients[shard_name] = handle.jakiro.connect(
                machine,
                name=f"{self.name}.{shard_name}",
                register_issuer=(index == 0),
            )
            self._shard_locks[shard_name] = Resource(self.sim)

    def shard_client(self, shard_name: str) -> JakiroClient:
        return self._clients[shard_name]

    def reconnect(self, shard_name: str) -> None:
        """Fresh transports to a rebooted shard.

        The old :class:`JakiroClient`'s transports are unusable — their
        stuck in-flight calls degraded through the hybrid rule and own
        those connections forever — so rejoin means new connections, the
        way a real client re-dials a rebooted server.  The client thread
        is already registered with its NIC's contention model, so the new
        transports don't register again.
        """
        handle = self.service.shards[shard_name]
        self._clients[shard_name] = handle.jakiro.connect(
            self.machine,
            name=f"{self.name}.{shard_name}",
            register_issuer=False,
        )
        self._broken.discard(shard_name)

    # ------------------------------------------------------------------
    # The KV surface
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        """Process body: routed GET; returns the value or ``None``."""
        for attempt in range(self.service.config.max_op_retries):
            shard_name = self._healthy_replicas(key)[0]
            result = yield from self._attempt(
                shard_name, "get", key, None, rerouted=attempt > 0
            )
            if result is not _TIMED_OUT:
                return result
        raise ClusterError(
            f"GET exhausted {self.service.config.max_op_retries} routing attempts"
        )

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: primary-backup PUT; acknowledged only after every
        healthy replica applied the write.

        Before acknowledging, the replica set is re-read: if the ring
        changed underneath the call (a recovered shard re-entered
        mid-PUT), the write repeats against the new set.  Without the
        re-check a PUT issued just before a recovery handoff could
        acknowledge without the rejoined shard ever seeing the value —
        the one window the recovery watermark cannot cover on its own.
        A re-check round is bookkeeping for a write that already
        succeeded everywhere it was sent, so it is budgeted separately
        from the timeout-driven routing retries — otherwise a durable
        write could be reported to the client as exhausted.
        """
        service = self.service
        attempts = 0
        rechecks = 0
        # Each re-check loop-around needs a distinct ring mutation to
        # land mid-PUT, so this bound is unreachable on any real
        # schedule — it guards against a livelock, not a budget.
        max_rechecks = service.config.max_op_retries * len(service.shards)
        while True:
            replicas = self._healthy_replicas(key)
            timed_out = False
            for shard_name in replicas:
                result = yield from self._attempt(
                    shard_name, "put", key, value, rerouted=attempts > 0
                )
                if result is _TIMED_OUT:
                    timed_out = True
                    break
            if timed_out:
                attempts += 1
                if attempts >= service.config.max_op_retries:
                    raise ClusterError(
                        f"PUT exhausted {service.config.max_op_retries} "
                        "routing attempts"
                    )
                continue
            try:
                current = set(self._healthy_replicas(key))
            except ClusterError:
                # Everything turned suspect since the last write; the
                # data is on every replica that was healthy, so ack.
                current = set()
            if not current <= set(replicas):
                rechecks += 1
                if rechecks > max_rechecks:
                    raise ClusterError(
                        f"PUT replica re-check did not converge after "
                        f"{max_rechecks} rounds"
                    )
                continue
            service.note_put(key, value)
            return None

    # ------------------------------------------------------------------
    # Multi-key transactions (see repro.cluster.txn)
    # ------------------------------------------------------------------

    def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> Generator:
        """Process body: lock-based two-phase multi-PUT.

        Phase 1 locks every key strictly in sorted-key order (the global
        acquisition order that makes deadlock impossible); phase 2
        stages each value on every healthy replica — the participant
        fan-out runs per-primary groups concurrently — then
        :meth:`TxnManager.commit` flips all of it visible in one atomic
        instant.  Any participant failure
        (lock attempts exhausted, no healthy replica while staging, a
        lease lost before commit) aborts: locks release, staging is
        discarded, nothing becomes visible, and :class:`ClusterError`
        propagates to the caller.  Returns the transaction id.
        """
        service = self.service
        txns = service.txns
        ordered = sorted(items, key=lambda pair: pair[0])
        keys = [key for key, _ in ordered]
        if len(set(keys)) != len(keys):
            raise ClusterError("multi_put keys must be distinct")
        while txns.draining:
            # A migration is waiting to cut over; hold new transactions
            # at the door so the drain is bounded by the open ones.
            yield self.sim.timeout(txns.config.lock_retry_us)
        txn_id = txns.begin(self.name, keys)
        for key, _ in ordered:
            granted = yield from self._txn_lock(txn_id, key)
            if not granted:
                txns.abort(txn_id, reason="lock-timeout")
                raise ClusterError(
                    f"txn {txn_id} gave up locking key {key!r} after "
                    f"{txns.config.lock_attempts} attempts"
                )
        rounds = 0
        # Each loop-around needs a distinct ring mutation between staging
        # and commit; the bound guards a livelock, not a budget (same
        # argument as the PUT ack re-check).
        max_rounds = service.config.max_op_retries * len(service.shards)
        while True:
            try:
                yield from self._txn_stage(txn_id, ordered)
            except ClusterError:
                txns.abort(txn_id, reason="participant-failure")
                raise
            outcome = txns.commit(txn_id)
            if outcome == COMMITTED:
                return txn_id
            if outcome == ABORTED:
                raise ClusterError(
                    f"txn {txn_id} aborted at commit: a lock lease was lost"
                )
            assert outcome == RETRY
            rounds += 1
            if rounds > max_rounds:
                txns.abort(txn_id, reason="recheck-livelock")
                raise ClusterError(
                    f"txn {txn_id} replica re-check did not converge after "
                    f"{max_rounds} rounds"
                )

    def _txn_lock(self, txn_id: int, key: bytes) -> Generator:
        """One key's lock acquisition: bounded request/back-off rounds.

        Each request is one in-bound message on the current primary
        (dead or unroutable primaries are not asked — the back-off lets
        failover re-point the key to a live replica).  Returns whether
        the lock was granted.
        """
        service = self.service
        txns = service.txns
        config = txns.config
        for _attempt in range(config.lock_attempts):
            shard_name = service.ring.lookup(key)
            handle = service.shards[shard_name]
            if handle.alive and service.membership.is_routable(shard_name):
                yield handle.machine.rnic.submit_inbound(LOCK_WIRE_BYTES)
                yield self.sim.timeout(config.lock_rtt_us)
                if txns.grant(txn_id, key, shard_name):
                    return True
            yield self.sim.timeout(config.lock_retry_us)
        return False

    def _txn_stage(self, txn_id: int, ordered: Sequence[Tuple[bytes, bytes]]) -> Generator:
        """Replicate each pair's bytes to every healthy replica (the
        RF>=2 write path the commit flips visible), grouped by primary
        shard so different participants stream concurrently."""
        service = self.service
        txns = service.txns
        groups: Dict[str, List[Tuple[bytes, bytes]]] = {}
        for key, value in ordered:
            primary = self._healthy_replicas(key)[0]
            groups.setdefault(primary, []).append((key, value))
        failures: List[str] = []

        def stage_group(pairs: List[Tuple[bytes, bytes]]) -> Generator:
            for key, value in pairs:
                try:
                    replicas = self._healthy_replicas(key)
                except ClusterError as exc:
                    failures.append(str(exc))
                    return
                for shard_name in replicas:
                    handle = service.shards[shard_name]
                    yield handle.machine.rnic.submit_inbound(
                        len(key) + len(value) + STAGE_OVERHEAD_BYTES
                    )
                yield self.sim.timeout(txns.config.lock_rtt_us)
                txns.stage(txn_id, key, value, replicas)

        processes: List[Process] = [
            self.sim.process(stage_group(pairs), name=f"{self.name}.txn")
            for _shard, pairs in sorted(groups.items())
        ]
        yield AllOf(self.sim, processes)
        if failures:
            raise ClusterError(f"txn {txn_id} staging failed: {failures[0]}")

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------

    def _healthy_replicas(self, key: bytes) -> List[str]:
        service = self.service
        replicas = [
            shard_name
            for shard_name in service.replicas_for(key)
            if service.membership.is_routable(shard_name)
            and shard_name not in self._broken
        ]
        if not replicas:
            raise ClusterError(f"no healthy replica for key {key!r}")
        return replicas

    def _attempt(
        self,
        shard_name: str,
        op: str,
        key: bytes,
        value: Optional[bytes],
        rerouted: bool = False,
    ) -> Generator:
        """One guarded attempt against one shard.

        Returns the RPC result, or :data:`_TIMED_OUT` after marking the
        shard suspect (the caller re-routes).  The underlying call keeps
        running detached when abandoned; its connection degrades through
        the hybrid rule rather than being reused.
        """
        sim = self.sim
        service = self.service
        lock = self._shard_locks[shard_name]
        grant = lock.acquire()
        if grant is not None:
            yield grant
        try:
            if shard_name in self._broken or not service.membership.is_routable(
                shard_name
            ):
                # The shard failed while this operation queued behind the
                # per-shard lock; bounce it back to the router.
                return _TIMED_OUT
            if service.tracer is not None:
                service.tracer.record(
                    "cluster",
                    "route",
                    shard=shard_name,
                    op=op,
                    client=self.name,
                )
            client = self._clients[shard_name]
            body = client.get(key) if op == "get" else client.put(key, value)
            call = sim.process(body, name=self._op_names[op])
            # The deadline completes the call's ``done`` itself, so the
            # wait below is the whole race.  It is armed before the call
            # first runs: an exact tie resolves to the timeout.
            call.deadline(service.config.op_timeout_us, _TIMED_OUT)
            outcome = yield call.done
            if outcome is not _TIMED_OUT:
                service.metrics.record_op(
                    shard_name,
                    op,
                    rerouted=rerouted,
                    token=service.ring.token_of(key),
                )
                return outcome
            # Timed out: this transport is stuck mid-call — never reuse
            # it — and the shard is suspect for everyone.
            self._broken.add(shard_name)
            service.metrics.record_timeout(shard_name)
            service.membership.report_suspect(
                shard_name,
                reason=f"{op} timed out after {service.config.op_timeout_us}us",
            )
            if service.tracer is not None:
                service.tracer.record(
                    "cluster",
                    "route_timeout",
                    shard=shard_name,
                    op=op,
                    client=self.name,
                )
            return _TIMED_OUT
        finally:
            lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterClient({self.name}, {len(self._clients)} shards)"
