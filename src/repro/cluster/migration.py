"""Unified range migration: one engine, two clients.

PR 3 built the hard parts of moving a key range between live shards —
watermarked pull-based range streaming, live write forwarding, atomic
cutover, re-planning under topology drift — but welded them to the
crash-recovery path in :mod:`repro.cluster.recovery`.  This module is
the extraction: :class:`RangeMigration` owns the full plan → pull →
forward → cutover machinery, parameterized by two policy hooks —

- :meth:`RangeMigration._target_ring` — the ring the migration is
  streaming *toward*.  Recovery's target is the current ring with the
  rejoiner re-added; a vnode move's target is the current ring with
  chosen tokens reassigned to the recipient.
- :meth:`RangeMigration._cutover` — the atomic instant the target ring
  becomes the real ring.  Recovery reinstates the shard and promotes it
  out of ``RECOVERING``; a vnode move flips token ownership in place.

Everything between those hooks is shared and identical for both
clients:

- **Plan** — one donor per key (its current primary), covering exactly
  the keys the target ring places on the migrating shard that the
  current ring does not (:meth:`RangeMigration._wants`).
- **Pull** — the *recipient* fetches each batch with a one-sided
  ranged read against the donor: an out-bound request op on its own
  NIC, served *in-bound* on the donor's.  Donors keep the RFP paper's
  in-bound-only NIC profile even while shipping migration traffic, and
  batches are paced so live traffic sharing the donor pipeline keeps
  its latency SLO.
- **Forward** — every PUT acked mid-stream is applied to the recipient
  too (:meth:`RangeMigration.note_write`); a forwarded key is *fresh*
  and an older in-flight snapshot never overwrites it.
- **Watermark** — planned-keys-copied advances monotonically to the
  plan target; cutover is legal only at ``watermark == target``, so no
  key the target ring places on the shard can be missing at the moment
  placement changes.  The :class:`repro.lint.ClusterInvariantChecker`
  audits the same rule for both clients from their traces.

The second client lives here too: :class:`VnodeMigration` moves chosen
vnodes onto a healthy recipient (a vnode move *is* a small recovery
with a healthy source and a narrower target ring), and
:class:`RebalanceController` drives it from the windowed
:class:`repro.cluster.metrics.ClusterMetrics` load signal — watching
per-shard op counts, picking the hottest vnodes of the hottest shard,
and migrating them to the coldest shard live.  A vnode move is pure
optimization, so its abort policy is maximally conservative: *any*
membership transition aborts the move and leaves ownership untouched
(the correctness machinery — failover, recovery — always wins the
race).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.membership import ShardStatus
from repro.cluster.ring import HashRing
from repro.errors import ClusterError
from repro.hw.verbs import READ_REQUEST_WIRE_BYTES
from repro.kv.store import partition_of
from repro.sim.atomic import atomic_section

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.router import RfpCluster

__all__ = [
    "MigrationConfig",
    "MigrationEvent",
    "RangeMigration",
    "VnodeMigration",
    "RebalanceConfig",
    "RebalanceController",
]


@dataclass(frozen=True)
class MigrationConfig:
    """Tunables for one range-transfer stream.

    Attributes
    ----------
    batch_keys:
        Keys moved per ranged read.  Bigger batches finish sooner but
        occupy the donor's in-bound pipeline longer per read.
    pace_us:
        Idle gap between batches — the SLO knob that keeps live traffic
        flowing through the shared donor NIC during the transfer.
    rtt_us:
        Fabric round-trip charged per ranged read on top of the donor's
        in-bound service time (request out + response back).
    """

    batch_keys: int = 32
    pace_us: float = 10.0
    rtt_us: float = 3.0

    def __post_init__(self) -> None:
        if self.batch_keys < 1:
            raise ClusterError(f"batch_keys must be >= 1, got {self.batch_keys}")
        if self.pace_us < 0:
            raise ClusterError(f"pace_us must be >= 0, got {self.pace_us}")
        if self.rtt_us < 0:
            raise ClusterError(f"rtt_us must be >= 0, got {self.rtt_us}")


@dataclass
class MigrationEvent:
    """Summary of one migration attempt (completed or aborted)."""

    shard: str
    started_at_us: float
    donors: List[str]
    target_keys: int
    #: Which client ran it: ``"recovery"`` or ``"rebalance"``.
    kind: str = "migration"
    finished_at_us: Optional[float] = None
    transferred_keys: int = 0
    transferred_bytes: int = 0
    batches: int = 0
    #: Live writes forwarded to the recipient during the transfer.
    catchup_keys: int = 0
    aborted: bool = False


class RangeMigration:
    """Streams key ranges onto ``shard``, then atomically cuts over.

    Subclasses supply the target-ring policy (:meth:`_target_ring`),
    the cutover (:meth:`_cutover`), the membership reaction
    (``_on_status_change``) and the trace vocabulary; the engine owns
    planning, pulling, pacing, write forwarding, the watermark, and the
    abort/replan control loop.
    """

    #: Client name: process naming, event tagging, registry keying.
    kind = "migration"

    def __init__(
        self,
        service: "RfpCluster",
        shard: str,
        config: Optional[MigrationConfig] = None,
    ) -> None:
        self.service = service
        self.sim = service.sim
        self.shard = shard
        self.config = config if config is not None else MigrationConfig()
        self.tracer = service.tracer
        #: Keys planned but not yet snapshotted from their donor.
        self._pending: Set[bytes] = set()
        #: Keys snapshotted at least once (superset of up-to-date keys).
        self._copied: Set[bytes] = set()
        #: Keys whose newest acked value reached the recipient via write
        #: forwarding — an older in-flight snapshot must not clobber them.
        self._fresh: Set[bytes] = set()
        self._aborted = False
        self._replan_needed = False
        self._finished = False
        #: True once the stream announced itself (plan traced); an abort
        #: that beats the first dispatch stays silent on the tracer.
        self._announced = False
        self.event = MigrationEvent(
            shard=shard,
            started_at_us=self.sim.now,
            donors=self._donor_nodes(),
            target_keys=0,
            kind=self.kind,
        )
        #: The ring as it will be at cutover (recomputed by
        #: :meth:`_replan` if the real ring changes mid-stream).
        self.target_ring = self._target_ring()
        service.membership.subscribe(self._on_status_change)

    # ------------------------------------------------------------------
    # Policy hooks (subclasses override)
    # ------------------------------------------------------------------

    def _target_ring(self) -> HashRing:
        """The ring this migration streams toward."""
        raise NotImplementedError

    def _cutover(self) -> None:
        """Atomically make the target ring real (watermark is at target)."""
        raise NotImplementedError

    def _on_status_change(self, node: str, status: ShardStatus) -> None:
        """Membership transitions while the transfer runs."""
        raise NotImplementedError

    def _donor_nodes(self) -> List[str]:
        """Shards this migration may pull from (event/trace provenance)."""
        return self.service.ring.nodes

    def _trace_start(self) -> None:
        """Hook at plan time; recovery's start is already traced as the
        membership ``rejoin``, so the base emits nothing."""

    def _trace_batch(self, donor: str, keys: int, moved: int) -> None:
        raise NotImplementedError

    def _trace_replan(self) -> None:
        raise NotImplementedError

    def _trace_abort(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return not self._finished

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def watermark(self) -> int:
        """Planned keys copied at least once (monotone, <= target)."""
        return self.event.target_keys - len(self._pending)

    @property
    def target(self) -> int:
        return self.event.target_keys

    @property
    def migration_key(self) -> str:
        """Registry key in :attr:`RfpCluster._active_migrations`."""
        return f"{self.kind}:{self.shard}"

    # ------------------------------------------------------------------
    # Placement filter
    # ------------------------------------------------------------------

    def _wants(self, key: bytes) -> bool:
        """Does this migration need ``key`` resident on the recipient?

        True when the target ring places the key on the migrating shard
        and the current ring does not already: for recovery the shard is
        off the ring entirely, so this is exactly "the restored ring
        places it here"; for a vnode move it excludes keys the recipient
        already holds as a live replica (their writes arrive through
        normal replication, not forwarding).
        """
        factor = self.service.config.replication_factor
        if self.shard not in self.target_ring.replicas(key, factor):
            return False
        ring = self.service.ring
        if self.shard in ring and self.shard in ring.replicas(key, factor):
            return False
        return True

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @atomic_section
    def note_write(self, key: bytes, value: bytes) -> None:
        """The router acknowledged a PUT while this migration runs.

        If the migration wants ``key``, the write is *forwarded*:
        applied to the recipient's store as one more replica of the
        acked write stream (one fire-and-forget in-bound op on the
        recipient's own NIC — donors are not involved).  The key is
        then fresh, and any older donor snapshot still in flight is
        discarded on arrival rather than installed over it.
        """
        if not self.active or self._aborted:
            return
        if not self._wants(key):
            return
        if key not in self._copied and key not in self._pending:
            # Inserted after planning: extend the plan so the watermark
            # target covers it too.
            self.event.target_keys += 1
        self._copied.add(key)
        self._pending.discard(key)
        self._fresh.add(key)
        recipient = self.service.shards[self.shard]
        recipient.machine.rnic.submit_inbound(len(key) + len(value))
        store = recipient.jakiro.store
        store.put(partition_of(key, store.partitions), key, value)
        self.event.catchup_keys += 1

    # ------------------------------------------------------------------
    # The transfer process
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.sim.process(
            self._run(), name=f"{self.service.name}.{self.kind}.{self.shard}"
        )

    def _plan(self) -> Dict[str, List[bytes]]:
        """Donor -> keys to pull: every key this migration wants,
        donated by the key's *current* primary (exactly one donor per
        key, no duplicate transfers), in the donor store's order.

        Each donor's keys are placed in whole-batch ring passes; the
        filter is :meth:`_wants`, applied to the batch."""
        service = self.service
        ring = service.ring
        factor = service.config.replication_factor
        plan: Dict[str, List[bytes]] = {}
        for donor in ring.nodes:
            if donor == self.shard:
                continue  # nothing to pull from ourselves
            keys = [key for key, _value in service.shards[donor].jakiro.store.items()]
            # A replica copy is skipped; the primary donates.
            wanted = ring.place_many(keys, 1)[donor]
            wanted &= self.target_ring.place_many(keys, factor)[self.shard]
            if self.shard in ring:
                wanted &= ~ring.place_many(keys, factor)[self.shard]
            if wanted.any():
                plan[donor] = list(compress(keys, wanted.tolist()))
        return plan

    @property
    def _halted(self) -> bool:
        """The recipient was killed but the detector has not re-declared
        it DEAD yet (the abort flag only flips on a transition)."""
        return not self.service.shards[self.shard].alive

    def _run(self) -> Generator:
        plan = self._plan()
        self.event.target_keys = sum(len(keys) for keys in plan.values())
        for keys in plan.values():
            self._pending.update(keys)
        if not self._aborted:
            # A membership transition can beat this process to the
            # scheduler; an abort that early stays un-announced (the
            # stream never existed as far as the trace is concerned).
            self._announced = True
            self._trace_start()
        batch = self.config.batch_keys
        while True:
            for donor in sorted(plan):
                keys = plan[donor]
                for start in range(0, len(keys), batch):
                    if self._aborted or self._halted or self._replan_needed:
                        break
                    yield from self._pull_batch(donor, keys[start : start + batch])
                    yield self.sim.timeout(self.config.pace_us)
                if self._aborted or self._halted or self._replan_needed:
                    break
            if self._aborted:
                self._finish_aborted()
                return
            if self._halted:
                # Killed in the window between the last batch and the
                # lease expiry: cutting over to a halted shard would
                # make every route to it time out until the detector
                # caught up.  Wait for the membership transition — the
                # sanctioned abort trigger — instead of cutting over.
                while not self._aborted:
                    yield self.sim.timeout(self.service.config.heartbeat_interval_us)
                self._finish_aborted()
                return
            if self._replan_needed:
                plan = self._replan()
                continue
            txns = self.service.txns
            if txns.active_count:
                # Open multi-key transactions hold lock leases and
                # staged replica sets computed against the current ring;
                # flipping ownership under them would let a commit
                # validate against stale participants.  Gate admission
                # and drain the open ones — they are lease-bounded —
                # unless an abort, halt, or replan fires first and wins
                # as usual.  (Zero open transactions means zero yields
                # here: the quiet path is schedule-identical to the
                # pre-txn engine.)
                txns.begin_drain()
                try:
                    while txns.active_count and not (
                        self._aborted or self._halted or self._replan_needed
                    ):
                        yield self.sim.timeout(
                            self.service.config.heartbeat_interval_us
                        )
                finally:
                    txns.end_drain()
                if self._aborted:
                    self._finish_aborted()
                    return
                if self._halted:
                    while not self._aborted:
                        yield self.sim.timeout(
                            self.service.config.heartbeat_interval_us
                        )
                    self._finish_aborted()
                    return
            if self._replan_needed:
                plan = self._replan()
                continue
            self._cutover()
            return

    @atomic_section
    def _replan(self) -> Dict[str, List[bytes]]:
        """The ring changed under the transfer: rebuild plan and targets.

        The target ring and the donor plan are recomputed against the
        current ring.  Keys already copied that the new target ring
        still places on the recipient stay copied — their forwarding
        filter held the whole time they were owned — while keys it no
        longer places there are dropped, and newly owned keys join the
        pending set to be pulled from their current primaries.  The
        watermark target is re-based; the replan trace re-bases the
        invariant checker's monotonicity baseline the same way.
        """
        self._replan_needed = False
        self.target_ring = self._target_ring()
        self.event.donors = self._donor_nodes()
        plan = self._plan()
        owned: Set[bytes] = set()
        for keys in plan.values():
            owned.update(keys)
        self._copied &= owned
        self._fresh &= owned
        self._pending = owned - self._copied
        self.event.target_keys = len(owned)
        self._trace_replan()
        return plan

    def _pull_batch(self, donor: str, keys: List[bytes]) -> Generator:
        """One ranged read: snapshot ``keys`` on the donor, ship, install.

        The recipient issues the read (one out-bound request op on its
        own NIC); the donor's NIC serves it *in-bound*, sharing the
        pipeline with live fetch traffic — which is what the pacing
        protects, and why donors stay in-bound-only throughout.  Keys
        are claimed before any simulated time passes; a PUT acked while
        the batch is on the wire is forwarded directly and marks its
        key fresh, so the stale snapshot is dropped on arrival.
        """
        if self._aborted:
            return
        service = self.service
        donor_store = service.shards[donor].jakiro.store
        snapshot: List[Tuple[bytes, bytes]] = []
        moved = 0
        for key in keys:
            self._pending.discard(key)
            self._copied.add(key)
            value, _cost = donor_store.get(partition_of(key, donor_store.partitions), key)
            if value is None:
                continue  # evicted on the donor since planning
            snapshot.append((key, value))
            moved += len(key) + len(value)
        recipient = service.shards[self.shard]
        recipient.machine.rnic.submit_outbound(READ_REQUEST_WIRE_BYTES, kind="read")
        served = service.shards[donor].machine.rnic.submit_inbound(moved)
        yield served
        yield self.sim.timeout(self.config.rtt_us)
        if self._aborted:
            return  # aborted while the batch was on the wire: drop it
        if self._replan_needed:
            # The ring changed while the batch was on the wire (the
            # donor may even be the shard that just died).  Drop the
            # batch un-traced and un-claim its keys: the re-plan decides
            # afresh who owns them and who donates.
            for key in keys:
                if key not in self._fresh:
                    self._copied.discard(key)
                    self._pending.add(key)
            return
        my_store = recipient.jakiro.store
        for key, value in snapshot:
            if key in self._fresh:
                continue  # a forwarded write is newer than this snapshot
            my_store.put(partition_of(key, my_store.partitions), key, value)
        self.event.batches += 1
        self.event.transferred_keys += len(snapshot)
        self.event.transferred_bytes += moved
        service.metrics.record_transfer(self.shard, len(snapshot), moved)
        self._trace_batch(donor, len(snapshot), moved)

    # ------------------------------------------------------------------
    # Endgame
    # ------------------------------------------------------------------

    @atomic_section
    def _finish_aborted(self) -> None:
        self.service.membership.unsubscribe(self._on_status_change)
        self._finished = True
        self.event.aborted = True
        self.event.finished_at_us = self.sim.now
        self.service._migration_finished(self)
        self._trace_abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "aborted" if self._aborted else ("done" if self._finished else "live")
        return (
            f"{type(self).__name__}({self.shard}, {state}, "
            f"{self.watermark}/{self.target} keys)"
        )


class VnodeMigration(RangeMigration):
    """Moves chosen vnodes onto a healthy ``shard``, live.

    The target ring is the current ring with ``tokens`` reassigned to
    the recipient; donors are the tokens' current owners, who keep
    serving (and keep their in-bound-only NIC profile) until the atomic
    cutover flips ownership.  Constructed (and started) by
    :meth:`RfpCluster.move_vnodes`.
    """

    kind = "rebalance"

    def __init__(
        self,
        service: "RfpCluster",
        shard: str,
        tokens: Sequence[int],
        config: Optional[MigrationConfig] = None,
    ) -> None:
        if not tokens:
            raise ClusterError("vnode migration needs at least one token")
        self.tokens: Tuple[int, ...] = tuple(sorted(tokens))
        super().__init__(service, shard, config=config)

    def _target_ring(self) -> HashRing:
        return self.service.ring.with_vnodes_moved(
            {token: self.shard for token in self.tokens}
        )

    def _donor_nodes(self) -> List[str]:
        ring = self.service.ring
        return sorted({ring.owner_of(token) for token in self.tokens})

    @atomic_section
    def _on_status_change(self, node: str, status: ShardStatus) -> None:
        """Any membership transition aborts the move.

        A vnode move is pure optimization: if *anything* about the
        cluster's health changed — the recipient died, a donor went
        SUSPECT, an unrelated shard failed over or rejoined — the load
        signal that justified the move is stale and the correctness
        machinery may be about to perform ring surgery of its own.
        Aborting leaves ownership untouched; the controller re-observes
        and re-decides once the cluster is quiet again.
        """
        if not self.active:
            return
        self._aborted = True

    @atomic_section
    def _cutover(self) -> None:
        """Atomic ownership flip: every token moves with no intervening
        simulated time, so at the instant placement changes the
        recipient holds every key of every moved range (watermark is at
        target and later writes were forwarded) — no key is ever
        unroutable or served stale mid-move."""
        service = self.service
        if not service.shards[self.shard].alive:  # pragma: no cover - _run gates
            raise ClusterError(f"cutover for halted shard {self.shard!r}")
        service.membership.unsubscribe(self._on_status_change)
        for token in self.tokens:
            service.ring.move_vnode(token, self.shard)
        self._finished = True
        self.event.finished_at_us = self.sim.now
        service._migration_finished(self)
        service.metrics.record_rebalance(self.shard, len(self.tokens))
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "migrate_cutover",
                shard=self.shard,
                donors=",".join(self.event.donors),
                vnodes=len(self.tokens),
                watermark=self.watermark,
                target=self.target,
            )

    def _trace_start(self) -> None:
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "migrate_start",
                shard=self.shard,
                donors=",".join(self.event.donors),
                vnodes=len(self.tokens),
                target=self.target,
            )

    def _trace_batch(self, donor: str, keys: int, moved: int) -> None:
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "migrate_batch",
                shard=self.shard,
                donor=donor,
                keys=keys,
                bytes=moved,
                watermark=self.watermark,
                target=self.target,
            )

    def _trace_replan(self) -> None:  # pragma: no cover - unreachable
        # Any ring change aborts a vnode move before the replan path can
        # run (see _on_status_change), so this hook cannot fire.
        raise ClusterError(f"vnode migration {self.shard!r} cannot replan")

    def _trace_abort(self) -> None:
        if self._announced and self.tracer is not None:
            self.tracer.record(
                "cluster",
                "migrate_abort",
                shard=self.shard,
                watermark=self.watermark,
                target=self.target,
            )


@dataclass(frozen=True)
class RebalanceConfig:
    """Tunables for the load-aware rebalance control loop.

    Attributes
    ----------
    interval_us:
        Sim-time gap between load observations; also the poll period
        while a migration is in flight.  The load window resets at each
        observation, so this is the averaging horizon of the signal.
    imbalance_threshold:
        Move only when the hottest shard's windowed load exceeds this
        multiple of the per-shard mean.  Must be > 1; the gap is the
        hysteresis that keeps a balanced cluster from churning.
    min_window_ops:
        Ignore windows with fewer total ops — an idle cluster's
        "imbalance" is sampling noise, not load.
    max_vnodes_per_move:
        Cap on tokens per migration, bounding the cutover's blast
        radius and keeping each transfer short.
    migration:
        Streaming tunables handed to each :class:`VnodeMigration`.
    """

    interval_us: float = 60.0
    imbalance_threshold: float = 1.4
    min_window_ops: int = 64
    max_vnodes_per_move: int = 16
    migration: MigrationConfig = field(default_factory=MigrationConfig)

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ClusterError(f"interval_us must be > 0, got {self.interval_us}")
        if self.imbalance_threshold <= 1.0:
            raise ClusterError(
                f"imbalance_threshold must be > 1, got {self.imbalance_threshold}"
            )
        if self.min_window_ops < 1:
            raise ClusterError(
                f"min_window_ops must be >= 1, got {self.min_window_ops}"
            )
        if self.max_vnodes_per_move < 1:
            raise ClusterError(
                f"max_vnodes_per_move must be >= 1, got {self.max_vnodes_per_move}"
            )


class RebalanceController:
    """Watches windowed load and migrates vnodes off hot shards, live.

    Control loop, one decision per ``interval_us`` of sim time:

    1. Read the windowed per-shard op counts; reset the window.
    2. Bail unless the cluster is quiet (no active migration, every
       shard HEALTHY) and busy (``min_window_ops``) and skewed
       (hottest shard > ``imbalance_threshold`` × mean).
    3. Pick the hottest vnodes of the hottest shard, greedily, up to
       half the hot-cold gap (moving more would just swap which shard
       is hot), and migrate them to the coldest shard.
    4. Wait for the migration to finish (cutover or abort), then
       resume observing.

    Everything is deterministic: shards are scanned in sorted order,
    vnodes sorted by (-load, token), and time only advances through the
    simulator — the same run always makes the same moves.
    """

    def __init__(
        self,
        service: "RfpCluster",
        config: Optional[RebalanceConfig] = None,
    ) -> None:
        self.service = service
        self.sim = service.sim
        self.config = config if config is not None else RebalanceConfig()
        self.tracer = service.tracer
        #: Completed control-loop decisions that launched a migration.
        self.moves = 0
        self._stopped = False

    def start(self) -> None:
        self.sim.process(self._run(), name=f"{self.service.name}.rebalancer")

    def stop(self) -> None:
        """Stop deciding after the current interval (idempotent)."""
        self._stopped = True

    def _run(self) -> Generator:
        interval = self.config.interval_us
        self.service.metrics.reset_window(self.sim.now)
        while not self._stopped:
            yield self.sim.timeout(interval)
            if self._stopped:
                return
            decision = self._decide()
            self.service.metrics.reset_window(self.sim.now)
            if decision is None:
                continue
            _hot, tokens, cold = decision
            migration = self.service.move_vnodes(
                tokens, cold, config=self.config.migration
            )
            self.moves += 1
            while migration.active:
                yield self.sim.timeout(interval)
            # The move (or its abort) changed what the old window was
            # measuring; start clean before the next decision.
            self.service.metrics.reset_window(self.sim.now)

    def _decide(self) -> Optional[Tuple[str, List[int], str]]:
        """(hot shard, tokens to move, cold shard), or None to hold."""
        service = self.service
        config = self.config
        if service.active_migrations:
            return None
        names = sorted(service.shards)
        for name in names:
            if service.membership.status(name) is not ShardStatus.HEALTHY:
                return None
        loads = service.metrics.window_ops_by_shard()
        total = sum(loads.values())
        if total < config.min_window_ops:
            return None
        mean = total / len(names)
        hot = max(names, key=lambda name: loads.get(name, 0))
        cold = min(names, key=lambda name: loads.get(name, 0))
        hot_load = loads.get(hot, 0)
        cold_load = loads.get(cold, 0)
        if hot == cold or hot_load < config.imbalance_threshold * mean:
            return None
        vnode_loads = service.metrics.window_vnode_ops()
        candidates = [
            (vnode_loads.get(token, 0), token)
            for token in service.ring.tokens_of(hot)
        ]
        candidates.sort(key=lambda item: (-item[0], item[1]))
        # Shed at most half the hot-cold gap: moving more would just
        # hand the skew to the recipient and ping-pong it back.
        budget = (hot_load - cold_load) / 2.0
        tokens: List[int] = []
        shed = 0.0
        for load, token in candidates:
            if load <= 0:
                break  # sorted descending: the rest carried nothing
            if shed + load > budget:
                continue  # too big, but a smaller vnode may still fit
            tokens.append(token)
            shed += load
            if len(tokens) >= config.max_vnodes_per_move:
                break
        if not tokens:
            return None
        if self.tracer is not None:
            self.tracer.record(
                "cluster",
                "rebalance_pick",
                hot=hot,
                cold=cold,
                vnodes=len(tokens),
                imbalance=round(hot_load / mean, 3),
            )
        return hot, sorted(tokens), cold

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else "live"
        return f"RebalanceController({state}, {self.moves} moves)"
