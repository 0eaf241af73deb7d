"""Sim-time heartbeat/lease failure detection for the cluster layer.

Every shard owns a heartbeat process (spawned by the cluster service)
that calls :meth:`Membership.beat` while the shard is alive.  The
membership's detector process checks leases every heartbeat interval: a
shard whose last beat is older than ``lease_timeout_us`` is declared
``DEAD``.  Routers additionally *report* shards whose operations time
out; a report moves a shard to ``SUSPECT`` immediately, so the whole
client population stops routing to it long before the lease expires.

State machine::

    HEALTHY --report_suspect--> SUSPECT --lease expiry--> DEAD
       ^                           |                        |
       +----------beat------------+                       rejoin
       ^                                                    |
       +-------------promote-------------- RECOVERING <-----+
                                           (lease expiry --> DEAD)

A false suspicion (the shard was merely slow) heals on its next
heartbeat; ``DEAD`` never heals on its own — a dead shard must
*explicitly* re-enter through :meth:`rejoin`, which re-grants its lease
and parks it in ``RECOVERING``: alive (heartbeating, lease-checked) but
unroutable until the recovery coordinator finishes streaming its ranges
back and calls :meth:`promote`.  A recovering shard that goes silent
falls back to ``DEAD`` like any other, so suspect/lease semantics are
not weakened by the rejoin path.  Status changes are traced under the
``cluster`` category (``suspect`` / ``recovered`` / ``dead`` /
``rejoin``) and pushed to subscribed listeners (the failover and
recovery coordinators).  The ``RECOVERING -> HEALTHY`` promotion is
deliberately *not* traced here: the recovery coordinator records the
``handoff`` event at the same instant, carrying the transfer provenance
(donors, watermark, restored ring) the invariant checker audits.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Generator, List, Optional

from repro.errors import ClusterError
from repro.sim.atomic import atomic_section
from repro.sim.core import Process, Simulator
from repro.sim.trace import Tracer

__all__ = ["ShardStatus", "Membership"]


class ShardStatus(enum.Enum):
    """Liveness of one shard as seen by the failure detector."""

    HEALTHY = 0
    SUSPECT = 1
    DEAD = 2
    #: Re-admitted after death, streaming its ranges back; alive
    #: (heartbeating, lease-checked) but not routable.
    RECOVERING = 3


# A module global loads faster than an enum member (docs/sim.md).
_HEALTHY = ShardStatus.HEALTHY
_SUSPECT = ShardStatus.SUSPECT
_DEAD = ShardStatus.DEAD


#: ``listener(node, status)`` — invoked on every status change.
StatusListener = Callable[[str, ShardStatus], None]


class Membership:
    """Heartbeat/lease failure detection over a set of named shards."""

    def __init__(
        self,
        sim: Simulator,
        heartbeat_interval_us: float = 20.0,
        lease_timeout_us: float = 60.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if heartbeat_interval_us <= 0:
            raise ClusterError(
                f"heartbeat interval must be positive: {heartbeat_interval_us}"
            )
        if lease_timeout_us <= heartbeat_interval_us:
            raise ClusterError(
                "lease timeout must exceed the heartbeat interval "
                f"({lease_timeout_us} <= {heartbeat_interval_us})"
            )
        self.sim = sim
        self.heartbeat_interval_us = heartbeat_interval_us
        self.lease_timeout_us = lease_timeout_us
        self.tracer = tracer
        self._last_beat_us: Dict[str, float] = {}
        self._status: Dict[str, ShardStatus] = {}
        self._listeners: List[StatusListener] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register(self, node: str) -> None:
        """Admit ``node`` as HEALTHY with a fresh lease."""
        if node in self._status:
            raise ClusterError(f"shard {node!r} is already registered")
        self._status[node] = ShardStatus.HEALTHY
        self._last_beat_us[node] = self.sim.now

    def subscribe(self, listener: StatusListener) -> None:
        """``listener(node, status)`` fires on every status change."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: StatusListener) -> None:
        """Detach a listener added by :meth:`subscribe` (no-op if absent).

        Short-lived subscribers — a :class:`RecoveryCoordinator` lives
        for one transfer — must detach when they finish, or every
        kill/repair cycle leaves one more dead listener running on every
        later status change.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def start(self) -> Process:
        """Spawn the lease-checking detector process."""
        return self.sim.process(self._detector(), name="cluster-membership")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def status(self, node: str) -> ShardStatus:
        try:
            return self._status[node]
        except KeyError:
            raise ClusterError(f"unknown shard {node!r}") from None

    def is_routable(self, node: str) -> bool:
        """Routers send operations only to HEALTHY shards."""
        try:
            return self._status[node] is _HEALTHY
        except KeyError:
            return self.status(node) is _HEALTHY  # raises: unknown shard

    def healthy_nodes(self) -> List[str]:
        return sorted(
            node
            for node, status in self._status.items()
            if status is ShardStatus.HEALTHY
        )

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def beat(self, node: str) -> None:
        """One heartbeat from ``node``; heals a false suspicion.

        A beat refreshes the lease of a ``RECOVERING`` shard without
        touching its status (only :meth:`promote` makes it routable
        again), and never resurrects a ``DEAD`` shard — death requires an
        explicit :meth:`rejoin`.
        """
        try:
            status = self._status[node]
        except KeyError:
            status = self.status(node)  # raises: unknown shard
        self._last_beat_us[node] = self.sim.now
        if status is _SUSPECT:
            self._transition(node, ShardStatus.HEALTHY, "heartbeat resumed")

    def report_suspect(self, node: str, reason: str = "") -> None:
        """A router saw an operation time out against ``node``."""
        if self.status(node) is ShardStatus.HEALTHY:
            self._transition(node, ShardStatus.SUSPECT, reason)

    def mark_dead(self, node: str, reason: str = "") -> None:
        """Declare ``node`` dead (heals only through :meth:`rejoin`)."""
        if self.status(node) is not ShardStatus.DEAD:
            self._transition(node, ShardStatus.DEAD, reason)

    def rejoin(self, node: str, reason: str = "") -> None:
        """Re-admit a repaired ``node`` as RECOVERING with a fresh lease.

        Legal only from ``DEAD`` — the one sanctioned exit from it.  The
        shard stays unroutable until :meth:`promote`; its re-granted
        lease puts it back under detector watch immediately, so a shard
        that crashes again mid-recovery is re-declared ``DEAD``.
        """
        if self.status(node) is not ShardStatus.DEAD:
            raise ClusterError(
                f"shard {node!r} cannot rejoin from "
                f"{self.status(node).name} (only DEAD shards rejoin)"
            )
        self._last_beat_us[node] = self.sim.now
        self._transition(node, ShardStatus.RECOVERING, reason)

    @atomic_section
    def promote(self, node: str) -> None:
        """Recovery finished: ``RECOVERING`` becomes routable ``HEALTHY``.

        Called by the recovery coordinator in the same atomic instant as
        the ring re-entry; the coordinator traces the paired ``handoff``
        event (see the module docstring), so this transition itself is
        silent on the tracer but still notifies status listeners.
        """
        if self.status(node) is not ShardStatus.RECOVERING:
            raise ClusterError(
                f"shard {node!r} cannot be promoted from "
                f"{self.status(node).name} (only RECOVERING shards promote)"
            )
        self._status[node] = ShardStatus.HEALTHY
        for listener in list(self._listeners):
            listener(node, ShardStatus.HEALTHY)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @atomic_section
    def _transition(self, node: str, status: ShardStatus, reason: str) -> None:
        # Literal labels per branch (rather than a status->label table)
        # so the trace-schema lint can check each phase statically.
        self._status[node] = status
        if self.tracer is not None:
            if status is ShardStatus.HEALTHY:
                self.tracer.record("cluster", "recovered", shard=node, reason=reason)
            elif status is ShardStatus.SUSPECT:
                self.tracer.record("cluster", "suspect", shard=node, reason=reason)
            elif status is ShardStatus.DEAD:
                self.tracer.record("cluster", "dead", shard=node, reason=reason)
            else:
                self.tracer.record("cluster", "rejoin", shard=node, reason=reason)
        for listener in list(self._listeners):
            listener(node, status)

    def _detector(self) -> Generator:
        while True:
            yield self.sim.timeout(self.heartbeat_interval_us)
            now = self.sim.now
            for node in sorted(self._status):
                if self._status[node] is _DEAD:
                    continue
                silent_us = now - self._last_beat_us[node]
                if silent_us > self.lease_timeout_us:
                    self.mark_dead(
                        node, reason=f"lease expired after {silent_us:.1f}us"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        healthy = len(self.healthy_nodes())
        return f"Membership({healthy}/{len(self._status)} healthy)"
