"""Per-shard measurement instruments for cluster runs.

One :class:`ShardMetrics` per shard rides the standard
:mod:`repro.sim.monitor` Counters (routed ops, timeouts, failover ops,
recovery and rebalance progress), and :class:`ClusterMetrics` holds one
per shard.  Routed-op latency is kept by whatever drives the
operations (the benches' :class:`repro.workloads.ClosedLoop`), not here.

Besides the cumulative counters the aggregate keeps a *windowed* view:
per-shard and per-vnode op counts since the last
:meth:`ClusterMetrics.reset_window`.  The window is reset in sim time by
whoever reads it — the rebalance controller resets after each decision
interval — so the load signal tracks the *current* skew instead of
averaging over the whole run.  :meth:`ClusterMetrics.load_imbalance`
reads the same window, so the balancer and the benches can never
disagree about what "hot" means.  The per-vnode counts start at the
first reset: only the controller reads them, and it resets when it
starts, so a run without one never looks a ring token up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import ClusterError
from repro.sim.monitor import Counter

__all__ = ["ShardMetrics", "ClusterMetrics"]

_NAN = float("nan")


@dataclass
class ShardMetrics:
    """Counters for one shard's routed traffic."""

    name: str
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    timeouts: Counter = field(default_factory=lambda: Counter("timeouts"))
    #: Operations that reached this shard on a retry, after a first
    #: attempt timed out against another (failing) shard.
    failover_ops: Counter = field(default_factory=lambda: Counter("failover_ops"))
    #: Recovery-transfer progress: batches pulled by this shard while it
    #: was RECOVERING, and the keys/bytes they carried.
    transfer_batches: Counter = field(
        default_factory=lambda: Counter("transfer_batches")
    )
    transferred_keys: Counter = field(
        default_factory=lambda: Counter("transferred_keys")
    )
    transferred_bytes: Counter = field(
        default_factory=lambda: Counter("transferred_bytes")
    )
    #: Completed crash→rejoin→handoff cycles for this shard.
    recoveries: Counter = field(default_factory=lambda: Counter("recoveries"))
    #: Vnodes this shard *received* through completed live rebalance
    #: migrations (cutovers, not attempts).
    rebalanced_vnodes: Counter = field(
        default_factory=lambda: Counter("rebalanced_vnodes")
    )

    @property
    def operations(self) -> int:
        return self.gets.value + self.puts.value


class ClusterMetrics:
    """Aggregates :class:`ShardMetrics` across a cluster's shards."""

    def __init__(self, shard_names: Iterable[str]) -> None:
        self.shards: Dict[str, ShardMetrics] = {
            name: ShardMetrics(name) for name in shard_names
        }
        if not self.shards:
            raise ClusterError("cluster metrics need at least one shard")
        #: Sim time of the last :meth:`reset_window`.
        self.window_started_us = 0.0
        #: Whether the router attributes ops per vnode: from the first
        #: :meth:`reset_window` on.
        self.attributing_vnodes = False
        self._window_ops: Dict[str, int] = {name: 0 for name in self.shards}
        self._window_vnode_ops: Dict[int, int] = {}

    def shard(self, name: str) -> ShardMetrics:
        try:
            return self.shards[name]
        except KeyError:
            raise ClusterError(f"unknown shard {name!r}") from None

    def record_op(
        self,
        name: str,
        op: str,
        rerouted: bool = False,
        token: Optional[int] = None,
    ) -> None:
        """One completed operation routed to shard ``name``.

        ``token`` is the ring token the key landed on (when the caller
        knows it), feeding the per-vnode window the rebalance controller
        uses to pick *which* vnodes to shed from a hot shard.
        """
        metrics = self.shard(name)
        if op == "get":
            metrics.gets.value += 1
        else:
            metrics.puts.value += 1
        if rerouted:
            metrics.failover_ops.value += 1
        self._window_ops[name] += 1
        if token is not None:
            self._window_vnode_ops[token] = self._window_vnode_ops.get(token, 0) + 1

    def record_timeout(self, name: str) -> None:
        self.shard(name).timeouts.increment()

    def record_transfer(self, name: str, keys: int, transferred_bytes: int) -> None:
        """One recovery batch pulled by the rejoining shard ``name``."""
        metrics = self.shard(name)
        metrics.transfer_batches.increment()
        metrics.transferred_keys.increment(keys)
        metrics.transferred_bytes.increment(transferred_bytes)

    def record_recovery(self, name: str) -> None:
        """Shard ``name`` finished a recovery and re-entered the ring."""
        self.shard(name).recoveries.increment()

    def record_rebalance(self, name: str, vnodes: int) -> None:
        """Shard ``name`` received ``vnodes`` tokens at a rebalance cutover."""
        self.shard(name).rebalanced_vnodes.increment(vnodes)

    def total_operations(self) -> int:
        return sum(m.operations for m in self.shards.values())

    # ------------------------------------------------------------------
    # Windowed load signal
    # ------------------------------------------------------------------

    def reset_window(self, now_us: float) -> None:
        """Start a fresh load window at sim time ``now_us``."""
        self.window_started_us = now_us
        self.attributing_vnodes = True
        self._window_ops = {name: 0 for name in self.shards}
        self._window_vnode_ops = {}

    def window_ops_by_shard(self) -> Dict[str, int]:
        """Ops routed per shard since the last :meth:`reset_window`."""
        return dict(self._window_ops)

    def window_vnode_ops(self) -> Dict[int, int]:
        """Ops per ring token since the last :meth:`reset_window` (only
        tokens the router attributed; untouched vnodes are absent)."""
        return dict(self._window_vnode_ops)

    def load_imbalance(self) -> float:
        """Max/mean of the windowed per-shard loads (NaN when idle)."""
        loads = list(self._window_ops.values())
        total = sum(loads)
        if not loads or total == 0:
            return _NAN
        return max(loads) / (total / len(loads))
