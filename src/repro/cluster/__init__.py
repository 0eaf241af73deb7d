"""repro.cluster — sharded, fault-tolerant RFP cluster layer.

Composes N independent :class:`~repro.kv.jakiro.Jakiro` shards into one
addressable service: consistent-hash key placement (:mod:`.ring`),
heartbeat/lease failure detection (:mod:`.membership`), replica takeover
on shard death (:mod:`.failover`), a unified range-migration engine with
live load-aware vnode rebalancing (:mod:`.migration`), recovery/rejoin
range streaming built on it (:mod:`.recovery`), deterministic fault
injection (:mod:`.faults`), client-side routing with per-attempt
deadlines and re-routing (:mod:`.router`), multi-key atomic transactions
(:mod:`.txn`), twice-built distributed data structures
(:mod:`.structures`), and per-shard instruments (:mod:`.metrics`).
See ``docs/cluster.md`` for the design.
"""

from repro.cluster.failover import FailoverCoordinator, FailoverEvent, ReinstateEvent
from repro.cluster.faults import Fault, FaultPlan
from repro.cluster.membership import Membership, ShardStatus
from repro.cluster.metrics import ClusterMetrics, ShardMetrics
from repro.cluster.migration import (
    MigrationConfig,
    MigrationEvent,
    RangeMigration,
    RebalanceConfig,
    RebalanceController,
    VnodeMigration,
)
from repro.cluster.recovery import RecoveryConfig, RecoveryCoordinator, RecoveryEvent
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterClient, ClusterConfig, RfpCluster, ShardHandle
from repro.cluster.structures import OneSidedQueue, QueueRegion, RfpQueue, RfpQueueClient
from repro.cluster.txn import TxnConfig, TxnManager

__all__ = [
    "HashRing",
    "Membership",
    "ShardStatus",
    "FailoverCoordinator",
    "FailoverEvent",
    "ReinstateEvent",
    "MigrationConfig",
    "MigrationEvent",
    "RangeMigration",
    "VnodeMigration",
    "RebalanceConfig",
    "RebalanceController",
    "RecoveryConfig",
    "RecoveryCoordinator",
    "RecoveryEvent",
    "Fault",
    "FaultPlan",
    "ClusterMetrics",
    "ShardMetrics",
    "ClusterConfig",
    "ShardHandle",
    "RfpCluster",
    "ClusterClient",
    "TxnConfig",
    "TxnManager",
    "QueueRegion",
    "OneSidedQueue",
    "RfpQueue",
    "RfpQueueClient",
]
