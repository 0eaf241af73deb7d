"""The declared experiment specs behind the migrated benchmarks.

Each entry here replaces a bespoke ``run_*`` scaffold: the spec declares
the condition matrix (workload x topology x faults x paradigm, swept
per scale) and names the shared driver that measures one condition.
The thin formatting wrappers in :mod:`repro.bench.figures` and
:mod:`repro.bench.cluster_runs` expand these through the
:class:`~repro.exp.runner.ExperimentRunner` and shape the outcomes into
their original :class:`~repro.bench.figures.ExperimentResult` rows, so
every existing shape assertion runs unchanged.
"""

from __future__ import annotations

from typing import Dict

from repro.exp.spec import ExperimentSpec, FaultPoint, Phase, Sweep

__all__ = ["SPECS"]

#: 18-port InfiniScale-IV switch — the largest cluster the testbed wires.
_MACHINES_18 = 18

#: Shared base for the crash experiments: 3 shards RF=2 under the
#: acknowledged-write ledger, client-limited load (24 threads keep
#: healthy shards below the NIC ceiling so the dip measures failover
#: cost, not saturation noise), consecutive_slow_calls=1 so a call stuck
#: on the dead shard degrades to server-reply after one slow call
#: (§3.2's knob, tuned for fast failover), zero store jitter so healthy
#: shards never trigger the same rule organically, and an audited
#: ledger capped at 240 keys so the durability check stays exhaustive.
_CRASH_BASE: Dict[str, object] = {
    "kind": "ledger",
    "value_bytes": 64,
    "records_cap": 240,
    "machines": _MACHINES_18,
    "shards": 3,
    "replication_factor": 2,
    "client_threads": 24,
    "tracing": True,
    "zero_jitter": True,
    "consecutive_slow_calls": 1,
}

#: Figs. 14 and 15 sweep the same process times (µs).
_PROCESS_TIMES = Sweep((1, 3, 5, 7, 9, 12), tuple(range(1, 13)))

#: The three systems of Figs. 12, 13, 16, 17, 19 and 20.
_SYSTEMS = ("jakiro", "serverreply", "memcached")

#: RDMA-Memcached runs 16 server threads wherever threads are not swept.
_MEMCACHED_16 = {"memcached": {"server_threads": 16}}

SPECS: Dict[str, ExperimentSpec] = {
    "fig3": ExperimentSpec(
        experiment_id="fig3",
        title="In-bound vs out-bound IOPS (32 B)",
        driver="raw-verbs",
        base={"paradigm": "outbound"},
        axes={
            "server_threads": Sweep(
                (1, 2, 4, 8, 16), (1, 2, 4, 6, 8, 10, 12, 14, 16)
            )
        },
        # The in-bound peak the sweep is contrasted against: one
        # measurement at the §2.2 saturating client count.
        extras=({"paradigm": "inbound", "client_threads": 28},),
        paper_expectation=(
            "out-bound saturates ~2.11 MOPS with 4 threads; in-bound peak "
            "~11.26 MOPS (~5x asymmetry)"
        ),
    ),
    "fig4": ExperimentSpec(
        experiment_id="fig4",
        title="Server in-bound IOPS vs client threads",
        driver="raw-verbs",
        base={"paradigm": "inbound"},
        axes={
            "client_threads": Sweep(
                (7, 21, 35, 49, 70),
                (7, 14, 21, 28, 35, 42, 49, 56, 63, 70),
            )
        },
        paper_expectation=(
            "rises to ~11.26 MOPS around 28-35 threads, then sags mildly "
            "(client-side mutex/QP/CQ contention)"
        ),
    ),
    "tab1": ExperimentSpec(
        experiment_id="tab1",
        title="Design-choice grid of Table 1, measured",
        driver="paradigm",
        base={
            "server_threads": 16,
            "client_threads": 35,
            # The RDTSC-controlled echo handler burns exactly this long.
            "process_us": 0.3,
            # Server-bypass corner: ~3 one-sided reads per logical
            # request (the amplification Pilaf pays).
            "amplification": 3,
        },
        axes={
            "paradigm": ("server-reply", "server-bypass", "RFP", "meaningless")
        },
        paper_expectation=(
            "RFP dominates: server-reply capped by out-bound (~2.1); bypass "
            "loses to amplification; the bypassed+out-bound corner gains "
            "nothing over server-reply"
        ),
    ),
    "fig9": ExperimentSpec(
        experiment_id="fig9",
        title="Repeated remote fetching vs server-reply vs process time",
        driver="paradigm",
        # F = S = tiny: 1-byte results fetched 16 bytes at a time.
        base={"server_threads": 16, "response_bytes": 1, "fetch_size": 16},
        axes={
            "process_us": Sweep((1, 3, 5, 7, 8, 10, 12, 15), tuple(range(1, 16))),
            "paradigm": ("rfp-no-switch", "server-reply"),
        },
        paper_expectation=(
            "fetching wins below ~7 us of process time (within 10% above), "
            "server-reply flat at ~2.1 MOPS"
        ),
    ),
    "fig14": ExperimentSpec(
        experiment_id="fig14",
        title="Hybrid switch: throughput vs request process time",
        driver="paradigm",
        base={"server_threads": 16},
        axes={
            "process_us": _PROCESS_TIMES,
            "paradigm": ("RFP", "server-reply", "rfp-no-switch"),
        },
        paper_expectation=(
            "Jakiro 30-320% above ServerReply below 7 µs; comparable at and "
            "above 7 µs once RFP switches to server-reply"
        ),
    ),
    "fig15": ExperimentSpec(
        experiment_id="fig15",
        title="Jakiro client CPU utilization vs process time",
        driver="paradigm",
        base={"server_threads": 16, "paradigm": "RFP"},
        axes={"process_us": _PROCESS_TIMES},
        paper_expectation=(
            "~100% while remote fetching (P < 7 µs); drops below 30% once "
            "the client switches to server-reply"
        ),
    ),
    "fig10": ExperimentSpec(
        experiment_id="fig10",
        title="Jakiro throughput vs client threads (95% GET, 32 B)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={
            "client_threads": Sweep(
                (7, 21, 35, 49, 70), (7, 14, 21, 28, 35, 42, 49, 56, 63, 70)
            )
        },
        paper_expectation="peak ~5.5 MOPS at 35 threads, slight decline after",
    ),
    "fig11": ExperimentSpec(
        experiment_id="fig11",
        title="Jakiro vs Pilaf, uniform 50% GET, 20 Gbps NICs",
        driver="kv",
        base={
            "cluster": "20gbps",
            "machines": 6,
            "get_fraction": 0.5,
            "client_threads": 25,
        },
        axes={
            "value_bytes": Sweep((32, 128), (32, 64, 128)),
            "paradigm": ("jakiro", "pilaf"),
        },
        # F covers a 256 B value and its header in one read (the paper
        # re-selects F per workload, §3.2); smaller values keep F = 256.
        extras=(
            {"value_bytes": 256, "paradigm": "jakiro", "fetch_size": 304},
            {"value_bytes": 256, "paradigm": "pilaf"},
        ),
        # Pilaf's PUT server is single-threaded.
        per_paradigm={"pilaf": {"server_threads": 1, "value_limit": 256}},
        paper_expectation=(
            "Jakiro ~5.4 MOPS vs Pilaf ~1.3 MOPS (about 4x) across "
            "32-256 B values"
        ),
    ),
    "fig12": ExperimentSpec(
        experiment_id="fig12",
        title="Throughput vs server threads (95% GET, 32 B)",
        driver="kv",
        axes={
            "server_threads": Sweep(
                (1, 2, 4, 6, 10, 16), (1, 2, 4, 6, 8, 10, 12, 14, 16)
            ),
            "paradigm": _SYSTEMS,
        },
        paper_expectation=(
            "Jakiro 5.5 MOPS from ~2 threads; ServerReply peaks 2.1 at 4-6 "
            "threads then declines; RDMA-Memcached CPU-bound, rising to "
            "~1.3 at 16 threads"
        ),
    ),
    "fig13": ExperimentSpec(
        experiment_id="fig13",
        title="Latency CDF at peak (uniform, 95% GET, 32 B)",
        driver="kv",
        axes={"paradigm": _SYSTEMS},
        per_paradigm=_MEMCACHED_16,
        paper_expectation=(
            "Jakiro mean 5.78 µs (99% < 7 µs); ServerReply mean 12.06 µs "
            "but lower 15th percentile; Memcached mean 14.76 µs; all have "
            "tails, Jakiro's shortest"
        ),
    ),
    "fig16": ExperimentSpec(
        experiment_id="fig16",
        title="Throughput vs GET percentage (uniform, 32 B)",
        driver="kv",
        axes={"get_fraction": (0.95, 0.5, 0.05), "paradigm": _SYSTEMS},
        per_paradigm=_MEMCACHED_16,
        paper_expectation=(
            "Jakiro ~5.5 MOPS at 95/50/5% GET; ServerReply ~2.1 throughout; "
            "Memcached degrades as writes grow (Jakiro ~14x at 95% PUT)"
        ),
    ),
    "fig17": ExperimentSpec(
        experiment_id="fig17",
        title="Throughput vs value size (uniform, 95% GET)",
        driver="kv",
        axes={
            "value_bytes": Sweep(
                (32, 128, 512, 1024, 2048, 4096, 8192),
                (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
            ),
            "paradigm": _SYSTEMS,
        },
        # The mixed workload: values uniform from 32 B to 8 KB.
        extras=tuple(
            {"value_bytes": 32, "value_max": 8192, "paradigm": system}
            for system in _SYSTEMS
        ),
        setting_axes=("value_max",),
        per_paradigm={"jakiro": {"fetch_size": 640}, **_MEMCACHED_16},
        paper_expectation=(
            "Jakiro wins 60-280% up to 2 KB; all three converge at 4 KB+ "
            "(bandwidth); mixed 32B-8KB: 3.58 vs 1.49 vs 1.02 MOPS"
        ),
    ),
    "fig18": ExperimentSpec(
        experiment_id="fig18",
        title="Jakiro throughput vs fetch size F (uniform, 95% GET)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={
            "value_bytes": Sweep(
                (32, 256, 512, 640, 1024, 2048),
                (32, 64, 128, 256, 384, 512, 640, 768, 1024, 2048),
            ),
            "fetch_size": (256, 512, 640, 748, 1024),
        },
        setting_axes=("fetch_size",),
        paper_expectation=(
            "F=640 holds good throughput across 32-640 B values; small F "
            "pays a second read for large values; F=1024 is bandwidth-bound"
        ),
    ),
    "fig19": ExperimentSpec(
        experiment_id="fig19",
        title="Throughput vs GET percentage (Zipf .99, 32 B)",
        driver="kv",
        base={"distribution": "zipfian"},
        axes={"get_fraction": (0.95, 0.5, 0.05), "paradigm": _SYSTEMS},
        per_paradigm=_MEMCACHED_16,
        paper_expectation=(
            "Jakiro still ~5.5 MOPS; ServerReply ~2.1; Memcached benefits "
            "from locality and reaches ~2.1 at 95% GET"
        ),
    ),
    "fig20": ExperimentSpec(
        experiment_id="fig20",
        title="Latency CDF (Zipf .99, 95% GET, 32 B)",
        driver="kv",
        base={"distribution": "zipfian"},
        axes={"paradigm": _SYSTEMS},
        per_paradigm=_MEMCACHED_16,
        paper_expectation="Jakiro best mean latency under skew as well",
    ),
    "tab3": ExperimentSpec(
        experiment_id="tab3",
        title="Fetch retries N per workload (Table 3)",
        driver="kv",
        base={"paradigm": "jakiro"},
        axes={"distribution": ("uniform", "zipfian"), "get_fraction": (0.95, 0.05)},
        paper_expectation=(
            "N>1 for ~0.09-0.13% of requests; largest N between 4 and 9; "
            "never two consecutive slow calls (no spurious switches)"
        ),
    ),
    "ablation-symmetric": ExperimentSpec(
        experiment_id="ablation-symmetric",
        title="Ablation: remove the in/out-bound asymmetry",
        driver="kv",
        axes={
            "cluster": ("testbed", "symmetric"),
            "paradigm": ("jakiro", "serverreply"),
        },
        setting_axes=("cluster",),
        paper_expectation=(
            "RFP's advantage is built on Observation 1; on a symmetric NIC "
            "remote fetching should gain ~nothing over server-reply"
        ),
    ),
    "ext-ud-rpc": ExperimentSpec(
        experiment_id="ext-ud-rpc",
        title="Extension: HERD-style UC/UD RPC vs the RC paradigms",
        driver="paradigm",
        base={"server_threads": 16, "process_us": 0.2},
        axes={"paradigm": ("RFP", "server-reply")},
        # HERD's six server threads echo the 16-byte request.
        extras=tuple(
            {
                "paradigm": "herd",
                "server_threads": 6,
                "response_bytes": 16,
                "loss_probability": loss,
            }
            for loss in (0.0, 0.01, 0.05)
        ),
        setting_axes=("loss_probability",),
        paper_expectation=(
            "§5: UD replies out-rate RC server-reply (cheap datagram "
            "issue) but the server still spends out-bound work, so RFP "
            "leads; loss forces timeout/retransmit machinery and costs "
            "throughput"
        ),
    ),
    "breakdown": ExperimentSpec(
        experiment_id="breakdown",
        title="Per-phase latency decomposition of an RFP call",
        driver="paradigm",
        base={"paradigm": "RFP"},
        axes={"process_us": Sweep((0.2, 2.0, 5.0), (0.2, 1.0, 2.0, 3.0, 5.0))},
        paper_expectation=(
            "not a paper figure — explains Fig. 13: at peak load most of "
            "the latency sits in the server phase (queueing for worker "
            "threads), while send and fetch stay near their unloaded costs"
        ),
    ),
    "ext-cluster-scaling": ExperimentSpec(
        experiment_id="ext-cluster-scaling",
        title="Cluster: aggregate throughput vs shard count",
        driver="cluster",
        base={
            "machines": _MACHINES_18,
            "replication_factor": 1,
            "op_timeout_us": 500.0,
            # Fixed client population on the machines no shard
            # configuration uses, so every row offers the same load.
            "client_slot_start": 6,
            "client_threads": 60,
        },
        axes={"shards": Sweep((1, 3, 6), (1, 2, 3, 4, 6))},
        paper_expectation=(
            "§4.5: the ~5.5 MOPS in-bound ceiling is per-NIC; sharding "
            "across server machines multiplies aggregate throughput until "
            "the fixed client population becomes the limit"
        ),
    ),
    "ext-cluster-failover": ExperimentSpec(
        experiment_id="ext-cluster-failover",
        title="Cluster: throughput through a single-shard crash (RF=2)",
        driver="cluster",
        base=dict(
            _CRASH_BASE,
            audit="failover",
            faults=(FaultPoint(0.5, "kill", "shard1"),),
            phases=(
                Phase("pre", 0.25, 0.5),
                Phase("dip", 0.5, 0.6),
                Phase("post", 0.6, 1.0),
            ),
        ),
        paper_expectation=(
            "the hybrid rule (§3.2) degrades calls stuck on the dead shard "
            "to a cheap blocked wait while routing falls over to replicas: "
            "the dip stays shallow, steady state recovers, no acked write "
            "is lost, and healthy shards stay in-bound-only"
        ),
    ),
    "ext-cluster-rejoin": ExperimentSpec(
        experiment_id="ext-cluster-rejoin",
        title="Cluster: crash, recovery transfer, and ring rejoin (RF=2)",
        driver="cluster",
        base=dict(
            _CRASH_BASE,
            audit="rejoin",
            faults=(
                FaultPoint(0.4, "kill", "shard1"),
                FaultPoint(0.6, "repair", "shard1"),
            ),
            phases=(
                Phase("pre", 0.25, 0.4),
                Phase("dip", 0.4, 0.5),
                Phase("outage", 0.5, 0.6),
                Phase("rejoin", 0.6, 0.8),
                Phase("post", 0.8, 1.0),
            ),
        ),
        paper_expectation=(
            "recovery traffic rides the same in-bound NIC pipeline the "
            "paper's fetch path uses, so donors stay in-bound-only and "
            "the transfer coexists with live load; the watermarked "
            "handoff restores the pre-crash ring with zero lost acked "
            "writes and post-rejoin throughput within 5% of pre-crash"
        ),
    ),
    "ext-cluster-rebalance": ExperimentSpec(
        experiment_id="ext-cluster-rebalance",
        title="Cluster: live vnode rebalancing under a Zipf hot-set",
        driver="cluster",
        base={
            "kind": "ledger",
            "value_bytes": 64,
            "records_cap": 240,
            "machines": _MACHINES_18,
            "shards": 3,
            "replication_factor": 1,
            # Enough offered load to saturate the hot shard's in-bound
            # NIC while the cold shards sit far below theirs — the
            # imbalance the controller exists to fix.
            "client_threads": 60,
            "client_slot_start": 6,
            "tracing": True,
            "zero_jitter": True,
            "op_timeout_us": 500.0,
            # No shard dies here; an astronomically high slow-call
            # threshold keeps the hybrid rule from degrading calls on
            # the (merely overloaded) hot shard to server-reply, which
            # would break the donors-stay-in-bound-only audit.
            "consecutive_slow_calls": 1_000_000,
            "put_every": 8,
            "audit": "rebalance",
            # The skew scenario: Zipf(1.2) GETs with the hottest ranks
            # pinned onto shard1 (workloads.zipf.pin_hot_ranks), so one
            # NIC carries most of the read traffic until vnodes move.
            "hot_shard": "shard1",
            "zipf_exponent": 1.2,
            # Below the default 1.4 so the controller keeps refining
            # past the first coarse move instead of declaring victory
            # at a still-lopsided ring.
            "rebalance_threshold": 1.2,
            "hot_ranks": 60,
            "rebalance_start_frac": 0.3,
            "rebalance_stop_frac": 0.6,
            "phases": (
                Phase("pre", 0.1, 0.3),
                Phase("spread", 0.3, 0.6),
                Phase("post", 0.6, 1.0),
            ),
        },
        axes={"rebalance": (False, True)},
        setting_axes=("rebalance",),
        paper_expectation=(
            "the per-NIC in-bound ceiling (§2.2) caps a skew-pinned "
            "shard; live vnode migration spreads the hot ranges so "
            "aggregate throughput recovers toward shards x ceiling — "
            ">=1.5x the no-rebalance baseline post-spread — with zero "
            "lost acked writes and donors in-bound-only throughout"
        ),
    ),
    "ext-txn-structures": ExperimentSpec(
        experiment_id="ext-txn-structures",
        title="Txns + a FIFO queue built twice: one-sided verbs vs RFP RPC",
        driver="txn-structures",
        base={
            "machines": _MACHINES_18,
            "shards": 3,
            "replication_factor": 2,
            "value_bytes": 64,
            # Six transactional writers on machines 4-9 (the queue host
            # is machine 3); queue clients take the remaining slots.
            "client_slot_start": 4,
            "client_threads": 6,
            "txn_groups": 8,
            "group_keys": 3,
            "txn_rounds": 32,
            "queue_items": 192,
            "queue_item_bytes": 16,
            "empty_backoff_us": 2.0,
        },
        axes={
            "structure": ("one-sided", "rfp"),
            "queue_clients": Sweep((2, 8, 16), (2, 4, 8, 16, 24)),
        },
        setting_axes=("structure", "queue_clients"),
        paper_expectation=(
            "Table 1's verdict applied to a data structure: the "
            "one-sided build pays >=3 round-trips per op and loses CAS "
            "races under contention, so its per-op verb count climbs "
            "while the RPC build stays flat at 1 — past the paper's "
            "~2-3 round-trip crossover the RFP queue wins outright; "
            "meanwhile RF=2 multi-key transactions on the same fabric "
            "commit with zero torn groups and zero lost acked writes"
        ),
    ),
}
