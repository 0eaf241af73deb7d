"""Condition drivers: the measurement machinery behind the matrix.

Each driver runs one :class:`~repro.exp.spec.Condition` to completion on
a fresh simulator obtained through the
:class:`~repro.exp.runner.ConditionContext` and returns its
*deterministic* metrics (simulated-time throughput, event counts, audit
ledgers) — never wall-clock numbers.

Five drivers cover the migrated benchmarks:

- ``raw-verbs`` — the §2.2 microbenchmarks: bare synchronous RDMA
  read/write loops (figs. 3-4).
- ``paradigm`` — RDTSC-controlled echo RPC per paradigm (Table 1, Figs.
  9, 14 and 15, the breakdown), HERD-style UC/UD RPC, and the synthetic
  server-bypass corner with its access amplification.
- ``kv`` — one closed-loop KV run (any registered system) under a YCSB
  workload on a named cluster (:data:`CLUSTERS`): the §4 comparisons
  (Figs. 10-13 and 16-20, Table 3, the symmetric-NIC ablation) and
  ``python -m repro.bench --spec``.  Jakiro and ServerReply run checked.
- ``cluster`` — the full sharded-cluster machinery the three
  ``ext-cluster-*`` benches used to hand-roll: topology build, optional
  tracing with observer-attached invariant checkers, YCSB or
  acknowledged-write-ledger load, phase meters, a declarative
  :class:`~repro.cluster.faults.FaultPlan`, and the failover/rejoin
  audit suites that raise :class:`~repro.errors.BenchError` on any
  breach (so a clean run *is* the certificate).
- ``txn-structures`` — the ``ext-txn-structures`` crossover: a bounded
  transactional multi-PUT ledger (RF=2, atomicity audited key-by-key
  against every replica) running alongside the twice-built FIFO queue
  (:class:`~repro.cluster.structures.OneSidedQueue` vs
  :class:`~repro.cluster.structures.RfpQueue`), with conservation,
  bypass/NIC, and zero-leaked-lease audits after full quiescence.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.herd import HerdServer
from repro.bench.calibration import (
    measure_bypass,
    measure_inbound_iops,
    measure_outbound_iops,
)
from repro.bench.harness import run_controlled_process_time, run_kv
from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    QueueRegion,
    RebalanceConfig,
    RfpCluster,
    RfpQueue,
)
from repro.core.config import RfpConfig
from repro.errors import BenchError, ClusterError, ExpError
from repro.exp.runner import ConditionContext, Driver
from repro.exp.spec import phases_of
from repro.hw import CLUSTER_EUROSYS17, CONNECTX2, ClusterSpec, MachineSpec, NicSpec
from repro.hw.cluster import build_cluster
from repro.kv.store import StoreCostModel
from repro.sim.random import seeded_rng
from repro.sim.trace import TraceEvent, Tracer
from repro.workloads.loop import ClosedLoop, kv_operations, repeat
from repro.workloads.value_sizes import FixedValues, UniformValues
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload
from repro.workloads.zipf import ZipfSampler, pin_hot_ranks

__all__ = ["CLUSTERS", "DRIVERS"]

_SEQ = struct.Struct("<Q")


# ----------------------------------------------------------------------
# raw-verbs: §2.2 synchronous one-sided loops
# ----------------------------------------------------------------------


def run_raw_verbs(ctx: ConditionContext) -> Mapping[str, object]:
    """Bare in-bound (client reads) or out-bound (server writes) IOPS."""
    condition = ctx.condition
    size = condition.workload.value_bytes
    window = condition.scale.window_us
    if condition.paradigm == "outbound":
        mops = measure_outbound_iops(
            condition.topology.server_threads,
            size=size,
            window_us=window,
            sim=ctx.make_simulator(),
        )
    elif condition.paradigm == "inbound":
        mops = measure_inbound_iops(
            condition.topology.client_threads,
            size=size,
            window_us=window,
            sim=ctx.make_simulator(),
        )
    else:
        raise ExpError(
            f"raw-verbs paradigm must be 'inbound' or 'outbound', "
            f"got {condition.paradigm!r}"
        )
    return {"mops": mops}


# ----------------------------------------------------------------------
# paradigm: controlled echo RPC per paradigm, HERD, and the bypass corner
# ----------------------------------------------------------------------

#: Paradigm -> (controlled-run mode, forced process time or None).
_PARADIGM_MODES = {
    "RFP": ("rfp", None),
    "rfp-no-switch": ("rfp-no-switch", None),
    "server-reply": ("serverreply", None),
    # Server bypassed for processing yet replying out-bound: at best it
    # behaves like server-reply with zero process time, i.e. it inherits
    # the out-bound ceiling with no compensation.
    "meaningless": ("serverreply", 0.0),
}


def _run_bypass_corner(ctx: ConditionContext) -> Mapping[str, object]:
    """Server-bypass with k one-sided reads per logical request."""
    condition = ctx.condition
    run = measure_bypass(
        int(condition.settings.get("amplification", 3)),
        condition.topology.client_threads,
        condition.scale.window_us,
        condition.scale.warmup_fraction,
        sim=ctx.make_simulator(),
    )
    return {"mops": run.mops, "operations": run.requests}


def _run_herd(ctx: ConditionContext) -> Mapping[str, object]:
    """HERD-style UC/UD echo RPC, optionally over a lossy fabric (§5)."""
    condition = ctx.condition
    sim = ctx.make_simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    response = bytes(condition.workload.response_bytes)
    process_us = condition.workload.process_us
    server = HerdServer(
        sim,
        cluster,
        handler=lambda payload, context: (response, process_us),
        threads=condition.topology.server_threads,
        loss_probability=float(condition.settings.get("loss_probability", 0.0)),
    )
    window = condition.scale.window_us
    loop = ClosedLoop(sim, window, window * condition.scale.warmup_fraction)
    machines = cluster.client_machines
    clients = []
    for index in range(condition.topology.client_threads):
        client = server.connect(machines[index % len(machines)])
        clients.append(client)
        loop.spawn(repeat(client.call, bytes(16)))
    loop.run()
    return {
        "mops": loop.mops(),
        "operations": loop.completions(),
        "retransmits": sum(c.stats.retransmits.value for c in clients),
    }


class _PhaseSplit:
    """Each call's send (to the request write's completion), server (to
    the response's publication) and fetch (to the result in hand) phase.

    Marks pair by ``(channel, seq)``: clients share names, channels do
    not.  A call starts ``latency_us`` before its ``call_done`` mark.
    Every call of the run counts, warm-up included.
    """

    def __init__(self) -> None:
        self._sent: Dict[Tuple[int, int], float] = {}
        self._published: Dict[Tuple[int, int], float] = {}
        self._phases: Tuple[List[float], ...] = ([], [], [], [])

    def observe(self, event: TraceEvent) -> None:
        data = event.data
        if event.label == "request_sent":
            self._sent[(data["channel"], data["seq"])] = event.at_us
        elif event.label == "response_published":
            self._published[(data["client"], data["seq"])] = event.at_us
        elif event.label == "call_done":
            key = (data["channel"], data["seq"])
            send_done = self._sent.pop(key, None)
            publish = self._published.pop(key, None)
            if send_done is not None and publish is not None:
                done, latency = event.at_us, data["latency_us"]
                sends, servers, fetches, totals = self._phases
                sends.append(send_done - (done - latency))
                servers.append(publish - send_done)
                fetches.append(done - publish)
                totals.append(latency)

    def metrics(self, window_us: float) -> Dict[str, object]:
        """Mean phases in ``call_done`` order (``np.mean``, not running
        sums, so the last bits do not depend on the summation order)."""
        sends, servers, fetches, totals = self._phases
        if not totals:
            raise BenchError(f"no complete calls traced in a {window_us} us window")
        return {
            "send_us": float(np.mean(sends)),
            "server_us": float(np.mean(servers)),
            "fetch_us": float(np.mean(fetches)),
            "total_us": float(np.mean(totals)),
            "split_calls": len(totals),
        }


def _publish_rfp_tracer(ctx: ConditionContext, kind: str, config: RfpConfig) -> Tracer:
    """Publish an RFP tracer on the condition's simulator that stores
    nothing (observers still see every event), for channels of ``kind``
    ``rfp`` or ``server-reply``.  ``config`` is what those channels
    really run: a server-reply server pins the hybrid off."""
    if kind == "server-reply":
        config = replace(config, hybrid_enabled=False)
    tracer = Tracer(ctx.simulator, categories=[])
    return ctx.publish_tracer("rfp", tracer, kind, rfp_config=config)


def run_paradigm(ctx: ConditionContext) -> Mapping[str, object]:
    """One paradigm condition.  An RC one publishes an RFP tracer that
    stores nothing, with the configuration the run really uses, for the
    checker and the phase split; HERD and the bypass corner speak no RFP.
    """
    condition = ctx.condition
    if condition.paradigm == "server-bypass":
        return _run_bypass_corner(ctx)
    if condition.paradigm == "herd":
        return _run_herd(ctx)
    entry = _PARADIGM_MODES.get(condition.paradigm)
    if entry is None:
        raise ExpError(
            f"unknown paradigm {condition.paradigm!r}; options: "
            f"{sorted(_PARADIGM_MODES) + ['herd', 'server-bypass']}"
        )
    mode, forced_process_us = entry
    process_us = (
        forced_process_us
        if forced_process_us is not None
        else condition.workload.process_us
    )
    config = RfpConfig(
        fetch_size=int(condition.settings.get("fetch_size", RfpConfig.fetch_size))
    )
    sim = ctx.make_simulator()
    tracer = _publish_rfp_tracer(
        ctx,
        "server-reply" if mode == "serverreply" else "rfp",
        replace(config, hybrid_enabled=False) if mode == "rfp-no-switch" else config,
    )
    split = _PhaseSplit()
    tracer.subscribe(split.observe)
    result = run_controlled_process_time(
        mode,
        float(process_us),
        server_threads=condition.topology.server_threads,
        client_threads=condition.topology.client_threads,
        scale=condition.scale,
        response_bytes=condition.workload.response_bytes,
        config=config,
        sim=sim,
        tracer=tracer,
    )
    return {
        "mops": result.throughput_mops,
        "operations": result.operations_completed,
        "replies_sent": result.replies_sent,
        "requests_served": result.requests_served,
        "clients_in_reply_mode": result.extras["clients_in_reply_mode"],
        "client_cpu_utilization": result.client_cpu_utilization,
        **split.metrics(condition.scale.window_us),
    }


# ----------------------------------------------------------------------
# kv: one closed-loop KV run
# ----------------------------------------------------------------------


#: The clusters a ``kv`` condition runs on, by its ``cluster`` setting:
#: the testbed, the paper's six-machine 20 Gbps ConnectX-2 setup of the
#: Pilaf comparison, and a hypothetical NIC whose issue path is as fast
#: as its serve path — both at the CX-3 out-bound rate, so neither side
#: gets the asymmetry windfall (the ablation of Observation 1).
CLUSTERS: Dict[str, ClusterSpec] = {
    "testbed": CLUSTER_EUROSYS17,
    "20gbps": ClusterSpec(MachineSpec(CONNECTX2), machines=6),
    "symmetric": ClusterSpec(
        MachineSpec(
            NicSpec(
                name="symmetric-hypothetical",
                bandwidth_gbps=40.0,
                inbound_peak_mops=2.11,
                outbound_peak_mops=2.11,
                read_extra_us=0.0,
            )
        )
    ),
}

#: The KV systems that speak RFP, and the kind their tracer is checked
#: as; RDMA-Memcached and Pilaf run unchecked.
_RFP_SYSTEMS = {"jakiro": "rfp", "serverreply": "server-reply"}


def run_kv_condition(ctx: ConditionContext) -> Mapping[str, object]:
    """One closed-loop KV run.  Settings: ``cluster`` (a :data:`CLUSTERS`
    name, whose machine count the topology must state), ``fetch_size``
    (F), ``value_limit`` (the largest value the server stores) and
    ``value_max`` (values uniform from ``value_bytes`` to it).  The
    latency samples go to ``ctx.samples``."""
    condition = ctx.condition
    settings = condition.settings
    cluster = str(settings.get("cluster", "testbed"))
    if cluster not in CLUSTERS:
        raise ExpError(f"unknown cluster {cluster!r}; options: {sorted(CLUSTERS)}")
    machines = CLUSTERS[cluster].machines
    if condition.topology.machines != machines:
        raise BenchError(
            f"cluster {cluster!r} has {machines} machines, "
            f"topology says {condition.topology.machines}"
        )
    low, high = condition.workload.value_bytes, settings.get("value_max")
    workload = WorkloadSpec(
        records=condition.workload.resolve_records(condition.scale),
        get_fraction=condition.workload.get_fraction,
        distribution=condition.workload.distribution,
        value_sizes=FixedValues(low) if high is None else UniformValues(low, int(high)),
        seed=condition.workload.seed,
    )
    # Only when set: RDMA-Memcached reads None as its own hybrid-off config.
    fetch_size = settings.get("fetch_size")
    config = None if fetch_size is None else RfpConfig(fetch_size=int(fetch_size))
    sim = ctx.make_simulator()
    kind = _RFP_SYSTEMS.get(condition.paradigm)
    tracer = None
    if kind is not None:
        tracer = _publish_rfp_tracer(ctx, kind, config or RfpConfig())
    result = run_kv(
        condition.paradigm,
        workload,
        server_threads=condition.topology.server_threads,
        client_threads=condition.topology.client_threads,
        scale=condition.scale,
        config=config,
        cluster_spec=CLUSTERS[cluster],
        value_limit=int(settings.get("value_limit", 16384)),
        sim=sim,
        tracer=tracer,
    )
    ctx.samples["latency_us"] = result.latency_us
    # Table 3's retry share and most tries; a system that never fetches
    # reads 0 and 0.
    attempts = np.asarray(result.fetch_attempts or [0], dtype=int)
    return {
        "mops": result.throughput_mops,
        "operations": result.operations_completed,
        "mean_latency_us": result.mean_latency(),
        "p50_latency_us": result.percentile_latency(50),
        "p99_latency_us": result.percentile_latency(99),
        "client_cpu_utilization": result.client_cpu_utilization,
        "retried_fetch_percent": float(np.mean(attempts > 1) * 100.0),
        "max_fetch_attempts": int(attempts.max()),
    }


# ----------------------------------------------------------------------
# cluster: sharded RfpCluster with phases, faults, and audits
# ----------------------------------------------------------------------


@dataclass
class _ClusterRun:
    """Everything the audit suites interrogate after the window closes."""

    ctx: ConditionContext
    service: RfpCluster
    plan: Optional[FaultPlan]
    victim: Optional[str]
    acked: Dict[bytes, int]
    pre_crash_ring: List[str]
    phase_mops: Dict[str, float]
    phase_bounds: Dict[str, Tuple[float, float]]
    replication_factor: int

    def checker(self, name: str):
        checker = self.ctx.checkers.get(name)
        if checker is None:
            raise ExpError(
                f"audit needs the {name!r} invariant checker — run under "
                "an InvariantObserver (repro.exp.runner.default_observers)"
            )
        return checker


def _seq_value(sequence: int, value_bytes: int) -> bytes:
    return _SEQ.pack(sequence) + b"\x00" * (value_bytes - _SEQ.size)


def _stored_seq(value: bytes) -> int:
    return _SEQ.unpack_from(value)[0]


def _ledger_workload(
    records: int, clients: int
) -> Tuple[List[bytes], Dict[int, List[bytes]]]:
    """All keys, plus each client's disjoint set of *write* keys.

    Disjoint write ownership makes the acknowledged-write ledger exact:
    per key, the owner's latest acked sequence number is the durability
    obligation, with no cross-client ordering to reason about.
    """
    keys = [f"key{i:06d}".encode() for i in range(records)]
    per_client = max(1, records // clients)
    owned = {
        c: keys[c * per_client : (c + 1) * per_client] for c in range(clients)
    }
    return keys, owned


def run_cluster(ctx: ConditionContext) -> Mapping[str, object]:
    condition = ctx.condition
    topology = condition.topology
    workload = condition.workload
    scale = condition.scale
    settings = condition.settings
    window = scale.window_us
    phases = phases_of(condition)
    audit = settings.get("audit")
    if audit not in (None, "failover", "rejoin", "rebalance"):
        raise ExpError(f"unknown cluster audit {audit!r}")

    sim = ctx.make_simulator()
    cluster_spec = ClusterSpec(
        machine=CLUSTER_EUROSYS17.machine,
        machines=topology.machines,
        switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
    )
    cluster = build_cluster(sim, cluster_spec)

    slow_calls = settings.get("consecutive_slow_calls")
    rfp_config = (
        RfpConfig(consecutive_slow_calls=int(slow_calls))
        if slow_calls is not None
        else None
    )
    cluster_tracer = None
    shard_tracers = None
    if settings.get("tracing", False):
        cluster_tracer = ctx.publish_tracer(
            "cluster", Tracer(sim, categories=["cluster"]), "cluster"
        )
        shard_tracers = {
            f"shard{i}": ctx.publish_tracer(
                f"shard{i}",
                Tracer(sim, capacity=1),
                "rfp",
                rfp_config=rfp_config,
            )
            for i in range(topology.shards)
        }
    config_kwargs: Dict[str, object] = {
        "replication_factor": topology.replication_factor
    }
    if settings.get("op_timeout_us") is not None:
        config_kwargs["op_timeout_us"] = float(settings["op_timeout_us"])
    service = RfpCluster(
        sim,
        cluster,
        shards=topology.shards,
        server_threads=topology.server_threads,
        rfp_config=rfp_config,
        cost_model=StoreCostModel(jitter_probability=0.0)
        if settings.get("zero_jitter", False)
        else None,
        cluster_config=ClusterConfig(**config_kwargs),  # type: ignore[arg-type]
        tracer=cluster_tracer,
        shard_tracers=shard_tracers,
    )

    records = workload.resolve_records(scale)
    acked: Dict[bytes, int] = {}
    loop = ClosedLoop(
        sim,
        window,
        window * scale.warmup_fraction,
        phases=[
            (phase.name, window * phase.start_frac, window * phase.end_frac)
            for phase in phases
        ],
    )

    if workload.kind == "ycsb":
        generator = YcsbWorkload(
            WorkloadSpec(
                records=records,
                get_fraction=workload.get_fraction,
                distribution=workload.distribution,
                value_sizes=FixedValues(workload.value_bytes),
                seed=workload.seed,
            )
        )
        service.preload(generator.dataset())

        def operations_of(client, client_id: int):
            return kv_operations(client, generator.operations(f"c{client_id}"))

    elif workload.kind == "ledger":
        keys, owned_writes = _ledger_workload(records, topology.client_threads)
        value_bytes = workload.value_bytes
        put_every = workload.put_every
        service.preload([(key, _seq_value(0, value_bytes)) for key in keys])

        # The skew scenario (rebalance bench): GETs draw Zipf *ranks*,
        # and the rank->key table is rotated so the hottest ranks all
        # live on one shard.  Writes keep their disjoint uniform
        # ownership, so the durability ledger is unchanged.
        hot_shard = settings.get("hot_shard")
        if hot_shard is not None:
            get_keys = pin_hot_ranks(
                keys,
                service.ring.lookup,
                str(hot_shard),
                int(settings.get("hot_ranks", 16)),
            )
            sampler: Optional[ZipfSampler] = ZipfSampler(
                len(keys), float(settings.get("zipf_exponent", 0.99))
            )
        else:
            get_keys = keys
            sampler = None

        def acked_put(client, key: bytes, sequence: int):
            yield from client.put(key, _seq_value(sequence, value_bytes))
            acked[key] = max(acked.get(key, 0), sequence)

        def operations_of(client, client_id: int):
            rng = seeded_rng(client_id)
            my_keys = owned_writes[client_id]
            sequence = 0
            while True:
                turn = sequence % put_every
                if turn == put_every - 1:
                    key = my_keys[(sequence // put_every) % len(my_keys)]
                    sequence += 1
                    yield acked_put(client, key, sequence)
                else:
                    sequence += 1
                    if sampler is not None:
                        key = get_keys[int(sampler.sample(rng, 1)[0])]
                    else:
                        key = keys[int(rng.integers(len(keys)))]
                    yield client.get(key)

    else:
        raise ExpError(
            f"cluster driver workload kind must be 'ycsb' or 'ledger', "
            f"got {workload.kind!r}"
        )

    pre_crash_ring = list(service.ring.nodes)
    slot_start = (
        topology.client_slot_start
        if topology.client_slot_start is not None
        else topology.shards
    )
    span = topology.machines - slot_start
    for index in range(topology.client_threads):
        machine = cluster.machines[slot_start + index % span]
        client = service.connect(machine, name=f"c{index}")
        loop.spawn(operations_of(client, index))

    plan: Optional[FaultPlan] = None
    victim: Optional[str] = None
    if condition.faults:
        plan = FaultPlan([point.resolve(window) for point in condition.faults])
        plan.arm(sim, service)
        victim = condition.faults[0].shard

    if settings.get("rebalance"):
        # Start the load-aware controller after the pre phase has
        # established the skewed baseline, and stop it before the post
        # phase so the measured steady state is migration-free.
        rebalancer_box: List[object] = []

        def _start_rebalancer() -> None:
            threshold = settings.get("rebalance_threshold")
            config = (
                RebalanceConfig(imbalance_threshold=float(threshold))
                if threshold is not None
                else None
            )
            rebalancer_box.append(service.start_rebalancer(config))

        sim.schedule(
            window * float(settings.get("rebalance_start_frac", 0.25)),
            _start_rebalancer,
        )
        stop_frac = settings.get("rebalance_stop_frac")
        if stop_frac is not None:

            def _stop_rebalancer() -> None:
                for controller in rebalancer_box:
                    controller.stop()

            sim.schedule(window * float(stop_frac), _stop_rebalancer)
    loop.run()

    phase_mops: Dict[str, float] = {}
    phase_bounds: Dict[str, Tuple[float, float]] = {}
    metrics: Dict[str, object] = {}
    for index, (name, start, end) in enumerate(loop.phases):
        mops = loop.mops(index)
        phase_mops[name] = mops
        phase_bounds[name] = (start, end)
        metrics[f"{name}_mops"] = mops
    metrics["dispatched"] = sim.dispatched

    if audit is not None:
        state = _ClusterRun(
            ctx=ctx,
            service=service,
            plan=plan,
            victim=victim,
            acked=acked,
            pre_crash_ring=pre_crash_ring,
            phase_mops=phase_mops,
            phase_bounds=phase_bounds,
            replication_factor=topology.replication_factor,
        )
        if audit == "failover":
            metrics.update(_audit_failover(state))
        elif audit == "rejoin":
            metrics.update(_audit_rejoin(state))
        else:
            metrics.update(_audit_rebalance(state))
    return metrics


def _lost_on_surviving_replica(state: _ClusterRun) -> int:
    """Acked writes unreadable from *every* surviving replica."""
    lost = 0
    for key, sequence in state.acked.items():
        stored = max(
            _stored_seq(
                state.service.peek(name, key) or _seq_value(0, 8)
            )
            for name in state.service.ring.lookup_replicas(
                key, state.replication_factor
            )
        )
        if stored < sequence:
            lost += 1
    return lost


def _audit_failover(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-failover`` claims: zero lost acked writes,
    exactly one failover, protocol + NIC-silence invariants everywhere."""
    service = state.service
    lost = _lost_on_surviving_replica(state)
    state.checker("cluster").assert_clean()
    failed_over = {event.shard for event in service.failover.events}
    if failed_over != {state.victim}:
        raise BenchError(
            f"expected exactly one failover of {state.victim}: {failed_over}"
        )
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        # Every shard — dead included — must have stayed in-bound-only:
        # healthy shards because no client ever degraded them, the dead
        # one because a halted server cannot push replies.  Exact
        # in-bound matching is off because the open-loop clients leave
        # posted-but-unserved ops in the NIC pipeline at the window cut.
        checker.check_nic_accounting(
            handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
        )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across failover")
    return {"lost_acked_writes": lost, "acked_keys": len(state.acked)}


def _audit_rejoin(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-rejoin`` claims: completed watermarked handoff
    restoring the pre-crash ring before the post window, per-replica
    durability, donors in-bound-only, rejoiner out-bound = its ranged
    reads, and post-rejoin throughput within 5% of pre-crash."""
    service = state.service
    plan = state.plan
    if plan is None or len(plan.recoveries) != 1:
        raise BenchError(
            f"expected exactly one recovery: "
            f"{plan.recoveries if plan else 'no fault plan'}"
        )
    recovery = plan.recoveries[0]
    if recovery.active or recovery.aborted:
        raise BenchError(f"recovery of {state.victim} did not complete: {recovery!r}")
    handoff_at = recovery.event.finished_at_us
    post_start = state.phase_bounds["post"][0]
    if handoff_at is None or handoff_at >= post_start:
        raise BenchError(
            f"handoff at {handoff_at} missed the post window ({post_start})"
        )
    if service.ring.nodes != state.pre_crash_ring:
        raise BenchError(
            f"rejoin did not restore the pre-crash ring: "
            f"{service.ring.nodes} != {state.pre_crash_ring}"
        )
    # Zero lost acked writes, *per replica*: every key's latest acked
    # sequence must be readable from every final-ring replica, the
    # rejoined shard included (no stale reads below the watermark).
    lost = 0
    for key, sequence in state.acked.items():
        for name in service.ring.lookup_replicas(key, state.replication_factor):
            stored = _stored_seq(service.peek(name, key) or _seq_value(0, 8))
            if stored < sequence:
                lost += 1
    state.checker("cluster").assert_clean()
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        if name == state.victim:
            # The rejoiner's only out-bound verbs are its ranged-read
            # requests — one per transfer batch.
            outbound = handle.machine.rnic.outbound_ops
            if outbound != recovery.event.batches:
                raise BenchError(
                    f"rejoiner posted {outbound} out-bound ops; expected "
                    f"{recovery.event.batches} ranged reads"
                )
        else:
            # Donors served the transfer stream *in-bound*, alongside
            # live traffic: the paper's server NIC profile survives
            # recovery.
            checker.check_nic_accounting(
                handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
            )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across the cycle")
    pre_mops = state.phase_mops["pre"]
    post_mops = state.phase_mops["post"]
    if post_mops < 0.95 * pre_mops:
        raise BenchError(
            f"post-rejoin throughput {post_mops:.3f} MOPS fell below "
            f"95% of pre-crash {pre_mops:.3f} MOPS"
        )
    return {
        "lost_acked_writes": lost,
        "acked_keys": len(state.acked),
        "handoff_at_us": handoff_at,
        "transferred_keys": recovery.event.transferred_keys,
        "catchup_keys": recovery.event.catchup_keys,
        "batches": recovery.event.batches,
    }


def _audit_rebalance(state: _ClusterRun) -> Dict[str, object]:
    """The ``ext-cluster-rebalance`` claims: every launched vnode
    migration cut over cleanly before the window closed, zero lost
    acked writes under live migration, donors in-bound-only throughout
    (each shard's only out-bound verbs are the ranged reads of the
    migrations *it received*), and the baseline condition moved
    nothing — so the throughput delta is attributable to the moves."""
    service = state.service
    enabled = bool(state.ctx.condition.settings.get("rebalance", False))
    state.checker("cluster").assert_clean()
    if service.active_migrations:
        raise BenchError(
            f"migrations still active at the window cut: "
            f"{[m.migration_key for m in service.active_migrations]}"
        )
    migrations = list(service.migrations)
    for migration in migrations:
        if migration.active or migration.aborted:
            raise BenchError(
                f"vnode migration {migration.migration_key} did not "
                f"complete cleanly: {migration.event!r}"
            )
    if enabled and not migrations:
        raise BenchError("rebalancing enabled but no vnode migration ran")
    if not enabled and migrations:
        raise BenchError(
            f"baseline run unexpectedly migrated vnodes: {len(migrations)}"
        )
    lost = _lost_on_surviving_replica(state)
    pulled: Dict[str, int] = {}
    for migration in migrations:
        pulled[migration.shard] = (
            pulled.get(migration.shard, 0) + migration.event.batches
        )
    for name in service.shards:
        checker = state.checker(name)
        handle = service.shards[name]
        # Recipients pull; everyone else — donors under live load
        # included — must never post an out-bound verb.
        outbound = handle.machine.rnic.outbound_ops
        expected = pulled.get(name, 0)
        if outbound != expected:
            raise BenchError(
                f"shard {name} posted {outbound} out-bound ops; expected "
                f"{expected} ranged reads (donors stay in-bound-only)"
            )
        if expected == 0:
            checker.check_nic_accounting(
                handle.jakiro.server, expect_inbound_only=True, strict_inbound=False
            )
        checker.assert_clean()
    if lost:
        raise BenchError(f"{lost} acknowledged writes lost across the moves")
    return {
        "lost_acked_writes": lost,
        "acked_keys": len(state.acked),
        "migrations": len(migrations),
        "moved_vnodes": sum(len(m.tokens) for m in migrations),
        "migrated_keys": sum(m.event.transferred_keys for m in migrations),
        "catchup_keys": sum(m.event.catchup_keys for m in migrations),
    }


# ----------------------------------------------------------------------
# txn-structures: multi-key transactions + the twice-built FIFO queue
# ----------------------------------------------------------------------


def run_txn_structures(ctx: ConditionContext) -> Mapping[str, object]:
    """One ``ext-txn-structures`` condition: bounded work, exact audits.

    Unlike the open-loop cluster driver, every client here runs a
    *bounded* script and the run must quiesce before the window closes.
    That buys exact end-state audits with no window-cut races: every
    acked multi-PUT sequence is the stored value on every replica
    (zero partially-applied transactions, zero lost acked writes),
    every enqueued item is dequeued exactly once (conservation), the
    queue host posts zero out-bound verbs (both builds), and zero lock
    leases survive the run.
    """
    condition = ctx.condition
    topology = condition.topology
    scale = condition.scale
    settings = condition.settings
    window = scale.window_us

    structure = str(settings.get("structure", "one-sided"))
    if structure not in ("one-sided", "rfp"):
        raise ExpError(
            f"txn-structures structure must be 'one-sided' or 'rfp', "
            f"got {structure!r}"
        )
    queue_clients = int(settings.get("queue_clients", 4))
    if queue_clients < 2:
        raise ExpError("txn-structures needs >= 2 queue clients (1 per role)")
    producers = queue_clients // 2
    consumers = queue_clients - producers
    # Total queue items: enough to expose CAS-contention amplification,
    # few enough that the slowest condition still drains well inside the
    # window (quiescence is asserted below).
    total_items = int(settings.get("queue_items", 192)) * (4 if scale.full else 1)

    sim = ctx.make_simulator()
    cluster_spec = ClusterSpec(
        machine=CLUSTER_EUROSYS17.machine,
        machines=topology.machines,
        switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
    )
    cluster = build_cluster(sim, cluster_spec)
    cluster_tracer = ctx.publish_tracer(
        "cluster", Tracer(sim, categories=["cluster"]), "cluster"
    )
    # No faults in this experiment: an astronomically high slow-call
    # threshold keeps the hybrid rule from degrading merely-busy shards,
    # so the in-bound-only NIC audits stay exact.
    quiet = RfpConfig(consecutive_slow_calls=1_000_000)
    service = RfpCluster(
        sim,
        cluster,
        shards=topology.shards,
        rfp_config=quiet,
        cost_model=StoreCostModel(jitter_probability=0.0),
        cluster_config=ClusterConfig(
            replication_factor=topology.replication_factor
        ),
        tracer=cluster_tracer,
    )

    # --- transactional ledger: disjoint groups + one contended group ---
    value_bytes = condition.workload.value_bytes
    txn_clients = topology.client_threads
    group_count = int(settings.get("txn_groups", 8))
    keys_per_group = int(settings.get("group_keys", 3))
    txn_rounds = int(settings.get("txn_rounds", 32))
    group_keys = [
        [b"txng%02d-%02d" % (group, item) for item in range(keys_per_group)]
        for group in range(group_count)
    ]
    for keys in group_keys:
        service.preload([(key, _seq_value(0, value_bytes)) for key in keys])
    shared_group = group_count - 1
    acked: Dict[int, set] = {group: {0} for group in range(group_count)}
    expected_final: Dict[int, int] = {group: 0 for group in range(group_count)}
    finished: List[str] = []
    done_box: Dict[str, float] = {"txn": 0.0, "queue": 0.0}

    def txn_loop(client, client_id: int):
        # Disjoint ownership by residue, plus clients 0 and 1 both
        # writing the shared group — genuine cross-client lock
        # contention on the headline path.
        my_groups = [
            group
            for group in range(group_count)
            if group % txn_clients == client_id
        ]
        if client_id in (0, 1) and shared_group not in my_groups:
            my_groups.append(shared_group)
        base = (client_id + 1) * 1_000_000
        for round_no in range(txn_rounds):
            group = my_groups[round_no % len(my_groups)]
            sequence = base + round_no + 1
            try:
                yield from client.multi_put(
                    [
                        (key, _seq_value(sequence, value_bytes))
                        for key in group_keys[group]
                    ]
                )
            except ClusterError:
                continue  # lock-contention abort: provably no effect
            acked[group].add(sequence)
            if group != shared_group:
                expected_final[group] = sequence
        finished.append(f"txn{client_id}")
        done_box["txn"] = max(done_box["txn"], sim.now)

    slot_start = (
        topology.client_slot_start
        if topology.client_slot_start is not None
        else topology.shards + 1
    )
    for client_id in range(txn_clients):
        machine = cluster.machines[slot_start + client_id % txn_clients]
        client = service.connect(machine, name=f"t{client_id}")
        sim.process(txn_loop(client, client_id))

    # --- the twice-built FIFO queue ---------------------------------
    host_machine = cluster.machines[topology.shards]
    item_bytes = int(settings.get("queue_item_bytes", 16))
    if structure == "one-sided":
        region = QueueRegion(
            sim,
            cluster,
            machine=host_machine,
            capacity=int(settings.get("queue_capacity", 1 << 17)),
            max_item_bytes=item_bytes,
        )
        connect_queue = region.connect
        queue_residue = lambda: region.snapshot()[1] - region.snapshot()[0]
    else:
        rfp_queue = RfpQueue(sim, cluster, machine=host_machine, config=quiet)
        connect_queue = rfp_queue.connect
        queue_residue = lambda: len(rfp_queue.items)

    queue_slot = slot_start + txn_clients
    queue_span = topology.machines - queue_slot
    queue_handles = [
        connect_queue(
            cluster.machines[queue_slot + index % queue_span], name=f"q{index}"
        )
        for index in range(queue_clients)
    ]
    per_producer = [
        total_items // producers + (1 if p < total_items % producers else 0)
        for p in range(producers)
    ]
    enqueued: List[bytes] = []
    dequeued: List[bytes] = []
    drained = {"count": 0}
    backoff_us = float(settings.get("empty_backoff_us", 2.0))

    def produce(queue, producer_id: int, count: int):
        for item_no in range(count):
            item = b"%02d:%08d" % (producer_id, item_no)
            yield from queue.enqueue(item)
            enqueued.append(item)
        finished.append(f"prod{producer_id}")
        done_box["queue"] = max(done_box["queue"], sim.now)

    def consume(queue, consumer_id: int):
        while drained["count"] < total_items:
            value = yield from queue.dequeue()
            if value is None:
                yield sim.timeout(backoff_us)
            else:
                drained["count"] += 1
                dequeued.append(value)
        finished.append(f"cons{consumer_id}")
        done_box["queue"] = max(done_box["queue"], sim.now)

    for producer_id in range(producers):
        sim.process(
            produce(
                queue_handles[producer_id],
                producer_id,
                per_producer[producer_id],
            )
        )
    for consumer_id in range(consumers):
        sim.process(consume(queue_handles[producers + consumer_id], consumer_id))

    sim.run(until=window)

    # --- quiescence, then exact audits ------------------------------
    expected_done = txn_clients + producers + consumers
    if len(finished) != expected_done:
        raise BenchError(
            f"run did not quiesce inside the {window}us window: "
            f"{len(finished)}/{expected_done} client scripts finished "
            f"({sorted(finished)})"
        )
    checker = ctx.checkers.get("cluster")
    if checker is None:
        raise ExpError(
            "txn-structures audit needs the 'cluster' invariant checker — "
            "run under an InvariantObserver (repro.exp.runner.default_observers)"
        )
    checker.assert_clean()
    # Quiesced run: every transaction closed, so any surviving lease is
    # a leak (the conftest gate's rule, enforced in the bench too).
    checker.assert_no_leaked_leases()

    torn_groups = 0
    lost_acked = 0
    for group, keys in enumerate(group_keys):
        stored = {
            service.peek(shard, key)
            for key in keys
            for shard in service.replicas_for(key)
        }
        if len(stored) != 1:
            torn_groups += 1
            continue
        (value,) = stored
        sequence = _stored_seq(value)
        if sequence not in acked[group]:
            lost_acked += 1
        elif group != shared_group and sequence != expected_final[group]:
            lost_acked += 1
    if torn_groups:
        raise BenchError(
            f"{torn_groups} key groups are torn across keys/replicas — "
            "a partially-applied multi-PUT escaped"
        )
    if lost_acked:
        raise BenchError(
            f"{lost_acked} key groups do not hold their last acked "
            "transaction's value"
        )

    residue = queue_residue()
    if sorted(dequeued) != sorted(enqueued) or residue != 0:
        raise BenchError(
            f"queue conservation broken: {len(enqueued)} enqueued, "
            f"{len(dequeued)} dequeued, {residue} left in the ring"
        )
    # The bypass claim (one-sided) and the §3.2 in-bound-reply claim
    # (RFP) agree on the observable: the host NIC posts nothing.
    host_outbound = host_machine.rnic.outbound_ops
    if host_outbound != 0:
        raise BenchError(
            f"queue host posted {host_outbound} out-bound verbs; both "
            "builds must keep the host NIC in-bound-only"
        )

    queue_ops = sum(handle.stats.ops for handle in queue_handles)
    remote_ops = sum(
        handle.stats.remote_ops.value for handle in queue_handles
    )
    committed = service.txns.committed
    queue_done = done_box["queue"]
    txn_done = done_box["txn"]
    return {
        "queue_mops": 2 * total_items / max(queue_done, 1e-9),
        "queue_done_us": queue_done,
        "queue_items": total_items,
        "queue_ops": queue_ops,
        "queue_remote_ops": remote_ops,
        "remote_ops_per_op": remote_ops / max(queue_ops, 1),
        "cas_retries": sum(
            handle.stats.cas_retries.value for handle in queue_handles
        ),
        "ready_polls": sum(
            handle.stats.ready_polls.value for handle in queue_handles
        ),
        "empty_polls": sum(
            handle.stats.empties.value for handle in queue_handles
        ),
        "txn_mops": committed / max(txn_done, 1e-9),
        "txn_committed": committed,
        "txn_aborted": service.txns.aborted,
        "torn_groups": torn_groups,
        "lost_acked_writes": lost_acked,
        "acked_groups": group_count,
        "dispatched": sim.dispatched,
    }


DRIVERS: Dict[str, Driver] = {
    "raw-verbs": run_raw_verbs,
    "paradigm": run_paradigm,
    "kv": run_kv_condition,
    "cluster": run_cluster,
    "txn-structures": run_txn_structures,
}
