"""Ablations and extensions beyond the paper's figures.

- ``ablation-symmetric`` — rerun the headline comparison on a
  hypothetical NIC with **no in/out-bound asymmetry**.  RFP's design
  premise is the asymmetry; on symmetric hardware remote fetching should
  buy (almost) nothing over server-reply.  This is the causal test of
  the paper's Observation 1.
- ``ext-lock-bypass`` — §5's lock-based bypass (DrTM-style CAS
  spinlocks) against Jakiro, uniform vs Zipf keys.
- ``ext-ud-rpc`` — §5's related-work argument, measured: a HERD-style
  UC/UD RPC out-rates RC server-reply (cheap datagram issue) but still
  trails RFP, and message loss costs it real throughput through
  timeout/retransmit machinery RFP never needs.
"""

from __future__ import annotations

from typing import List

from repro.baselines.herd import HerdServer
from repro.bench.figures import ExperimentResult, _fmt, _spec
from repro.bench.harness import Scale, run_controlled_process_time, run_kv
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17, ClusterSpec, MachineSpec, NicSpec
from repro.sim.core import Simulator
from repro.workloads.loop import ClosedLoop, kv_operations, repeat
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload

__all__ = [
    "run_ablation_symmetric",
    "run_ext_ud_rpc",
    "run_ext_lock_bypass",
    "SYMMETRIC_CLUSTER",
]

#: A hypothetical NIC whose issue path is as fast as its serve path:
#: both pipelines at the CX-3 *out-bound* rate (so neither side gets the
#: asymmetry windfall and porting-cost arguments are all that remain).
SYMMETRIC_NIC = NicSpec(
    name="symmetric-hypothetical",
    bandwidth_gbps=40.0,
    inbound_peak_mops=2.11,
    outbound_peak_mops=2.11,
    read_extra_us=0.0,
)

SYMMETRIC_CLUSTER = ClusterSpec(
    machine=MachineSpec(nic=SYMMETRIC_NIC, cores=16, memory_gb=96), machines=8
)


def run_ablation_symmetric(scale: Scale) -> ExperimentResult:
    """Jakiro vs ServerReply on asymmetric vs symmetric NICs."""
    spec = _spec(scale)
    rows = []
    for label, cluster_spec in (
        ("ConnectX-3 (5.3x asym)", CLUSTER_EUROSYS17),
        ("symmetric (1.0x)", SYMMETRIC_CLUSTER),
    ):
        jakiro = run_kv(
            "jakiro", spec, server_threads=6, scale=scale, cluster_spec=cluster_spec
        )
        reply = run_kv(
            "serverreply",
            spec,
            server_threads=6,
            scale=scale,
            cluster_spec=cluster_spec,
        )
        gain = jakiro.throughput_mops / max(reply.throughput_mops, 1e-9)
        rows.append(
            [
                label,
                _fmt(jakiro.throughput_mops),
                _fmt(reply.throughput_mops),
                _fmt(gain),
            ]
        )
    return ExperimentResult(
        "ablation-symmetric",
        "Ablation: remove the in/out-bound asymmetry",
        ["nic", "jakiro_mops", "serverreply_mops", "rfp_gain"],
        rows,
        paper_expectation=(
            "RFP's advantage is built on Observation 1; on a symmetric NIC "
            "remote fetching should gain ~nothing over server-reply"
        ),
        observations=(
            f"gain {rows[0][3]}x on CX-3 collapses to {rows[1][3]}x on the "
            "symmetric NIC"
        ),
    )


def run_ext_lock_bypass(scale: Scale) -> ExperimentResult:
    """DrTM-style CAS-locked bypass vs Jakiro, uniform vs Zipf (§5).

    A lock-based bypass store pays 3+ one-sided verbs per operation even
    uncontended; under skew the hot keys' CAS retries pile further
    amplification on top — while Jakiro's EREW server shrugs at skew.
    """
    from repro.baselines.drtm import DrtmServer

    rows = []
    for distribution in ("uniform", "zipfian"):
        spec = WorkloadSpec(
            records=min(scale.records, 4096),
            get_fraction=0.95,
            distribution=distribution,
        )
        jakiro = run_kv("jakiro", spec, server_threads=6, scale=scale)

        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        server = DrtmServer(sim, cluster, capacity=spec.records * 2)
        workload = YcsbWorkload(spec)
        server.preload(workload.dataset())
        window = scale.window_us
        loop = ClosedLoop(sim, window, window * scale.warmup_fraction)
        clients = []
        for index in range(35):
            client = server.connect(cluster.client_machines[index % 7])
            clients.append(client)
            loop.spawn(kv_operations(client, workload.operations(f"c{index}")))
        loop.run()
        retries = sum(c.stats.cas_retries.value for c in clients)
        completed = max(1, loop.completions())
        rows.append(
            [
                distribution,
                _fmt(jakiro.throughput_mops),
                _fmt(loop.mops()),
                _fmt(retries / completed),
            ]
        )
    return ExperimentResult(
        "ext-lock-bypass",
        "Extension: CAS-locked bypass (DrTM-style) vs Jakiro",
        ["distribution", "jakiro_mops", "drtm_mops", "cas_retries_per_op"],
        rows,
        paper_expectation=(
            "§5: explicit-lock coordination multiplies one-sided ops; "
            "skew adds CAS contention on hot keys, while EREW Jakiro is "
            "skew-insensitive"
        ),
        observations=(
            f"uniform: {rows[0][1]} vs {rows[0][2]} MOPS; zipf: "
            f"{rows[1][1]} vs {rows[1][2]} MOPS "
            f"({rows[1][3]} CAS retries/op)"
        ),
    )


def run_ext_ud_rpc(scale: Scale) -> ExperimentResult:
    """HERD-style UC/UD RPC vs RFP vs server-reply, with and without loss."""
    rows: List[List] = []
    rfp = run_controlled_process_time("rfp", 0.2, scale=scale)
    reply = run_controlled_process_time("serverreply", 0.2, scale=scale)
    rows.append(["rfp (RC)", 0.0, _fmt(rfp.throughput_mops), 0])
    rows.append(["server-reply (RC)", 0.0, _fmt(reply.throughput_mops), 0])
    for loss in (0.0, 0.01, 0.05):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        server = HerdServer(
            sim,
            cluster,
            handler=lambda p, c: (p, 0.2),
            threads=6,
            loss_probability=loss,
        )
        window = scale.window_us
        loop = ClosedLoop(sim, window, window * scale.warmup_fraction)
        clients = []
        for index in range(35):
            client = server.connect(cluster.client_machines[index % 7])
            clients.append(client)
            loop.spawn(repeat(client.call, bytes(16)))
        loop.run()
        retransmits = sum(c.stats.retransmits.value for c in clients)
        rows.append(
            [
                "herd (UC/UD)",
                loss,
                _fmt(loop.mops()),
                retransmits,
            ]
        )
    return ExperimentResult(
        "ext-ud-rpc",
        "Extension: HERD-style UC/UD RPC vs the RC paradigms",
        ["system", "loss_probability", "mops", "retransmits"],
        rows,
        paper_expectation=(
            "§5: UD replies out-rate RC server-reply (cheap datagram "
            "issue) but the server still spends out-bound work, so RFP "
            "leads; loss forces timeout/retransmit machinery and costs "
            "throughput"
        ),
        observations=(
            f"rfp {rows[0][2]} > herd {rows[2][2]} > server-reply "
            f"{rows[1][2]} MOPS at zero loss"
        ),
    )
