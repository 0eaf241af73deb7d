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
- ``breakdown`` — each RFP call split into send, server and fetch
  phases across load: where each microsecond of Fig. 13 lives.
"""

from __future__ import annotations

from repro.bench.figures import ExperimentResult, _fmt, _run_exp_spec, _shaped
from repro.bench.harness import Scale, run_kv
from repro.hw.cluster import build_cluster
from repro.hw.specs import CLUSTER_EUROSYS17
from repro.sim.core import Simulator
from repro.workloads.loop import ClosedLoop, kv_operations
from repro.workloads.ycsb import WorkloadSpec, YcsbWorkload

__all__ = [
    "run_ablation_symmetric",
    "run_breakdown",
    "run_ext_ud_rpc",
    "run_ext_lock_bypass",
]

#: ablation-symmetric's ``cluster`` axis -> its row label.
_NICS = {"testbed": "ConnectX-3 (5.3x asym)", "symmetric": "symmetric (1.0x)"}


def run_ablation_symmetric(scale: Scale) -> ExperimentResult:
    """Jakiro vs ServerReply on asymmetric vs symmetric NICs."""
    spec, result = _run_exp_spec("ablation-symmetric", scale)
    mops = {
        (o.condition.axis["cluster"], o.condition.paradigm): o.metrics["mops"]
        for o in result.outcomes
    }
    rows = []
    for cluster, label in _NICS.items():
        jakiro, reply = mops[cluster, "jakiro"], mops[cluster, "serverreply"]
        rows.append([label, _fmt(jakiro), _fmt(reply), _fmt(jakiro / max(reply, 1e-9))])
    return _shaped(
        spec,
        ["nic", "jakiro_mops", "serverreply_mops", "rfp_gain"],
        rows,
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
    spec, result = _run_exp_spec("ext-ud-rpc", scale)
    systems = {
        "RFP": "rfp (RC)",
        "server-reply": "server-reply (RC)",
        "herd": "herd (UC/UD)",
    }
    rows = [
        [
            systems[outcome.condition.paradigm],
            outcome.condition.settings.get("loss_probability", 0.0),
            _fmt(outcome.metrics["mops"]),
            outcome.metrics.get("retransmits", 0),
        ]
        for outcome in result.outcomes
    ]
    return _shaped(
        spec,
        ["system", "loss_probability", "mops", "retransmits"],
        rows,
        observations=(
            f"rfp {rows[0][2]} > herd {rows[2][2]} > server-reply "
            f"{rows[1][2]} MOPS at zero loss"
        ),
    )


def run_breakdown(scale: Scale) -> ExperimentResult:
    """An RFP call's phases across load: a saturated in-bound pipeline
    shows up in ``fetch``, an overloaded server in ``server``."""
    spec, result = _run_exp_spec("breakdown", scale)
    phases = ["send_us", "server_us", "fetch_us", "total_us"]
    rows = [
        [outcome.condition.axis["process_us"]]
        + [_fmt(outcome.metrics[phase]) for phase in phases]
        for outcome in result.outcomes
    ]
    return _shaped(
        spec,
        ["process_time_us"] + phases,
        rows,
        observations=f"at P={rows[0][0]}: phases {rows[0][1]}/{rows[0][2]}/{rows[0][3]} µs",
    )
