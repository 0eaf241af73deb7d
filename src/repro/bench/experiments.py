"""Registry of reproducible experiments (every §4 figure and table)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.bench import cluster_runs, extensions, figures
from repro.bench.figures import ExperimentResult
from repro.bench.harness import Scale
from repro.errors import BenchError

__all__ = ["EXPERIMENTS", "Experiment", "ExperimentResult", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: id, description, and its runner."""

    experiment_id: str
    title: str
    runner: Callable[[Scale], ExperimentResult]


def _register() -> Dict[str, Experiment]:
    entries = [
        ("fig3", "In/out-bound asymmetry vs server threads", figures.run_fig3),
        ("fig4", "In-bound IOPS vs client threads", figures.run_fig4),
        ("fig5", "IOPS vs payload size", figures.run_fig5),
        ("fig6", "Bypass access amplification", figures.run_fig6),
        ("fig9", "Remote fetching vs server-reply vs process time", figures.run_fig9),
        ("fig10", "Jakiro throughput vs client threads", figures.run_fig10),
        ("fig11", "Jakiro vs Pilaf (20 Gbps, 50% GET)", figures.run_fig11),
        ("fig12", "Three systems vs server threads", figures.run_fig12),
        ("fig13", "Latency CDF, uniform", figures.run_fig13),
        ("fig14", "Hybrid switch vs process time", figures.run_fig14),
        ("fig15", "Client CPU utilization vs process time", figures.run_fig15),
        ("fig16", "Throughput vs GET percentage, uniform", figures.run_fig16),
        ("fig17", "Throughput vs value size", figures.run_fig17),
        ("fig18", "Jakiro vs fetch size F", figures.run_fig18),
        ("fig19", "Throughput vs GET percentage, skewed", figures.run_fig19),
        ("fig20", "Latency CDF, skewed", figures.run_fig20),
        ("tab1", "Table 1 paradigm grid, measured", figures.run_tab1),
        ("tab3", "Table 3 retry distribution", figures.run_tab3),
        ("params", "Parameter selection (N, L, H, R, F)", figures.run_params),
        (
            "ablation-symmetric",
            "Ablation: RFP without the NIC asymmetry",
            extensions.run_ablation_symmetric,
        ),
        (
            "ext-cluster-scaling",
            "Cluster: aggregate throughput vs shard count (1-6)",
            cluster_runs.run_ext_cluster_scaling,
        ),
        (
            "ext-cluster-failover",
            "Cluster: throughput through a single-shard crash (RF=2)",
            cluster_runs.run_ext_cluster_failover,
        ),
        (
            "ext-cluster-rejoin",
            "Cluster: crash, recovery transfer, and ring rejoin (RF=2)",
            cluster_runs.run_ext_cluster_rejoin,
        ),
        (
            "ext-cluster-rebalance",
            "Cluster: live vnode rebalancing under a Zipf hot-set",
            cluster_runs.run_ext_cluster_rebalance,
        ),
        (
            "ext-txn-structures",
            "Cluster: txns + a FIFO queue built twice (verbs vs RPC)",
            cluster_runs.run_ext_txn_structures,
        ),
        (
            "ext-ud-rpc",
            "Extension: HERD-style UC/UD RPC vs RC paradigms (§5)",
            extensions.run_ext_ud_rpc,
        ),
        (
            "ext-lock-bypass",
            "Extension: DrTM-style CAS-locked bypass vs Jakiro (§5)",
            extensions.run_ext_lock_bypass,
        ),
        (
            "breakdown",
            "Per-phase latency decomposition of an RFP call",
            extensions.run_breakdown,
        ),
    ]
    return {
        experiment_id: Experiment(experiment_id, title, runner)
        for experiment_id, title, runner in entries
    }


EXPERIMENTS: Dict[str, Experiment] = _register()


def run_experiment(experiment_id: str, scale: Scale = Scale.fast()) -> ExperimentResult:
    """Run one registered experiment by id."""
    experiment = EXPERIMENTS.get(experiment_id)
    if experiment is None:
        raise BenchError(
            f"unknown experiment {experiment_id!r}; options: {sorted(EXPERIMENTS)}"
        )
    return experiment.runner(scale)
