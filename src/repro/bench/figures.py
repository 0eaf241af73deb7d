"""One runner per evaluation figure/table of the paper.

Each ``run_*`` function regenerates the rows/series behind one figure and
returns an :class:`ExperimentResult` carrying the measured data plus the
paper's reported expectation, so EXPERIMENTS.md can be produced directly
from these runners.  All but fig5, fig6 and params shape the outcomes of
a declared spec (:mod:`repro.exp.library`) run on the experiment runner.  Absolute numbers come from the calibrated simulator;
the claims under reproduction are the *shapes* (who wins, by what factor,
where crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.bench.calibration import (
    inbound_iops_curve,
    measure_bypass,
    measured_fetch_round_trip_us,
    model_inbound_iops,
    outbound_iops_curve,
)
from repro.bench.harness import Scale
from repro.core.params import derive_retry_bound, derive_size_bounds, select_parameters
from repro.sim.random import seeded_rng

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Measured rows for one figure/table plus the paper's expectation."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List]
    paper_expectation: str
    observations: str = ""
    series: Dict[str, list] = field(default_factory=dict)


def _fmt(value) -> object:
    if isinstance(value, float):
        return round(value, 3)
    return value


def _run_exp_spec(experiment_id: str, scale: Scale):
    """Expand and run one declared spec under the invariant observers.

    Imported lazily: :mod:`repro.exp` imports this module's package
    during its own initialization, so a top-level import here would
    bite its tail.
    """
    from repro.exp.library import SPECS
    from repro.exp.runner import ExperimentRunner, default_observers

    spec = SPECS[experiment_id]
    runner = ExperimentRunner(observers=default_observers())
    return spec, runner.run(spec, scale)


def _shaped(spec, columns, rows, observations: str) -> ExperimentResult:
    """Rows shaped from a spec's run, under its id, title and claim."""
    return ExperimentResult(
        spec.experiment_id,
        spec.title,
        columns,
        rows,
        spec.paper_expectation,
        observations,
    )


#: The §4 comparison's systems in column order, and their MOPS headers.
_SYSTEMS = ("jakiro", "serverreply", "memcached")
_SYSTEM_MOPS = [f"{name}_mops" for name in _SYSTEMS]


def _grid_rows(outcomes, row_axis, column_axis, columns) -> List[List]:
    """One row per ``row_axis`` value, in run order: the value, then the
    MOPS of each of ``columns`` along ``column_axis``."""
    mops = {}
    for outcome in outcomes:
        axis = outcome.condition.axis
        mops[axis[row_axis], axis[column_axis]] = outcome.metrics["mops"]
    rows = dict.fromkeys(row for row, _ in mops)
    return [[row] + [_fmt(mops[row, column]) for column in columns] for row in rows]


def _get_percent_rows(outcomes) -> List[List]:
    """Figs. 16 and 19: one row per GET share, labelled ``95%`` etc."""
    rows = _grid_rows(outcomes, "get_fraction", "paradigm", _SYSTEMS)
    return [[f"{round(row[0] * 100)}%"] + row[1:] for row in rows]


# ----------------------------------------------------------------------
# §2.2 microbenchmarks
# ----------------------------------------------------------------------


def run_fig3(scale: Scale) -> ExperimentResult:
    """Out-bound vs in-bound IOPS vs number of server threads (32 B)."""
    spec, result = _run_exp_spec("fig3", scale)
    inbound_peak = result.outcome("paradigm=inbound,client_threads=28").metrics[
        "mops"
    ]
    rows = [
        [
            outcome.condition.axis["server_threads"],
            _fmt(outcome.metrics["mops"]),
            _fmt(inbound_peak),
        ]
        for outcome in result.outcomes
        if "server_threads" in outcome.condition.axis
    ]
    peak_out = max(row[1] for row in rows)
    return _shaped(
        spec,
        ["server_threads", "outbound_mops", "inbound_mops"],
        rows,
        observations=(
            f"measured out-bound peak {peak_out:.2f} MOPS, in-bound "
            f"{inbound_peak:.2f} MOPS, asymmetry {inbound_peak / peak_out:.1f}x"
        ),
    )


def run_fig4(scale: Scale) -> ExperimentResult:
    """Server in-bound IOPS vs number of client threads."""
    spec, result = _run_exp_spec("fig4", scale)
    rows = [
        [
            outcome.condition.axis["client_threads"],
            _fmt(outcome.metrics["mops"]),
        ]
        for outcome in result.outcomes
    ]
    peak = max(row[1] for row in rows)
    tail = rows[-1][1]
    return _shaped(
        spec,
        ["client_threads", "inbound_mops"],
        rows,
        observations=f"peak {peak:.2f} MOPS; at 70 threads {tail:.2f} MOPS",
    )


def run_fig5(scale: Scale) -> ExperimentResult:
    """IOPS of both directions vs payload size."""
    sizes = scale.sweep(
        [32, 128, 256, 512, 1024, 2048, 4096],
        [32, 64, 128, 256, 512, 1024, 2048, 4096],
    )
    window = scale.window_us * 0.8
    inbound = dict(inbound_iops_curve(sizes, window_us=window))
    outbound = dict(outbound_iops_curve(sizes, window_us=window))
    rows = [[s, _fmt(inbound[s]), _fmt(outbound[s])] for s in sizes]
    return ExperimentResult(
        "fig5",
        "IOPS vs payload size",
        ["size_bytes", "inbound_mops", "outbound_mops"],
        rows,
        paper_expectation=(
            "in-bound flat to ~256 B then falls to the bandwidth line; the "
            "two directions converge above ~2 KB"
        ),
        observations=(
            f"at 32 B: {inbound[32]:.2f} vs {outbound[32]:.2f}; at 2 KB+: "
            f"{inbound[2048]:.2f} vs {outbound[2048]:.2f}"
        ),
    )


def run_fig6(scale: Scale) -> ExperimentResult:
    """Server-bypass throughput vs RDMA operations per request."""
    ops_counts = scale.sweep([2, 4, 6, 8, 11, 15], list(range(2, 16)))
    window = scale.window_us
    rows = []
    for ops in ops_counts:
        # The paper's 21 client threads.
        run = measure_bypass(ops, 21, window, scale.warmup_fraction)
        rows.append([ops, _fmt(run.mops), _fmt(run.inbound_ops / window)])
    return ExperimentResult(
        "fig6",
        "Bypass access amplification",
        ["rdma_ops_per_request", "throughput_mops", "inbound_iops_mops"],
        rows,
        paper_expectation=(
            "request throughput collapses ~1/k while the NIC stays at high "
            "in-bound IOPS; below 1 MOPS past ~12 ops/request"
        ),
        observations=(
            f"throughput {rows[0][1]} MOPS at k={rows[0][0]} down to "
            f"{rows[-1][1]} at k={rows[-1][0]}"
        ),
    )


# ----------------------------------------------------------------------
# §3.2 parameter mechanics
# ----------------------------------------------------------------------


def run_fig9(scale: Scale) -> ExperimentResult:
    """Repeated remote fetching vs server-reply across process time."""
    spec, result = _run_exp_spec("fig9", scale)
    rows = _grid_rows(
        result.outcomes, "process_us", "paradigm", ("rfp-no-switch", "server-reply")
    )
    crossover = next(
        (row[0] for row in rows if row[1] <= 1.10 * row[2]), rows[-1][0]
    )
    return _shaped(
        spec,
        ["process_time_us", "remote_fetch_mops", "server_reply_mops"],
        rows,
        observations=f"gain drops within 10% at P ≈ {crossover} µs",
    )


def run_params(scale: Scale) -> ExperimentResult:
    """The §3.2 selection: N, [L, H], and the chosen (R, F)."""
    sizes = [32, 64, 128, 192, 256, 384, 512, 640, 768, 1024, 2048, 4096, 8192]
    curve = inbound_iops_curve(sizes, window_us=scale.window_us * 0.6)
    lower, upper = derive_size_bounds([s for s, _ in curve], [r for _, r in curve])
    fig9 = run_fig9(scale)
    retry_bound, crossover = derive_retry_bound(
        [row[0] for row in fig9.rows],
        [row[1] for row in fig9.rows],
        [row[2] for row in fig9.rows],
        fetch_round_trip_us=measured_fetch_round_trip_us(),
    )
    iops_at = model_inbound_iops()
    small = select_parameters(
        [32 + 9] * 256, iops_at, retry_bound, lower, upper
    )
    mixed_sizes = list(seeded_rng(1).integers(32, 8193, size=512))
    mixed = select_parameters(
        [int(s) for s in mixed_sizes], iops_at, retry_bound, lower, upper
    )
    rows = [
        ["N (retry upper bound)", retry_bound],
        ["crossover process time (us)", _fmt(float(crossover))],
        ["L (bytes)", lower],
        ["H (bytes)", upper],
        ["chosen R, 32B values", small.retry_bound],
        ["chosen F, 32B values", small.fetch_size],
        ["chosen R, mixed 32B-8KB", mixed.retry_bound],
        ["chosen F, mixed 32B-8KB", mixed.fetch_size],
    ]
    return ExperimentResult(
        "params",
        "Parameter selection (R, F) per §3.2",
        ["quantity", "value"],
        rows,
        paper_expectation=(
            "N=5 at P≈7 µs; L=256, H=1024; R=5, F=256 for 32 B values "
            "(F=640 quoted for the mixed workload; Eq. 2 as published "
            "prefers the smaller F — see EXPERIMENTS.md)"
        ),
        observations=(
            f"N={retry_bound}, L={lower}, H={upper}, "
            f"(R,F)=({small.retry_bound},{small.fetch_size}) for 32 B"
        ),
    )


# ----------------------------------------------------------------------
# §4.3 / §4.4 system comparisons
# ----------------------------------------------------------------------


def run_fig10(scale: Scale) -> ExperimentResult:
    """Jakiro throughput vs number of client threads."""
    spec, result = _run_exp_spec("fig10", scale)
    rows = [
        [outcome.condition.axis["client_threads"], _fmt(outcome.metrics["mops"])]
        for outcome in result.outcomes
    ]
    observations = f"peak {max(row[1] for row in rows):.2f} MOPS"
    return _shaped(spec, ["client_threads", "jakiro_mops"], rows, observations)


def run_fig11(scale: Scale) -> ExperimentResult:
    """Jakiro vs Pilaf on the 20 Gbps cluster, 50% GET."""
    spec, result = _run_exp_spec("fig11", scale)
    rows = _grid_rows(result.outcomes, "value_bytes", "paradigm", ("jakiro", "pilaf"))
    factor = min(row[1] / row[2] for row in rows if row[2] > 0)
    columns = ["value_bytes", "jakiro_mops", "pilaf_mops"]
    observations = f"Jakiro/Pilaf factor >= {factor:.1f}x across the sweep"
    return _shaped(spec, columns, rows, observations)


def run_fig12(scale: Scale) -> ExperimentResult:
    """The three systems vs number of server threads."""
    spec, result = _run_exp_spec("fig12", scale)
    rows = _grid_rows(result.outcomes, "server_threads", "paradigm", _SYSTEMS)
    peaks = [max(row[i] for row in rows) for i in (1, 2, 3)]
    observations = (
        f"peaks: jakiro {peaks[0]:.2f}, serverreply {peaks[1]:.2f}, "
        f"memcached {peaks[2]:.2f} MOPS"
    )
    return _shaped(spec, ["server_threads"] + _SYSTEM_MOPS, rows, observations)


def _latency_cdf(experiment_id: str, scale: Scale) -> ExperimentResult:
    """Figs. 13 and 20: eight percentiles and the mean per system, and
    every latency sample as the series."""
    spec, result = _run_exp_spec(experiment_id, scale)
    outcomes = {outcome.condition.paradigm: outcome for outcome in result.outcomes}
    latency = [outcomes[name].samples["latency_us"] for name in _SYSTEMS]
    means = [outcomes[name].metrics["mean_latency_us"] for name in _SYSTEMS]
    rows = [
        [p] + [_fmt(float(np.percentile(samples, p))) for samples in latency]
        for p in (5, 15, 25, 50, 75, 90, 95, 99)
    ]
    rows.append(["mean"] + [_fmt(mean) for mean in means])
    means_us = (f"{name} {mean:.1f}" for name, mean in zip(_SYSTEMS, means))
    shaped = _shaped(
        spec,
        ["percentile"] + [f"{name}_us" for name in _SYSTEMS],
        rows,
        f"means: {', '.join(means_us)} µs",
    )
    shaped.series = {name: s.tolist() for name, s in zip(_SYSTEMS, latency)}
    return shaped


def run_fig13(scale: Scale) -> ExperimentResult:
    """Latency CDF at peak throughput, uniform 95% GET."""
    return _latency_cdf("fig13", scale)


def run_fig14(scale: Scale) -> ExperimentResult:
    """Jakiro vs ServerReply vs Jakiro-without-switch across process time."""
    spec, result = _run_exp_spec("fig14", scale)
    rows = _grid_rows(
        result.outcomes,
        "process_us",
        "paradigm",
        ("RFP", "server-reply", "rfp-no-switch"),
    )
    return _shaped(
        spec,
        ["process_time_us", "jakiro_mops", "serverreply_mops", "jakiro_no_switch_mops"],
        rows,
        observations=(
            f"at P=1: {rows[0][1]} vs {rows[0][2]} MOPS; at P={rows[-1][0]}: "
            f"{rows[-1][1]} vs {rows[-1][2]} MOPS"
        ),
    )


def run_fig15(scale: Scale) -> ExperimentResult:
    """Client CPU utilization across process time (the hybrid's point)."""
    spec, result = _run_exp_spec("fig15", scale)
    rows = [
        [
            outcome.condition.axis["process_us"],
            _fmt(100.0 * outcome.metrics["client_cpu_utilization"]),
            int(outcome.metrics["clients_in_reply_mode"]),
        ]
        for outcome in result.outcomes
    ]
    return _shaped(
        spec,
        ["process_time_us", "client_cpu_percent", "clients_in_reply_mode"],
        rows,
        observations=(
            f"{rows[0][1]}% at P={rows[0][0]} µs vs {rows[-1][1]}% at "
            f"P={rows[-1][0]} µs"
        ),
    )


def run_fig16(scale: Scale) -> ExperimentResult:
    """Throughput vs GET percentage, uniform."""
    spec, result = _run_exp_spec("fig16", scale)
    rows = _get_percent_rows(result.outcomes)
    jakiro, memcached = rows[-1][1], rows[-1][3]
    observations = (
        f"at 5% GET: jakiro {jakiro}, memcached {memcached} MOPS "
        f"(factor {jakiro / max(memcached, 1e-9):.1f}x)"
    )
    return _shaped(spec, ["get_percent"] + _SYSTEM_MOPS, rows, observations)


def run_fig17(scale: Scale) -> ExperimentResult:
    """Throughput vs value size (95% GET, F=640, R=5), and the mixed
    32 B-8 KB workload as the last row."""
    spec, result = _run_exp_spec("fig17", scale)
    fixed = [o for o in result.outcomes if "value_max" not in o.condition.axis]
    mixed = [o for o in result.outcomes if "value_max" in o.condition.axis]
    rows = _grid_rows(fixed, "value_bytes", "paradigm", _SYSTEMS)
    rows.append(["32-8192 mix"] + [_fmt(o.metrics["mops"]) for o in mixed])
    observations = (
        f"at 32 B: {rows[0][1]} vs {rows[0][2]} vs {rows[0][3]}; "
        f"mixed: {rows[-1][1]} vs {rows[-1][2]} vs {rows[-1][3]} MOPS"
    )
    return _shaped(spec, ["value_bytes"] + _SYSTEM_MOPS, rows, observations)


def run_fig18(scale: Scale) -> ExperimentResult:
    """Jakiro throughput under different fetch sizes F."""
    spec, result = _run_exp_spec("fig18", scale)
    fetch_sizes = spec.axes["fetch_size"]
    rows = _grid_rows(result.outcomes, "value_bytes", "fetch_size", fetch_sizes)
    columns = ["value_bytes"] + [f"F={f}" for f in fetch_sizes]
    return _shaped(spec, columns, rows, "see per-row optima")


def run_fig19(scale: Scale) -> ExperimentResult:
    """Throughput vs GET percentage under Zipf(0.99)."""
    spec, result = _run_exp_spec("fig19", scale)
    rows = _get_percent_rows(result.outcomes)
    observations = f"at 95% GET: jakiro {rows[0][1]}, memcached {rows[0][3]} MOPS"
    return _shaped(spec, ["get_percent"] + _SYSTEM_MOPS, rows, observations)


def run_fig20(scale: Scale) -> ExperimentResult:
    """Latency CDF under the skewed read-intensive workload."""
    return _latency_cdf("fig20", scale)


def run_tab3(scale: Scale) -> ExperimentResult:
    """Retry counts per workload (Table 3)."""
    spec, result = _run_exp_spec("tab3", scale)
    rows = [
        [
            o.condition.workload.distribution,
            f"{round(o.condition.workload.get_fraction * 100)}%",
            _fmt(o.metrics["retried_fetch_percent"]),
            o.metrics["max_fetch_attempts"],
        ]
        for o in result.outcomes
    ]
    return _shaped(
        spec,
        ["distribution", "get_percent", "percent_N_gt_1", "largest_N"],
        rows,
        "percentages in the same sub-percent decade as the paper",
    )


#: Table 1 grid descriptors: paradigm -> (send, process, return) cells.
_TAB1_GRID = {
    "server-reply": ("in-bound", "server involved", "out-bound"),
    "server-bypass": ("in-bound", "server bypassed", "in-bound"),
    "RFP": ("in-bound", "server involved", "in-bound"),
    "meaningless": ("in-bound", "server bypassed", "out-bound"),
}


def run_tab1(scale: Scale) -> ExperimentResult:
    """The Table 1 paradigm grid, measured with a tiny echo RPC."""
    spec, result = _run_exp_spec("tab1", scale)
    rows = [
        [
            paradigm,
            *_TAB1_GRID[paradigm],
            _fmt(result.outcome(f"paradigm={paradigm}").metrics["mops"]),
        ]
        for paradigm in _TAB1_GRID
    ]
    return _shaped(
        spec,
        ["paradigm", "request_send", "request_process", "result_return", "mops"],
        rows,
        observations=f"RFP {rows[2][4]} MOPS tops the grid",
    )
