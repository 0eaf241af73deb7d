"""Per-phase latency decomposition of an RFP call.

Uses the tracing hooks to split each call's latency into:

- **send** — call start to the request write's completion (client post +
  write round trip, including any client-NIC queueing),
- **server** — request arrival to response publication (poll queueing +
  handler + stub),
- **fetch** — response publication to the result in the client's hands
  (fetch reads, including wasted retries).

This answers *why* a configuration is slow: a saturated in-bound
pipeline shows up in ``fetch``, an overloaded server in ``server``, and
client-side issue contention in ``send``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.bench.figures import ExperimentResult, _fmt
from repro.bench.harness import Scale, run_controlled_process_time
from repro.errors import BenchError
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

__all__ = ["PhaseBreakdown", "measure_breakdown", "run_breakdown"]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Mean per-phase times for one configuration (µs)."""

    send_us: float
    server_us: float
    fetch_us: float
    total_us: float
    calls: int


def measure_breakdown(
    process_us: float,
    client_threads: int = 35,
    server_threads: int = 6,
    scale: Scale = Scale.fast(),
    response_bytes: int = 32,
) -> PhaseBreakdown:
    """Run a controlled-process-time workload and decompose latency."""
    sim = Simulator()
    tracer = Tracer(sim)
    run_controlled_process_time(
        "rfp",
        process_us,
        server_threads=server_threads,
        client_threads=client_threads,
        scale=scale,
        response_bytes=response_bytes,
        sim=sim,
        tracer=tracer,
    )

    # Marks pair by (channel, seq): clients share names, channels do not.
    # A call starts ``latency_us`` before its call_done mark.
    sent: Dict[Tuple[int, int], float] = {}
    published: Dict[Tuple[int, int], float] = {}
    sends, servers, fetches, totals = [], [], [], []
    for event in tracer.events():
        data = event.data
        if event.label == "request_sent":
            sent[(data["channel"], data["seq"])] = event.at_us
        elif event.label == "response_published":
            published[(data["client"], data["seq"])] = event.at_us
        elif event.label == "call_done":
            key = (data["channel"], data["seq"])
            send_done = sent.pop(key, None)
            publish = published.pop(key, None)
            if send_done is None or publish is None:
                continue
            latency = data["latency_us"]
            done = event.at_us
            sends.append(send_done - (done - latency))
            servers.append(publish - send_done)
            fetches.append(done - publish)
            totals.append(latency)
    if not totals:
        raise BenchError(
            f"no complete calls traced in a {scale.window_us} us window"
        )
    return PhaseBreakdown(
        send_us=float(np.mean(sends)),
        server_us=float(np.mean(servers)),
        fetch_us=float(np.mean(fetches)),
        total_us=float(np.mean(totals)),
        calls=len(totals),
    )


def run_breakdown(scale: Scale) -> ExperimentResult:
    """The ``breakdown`` experiment: phase decomposition across load."""
    rows = []
    for process_us in scale.sweep([0.2, 2.0, 5.0], [0.2, 1.0, 2.0, 3.0, 5.0]):
        breakdown = measure_breakdown(process_us, scale=scale)
        rows.append(
            [
                process_us,
                _fmt(breakdown.send_us),
                _fmt(breakdown.server_us),
                _fmt(breakdown.fetch_us),
                _fmt(breakdown.total_us),
            ]
        )
    return ExperimentResult(
        "breakdown",
        "Per-phase latency decomposition of an RFP call",
        ["process_time_us", "send_us", "server_us", "fetch_us", "total_us"],
        rows,
        paper_expectation=(
            "not a paper figure — explains Fig. 13: at peak load most of "
            "the latency sits in the server phase (queueing for worker "
            "threads), while send and fetch stay near their unloaded costs"
        ),
        observations=f"at P={rows[0][0]}: phases {rows[0][1]}/{rows[0][2]}/{rows[0][3]} µs",
    )
