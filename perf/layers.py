"""Readouts: modeled end-to-end metrics, per-layer counters, and the
traced run's phase spans and per-layer profile.

Everything here reads public attributes of the system after (or while)
it runs; nothing is instrumented from inside the program.  Counters are
read twice, at the start and the end of the measured window, and
reported as deltas.  A layer a workload does not use reads 0.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from repro.kv import partition_of

#: Layers the profile is grouped into, by the module defining each function.
PROFILE_LAYERS = ("sim", "hw", "core", "kv", "cluster", "bench", "other")

_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def _arrays(logs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts = np.concatenate([np.asarray(log.starts, dtype=float) for log in logs])
    ends = np.concatenate([np.asarray(log.ends, dtype=float) for log in logs])
    ok = np.concatenate([np.asarray(log.ok, dtype=bool) for log in logs])
    return starts, ends, ok


def modeled(logs, start_us: float, end_us: float) -> Dict[str, float]:
    """Modeled metrics of the window ``(start_us, end_us]``.

    Throughput counts operations that returned inside the window;
    latency is taken over operations that both started and returned
    inside it, so the warm-up never leaks into the tail.
    """
    starts, ends, ok = _arrays(logs)
    ended = (ends > start_us) & (ends <= end_us)
    completed = int(np.count_nonzero(ended & ok))
    failed = int(np.count_nonzero(ended & ~ok))
    sampled = ok & (starts >= start_us) & (ends <= end_us)
    latency = ends[sampled] - starts[sampled]
    if latency.size == 0:
        p50 = p99 = p999 = 0.0
    else:
        p50, p99, p999 = (float(v) for v in np.percentile(latency, [50, 99, 99.9]))
    attempted = completed + failed
    return {
        "modeled_mops": completed / (end_us - start_us),
        "modeled_p50_us": p50,
        "modeled_p99_us": p99,
        "modeled_p999_us": p999,
        "failed_frac": failed / attempted if attempted else 0.0,
        "latency_samples": int(latency.size),
        "attempted": attempted,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# Per layer, untraced
# ----------------------------------------------------------------------


def _done(station) -> float:
    """Service time a single-server pipeline has finished so far (busy
    time counts an op when it is queued, backlog is what is still
    queued or in service)."""
    return station.busy_time - station.backlog()


def snapshot(workload) -> dict:
    """The public counters of every layer, at the current instant."""
    sim = workload.sim
    nics = {
        machine.name: (
            _done(machine.rnic.in_pipeline),
            _done(machine.rnic.out_pipeline),
            machine.rnic.inbound_ops,
            machine.rnic.outbound_ops,
            machine.rnic.inbound_bytes,
        )
        for machine in workload.hw.machines
    }
    transports = {
        id(t): (
            t,
            t.stats.calls.value,
            t.stats.remote_reads.value,
            t.stats.reply_waits.value,
            t.stats.fetch_attempts.count,
        )
        for t in workload.transports()
    }
    servers = {
        id(s): (s, s.stats.late_replies.value, s.stats.response_time_us.count)
        for s in workload.servers()
    }
    stores = workload.stores()
    store = (
        sum(s.counters.gets.value for s in stores),
        sum(s.counters.hits.value for s in stores),
        sum(s.counters.evictions.value for s in stores),
    )
    service = workload.cluster()
    shards = {}
    if service is not None:
        shards = {
            name: (m.operations, m.timeouts.value, m.failover_ops.value)
            for name, m in service.metrics.shards.items()
        }
    return {
        "now": sim.now,
        "dispatched": sim.dispatched,
        "nics": nics,
        "transports": transports,
        "servers": servers,
        "store": store,
        "shards": shards,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _imbalance(counts) -> float:
    counts = list(counts)
    total = sum(counts)
    return max(counts) / (total / len(counts)) if total else 0.0


def _client_totals(before: dict, after: dict) -> Tuple[int, int, int, int]:
    """Calls, remote reads, reply waits and first-read hits over the
    window, across every transport alive at either end of it (the
    cluster replaces a rebooted shard's transports mid-window)."""
    calls = reads = waits = first_hits = 0
    start = before["transports"]
    for key, (transport, *_) in {**start, **after["transports"]}.items():
        calls0, reads0, waits0, attempts0 = start[key][1:] if key in start else (0,) * 4
        stats = transport.stats
        calls += stats.calls.value - calls0
        reads += stats.remote_reads.value - reads0
        waits += stats.reply_waits.value - waits0
        first_hits += sum(1 for n in stats.fetch_attempts.samples[attempts0:] if n == 1)
    return calls, reads, waits, first_hits


def _partition_imbalance(workload, start_us: float, end_us: float) -> float:
    partitions = workload.partitions()
    if not partitions:
        return 0.0
    counts = [0] * partitions
    for client, log in enumerate(workload.logs):
        for position, end in enumerate(log.ends):
            if start_us < end <= end_us and log.ok[position]:
                key = workload.op_key(client, position)
                counts[partition_of(key, partitions)] += 1
    return _imbalance(counts)


def layer_metrics(
    workload, before: dict, after: dict, ops: int, run_s: float
) -> Dict[str, float]:
    """Per-layer metrics of the untraced measured window."""
    window = after["now"] - before["now"]
    events = after["dispatched"] - before["dispatched"]
    nic0, nic1 = before["nics"], after["nics"]

    def delta(machine, field: int) -> float:
        return nic1[machine.name][field] - nic0[machine.name][field]

    servers = workload.server_machines()
    clients = workload.client_machines()
    calls, reads, waits, first_hits = _client_totals(before, after)
    late = sum(
        server.stats.late_replies.value - before["servers"][key][1]
        for key, (server, _, _) in after["servers"].items()
    )
    response_times = [
        t
        for key, (server, _, _) in after["servers"].items()
        for t in server.stats.response_time_us.samples[before["servers"][key][2] :]
    ]
    p50, p99 = (
        np.percentile(response_times, [50, 99]) if response_times else (0.0, 0.0)
    )
    gets0, hits0, evictions0 = before["store"]
    gets1, hits1, evictions1 = after["store"]
    metrics = {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.events_per_s": _ratio(events, run_s),
        "hw.server_in_util": max(delta(m, 0) for m in servers) / window,
        "hw.server_out_util": max(delta(m, 1) for m in servers) / window,
        "hw.client_out_util_max": max(delta(m, 1) for m in clients) / window,
        "hw.server_in_ops_per_op": _ratio(sum(delta(m, 2) for m in servers), ops),
        "hw.server_out_ops_per_op": _ratio(sum(delta(m, 3) for m in servers), ops),
        "hw.wire_bytes_per_op": _ratio(
            sum(delta(m, 4) for m in workload.hw.machines), ops
        ),
        "core.remote_reads_per_call": _ratio(reads, calls),
        "core.first_fetch_hit_frac": _ratio(first_hits, calls),
        "core.reply_mode_frac": _ratio(waits, calls),
        "core.late_replies": late,
        "core.server_response_p50_us": float(p50),
        "core.server_response_p99_us": float(p99),
        "kv.hit_rate": _ratio(hits1 - hits0, gets1 - gets0),
        "kv.evictions": evictions1 - evictions0,
        "kv.partition_imbalance": _partition_imbalance(
            workload, before["now"], after["now"]
        ),
    }
    metrics.update(_cluster_metrics(workload, before, after))
    return metrics


def _cluster_metrics(workload, before: dict, after: dict) -> Dict[str, float]:
    names = sorted(after["shards"])
    shard0, shard1 = before["shards"], after["shards"]
    recovery = workload.recovery()
    event = recovery.event if recovery is not None else None
    finished = event is not None and event.finished_at_us is not None
    return {
        "cluster.timeouts": sum(shard1[n][1] - shard0[n][1] for n in names),
        "cluster.rerouted_ops": sum(shard1[n][2] - shard0[n][2] for n in names),
        "cluster.transferred_keys": event.transferred_keys if event else 0,
        "cluster.transfer_batches": event.batches if event else 0,
        "cluster.recovery_us": (
            event.finished_at_us - event.started_at_us if finished else 0.0
        ),
        "cluster.load_imbalance": (
            _imbalance(shard1[n][0] - shard0[n][0] for n in names) if names else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


class PhaseSpans:
    """Trace observer splitting each call into send, server and fetch.

    Subscribed to a :class:`repro.sim.Tracer` that stores nothing, it
    stitches the protocol marks the same way ``repro.bench.breakdown``
    does: *send* runs from the call's start to its request write
    completing, *server* from there to the response being published,
    and *fetch* from there to the result in the client's hands.  Marks
    pair up by (channel, sequence number), which stays unique when the
    cluster reconnects a client under the same name.
    """

    def __init__(self, window_start_us: float, window_end_us: float) -> None:
        self.window = (window_start_us, window_end_us)
        self._sent: Dict[Tuple[int, int], float] = {}
        self._published: Dict[Tuple[int, int], float] = {}
        #: ``(op id, name, start_us, end_us)``; an op's ``call`` span and
        #: its three phase children share the op id.
        self.spans: List[Tuple[int, str, float, float]] = []
        self.totals = [0.0, 0.0, 0.0]
        self.calls = 0

    def __call__(self, event) -> None:
        label = event.label
        data = event.data
        if label == "request_sent":
            self._sent[(data["channel"], data["seq"])] = event.at_us
        elif label == "response_published":
            self._published[(data["client"], data["seq"])] = event.at_us
        elif label == "call_done":
            key = (data["channel"], data["seq"])
            sent = self._sent.pop(key, None)
            published = self._published.pop(key, None)
            if sent is None or published is None:
                return
            done = event.at_us
            started = done - data["latency_us"]
            if started < self.window[0] or done > self.window[1]:
                return
            op = self.calls
            self.calls += 1
            self.totals[0] += sent - started
            self.totals[1] += published - sent
            self.totals[2] += done - published
            self.spans.append((op, "call", started, done))
            self.spans.append((op, "send", started, sent))
            self.spans.append((op, "server", sent, published))
            self.spans.append((op, "fetch", published, done))

    def means(self) -> Dict[str, float]:
        send, server, fetch = (_ratio(t, self.calls) for t in self.totals)
        return {"core.send_us": send, "core.server_us": server, "core.fetch_us": fetch}


def _layer_of(filename: str) -> str:
    if filename.startswith("<") or filename == "~":
        return "other"
    path = os.path.abspath(filename)
    if path.startswith(_PERF_DIR):
        return "bench"
    for layer in ("sim", "hw", "core", "kv", "cluster"):
        if f"{os.sep}repro{os.sep}{layer}{os.sep}" in path:
            return layer
    return "other"


def profile_by_layer(stats: dict) -> Dict[str, Tuple[float, int]]:
    """``pstats.Stats.stats`` grouped into (self seconds, calls) per layer."""
    grouped = {layer: [0.0, 0] for layer in PROFILE_LAYERS}
    for (filename, _line, _name), (_, calls, tottime, _, _) in stats.items():
        entry = grouped[_layer_of(filename)]
        entry[0] += tottime
        entry[1] += calls
    return {layer: (tt, n) for layer, (tt, n) in grouped.items()}


def profile_metrics(
    grouped: Dict[str, Tuple[float, int]], ops: int
) -> Dict[str, float]:
    total = sum(tt for tt, _ in grouped.values())
    metrics: Dict[str, float] = {}
    for layer in PROFILE_LAYERS:
        tt, calls = grouped[layer]
        metrics[f"wall.{layer}.self_frac"] = _ratio(tt, total)
        metrics[f"wall.{layer}.calls_per_op"] = _ratio(calls, ops)
    return metrics
