"""Exact pins of the closed-loop harness entry points.

The figures print rounded numbers, so a change to the measurement loop
that moves one completion, one latency sample or one engine event can
pass every shape test unnoticed.  These pins are exact: each entry point
runs at a tiny scale (a 300 µs window) on a simulator passed in, and the
test pins the operations completed, the engine's dispatch count, and a
SHA-256 over the float64 latency samples.

The raw-verb probes and the bypass measurement return MOPS, not samples,
so their pins are the exact MOPS (completions over the measured window)
with the dispatch count; the paradigm and cluster drivers' pins are
their metrics.  A change that keeps every modeled number keeps these; a
change that moves the model on purpose updates them and says why.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.calibration import (
    measure_bypass,
    measure_inbound_iops,
    measure_outbound_iops,
)
from repro.bench.harness import Scale, run_controlled_process_time, run_kv
from repro.exp.observers import RunObserver
from repro.exp.runner import ExperimentRunner, default_observers
from repro.exp.spec import ExperimentSpec, Phase
from repro.sim import Simulator
from repro.workloads import WorkloadSpec

TINY = Scale(window_us=300.0, records=256)


def digest(samples) -> str:
    return hashlib.sha256(np.asarray(samples, dtype=np.float64).tobytes()).hexdigest()


#: system -> (operations, sim.dispatched, sha256 of the latencies,
#: replies sent, requests served, fetch attempts recorded).
KV_PINS = {
    "jakiro": (
        485,
        13_953,
        "979b87973de05b2c47c8d5342e2efcd827d59fec6d876111ee2ffb348b25caf0",
        0,
        651,
        646,
    ),
    "serverreply": (
        459,
        12_295,
        "2b9f45fa7913b64bfaec19a8750eb3d53cd8663826383bf78e9003b8a6549218",
        614,
        614,
        0,
    ),
    "memcached": (
        36,
        1_001,
        "3f7cddeda6fa153a892a7f5ded20eed519ae373c8a34c51776103bcef6b4b40f",
        45,
        45,
        0,
    ),
    "pilaf": (
        350,
        8_328,
        "6c32758feb7b88ca53e74987ed3cf31cafb174e23694b9520b92874a9a3a77a6",
        0,
        0,
        0,
    ),
}

#: mode -> (operations, sim.dispatched, sha256 of the latencies,
#: clients left in server-reply mode), at a 4 µs process time.
CONTROLLED_PINS = {
    "rfp": (
        100,
        3_328,
        "23ebf9d453912faf525d560fa10c4499f79a2ad39774ecfec566424661511fe8",
        6.0,
    ),
    "rfp-no-switch": (
        105,
        10_218,
        "f9ee204508e50e370e1ecf4e1c5d4cc21f2e6d2846963d61e4b5f3ff80c36952",
        0.0,
    ),
    "serverreply": (
        100,
        2_690,
        "a8c5a1071f70049d23734d80dd5311f294deb9654a9c9231e18c1c5ea233d009",
        6.0,
    ),
}


@pytest.mark.parametrize("system", sorted(KV_PINS))
def test_run_kv_pinned(system):
    sim = Simulator()
    result = run_kv(
        system,
        WorkloadSpec(records=256, get_fraction=0.5),
        server_threads=2,
        client_threads=6,
        scale=TINY,
        sim=sim,
    )
    assert (
        result.operations_completed,
        sim.dispatched,
        digest(result.latency_us),
        result.replies_sent,
        result.requests_served,
        len(result.fetch_attempts),
    ) == KV_PINS[system]
    assert result.throughput_mops == result.operations_completed / 225.0


@pytest.mark.parametrize("mode", sorted(CONTROLLED_PINS))
def test_controlled_process_time_pinned(mode):
    sim = Simulator()
    result = run_controlled_process_time(
        mode, 4.0, server_threads=2, client_threads=6, scale=TINY, sim=sim
    )
    assert (
        result.operations_completed,
        sim.dispatched,
        digest(result.latency_us),
        result.extras["clients_in_reply_mode"],
    ) == CONTROLLED_PINS[mode]


class _LastContext(RunObserver):
    """Keeps the finished condition's context: simulator and checkers."""

    def condition_finished(self, context, outcome, index, total):
        self.context = context


def run_paradigm_condition(**base):
    """One checked ``paradigm`` condition at TINY scale."""
    last = _LastContext()
    spec = ExperimentSpec(
        experiment_id="pin-paradigm", title="paradigm", driver="paradigm", base=base
    )
    runner = ExperimentRunner(observers=(*default_observers(), last))
    (outcome,) = runner.run(spec, TINY).outcomes
    return outcome.metrics, last.context


def test_breakdown_pinned():
    # The phases are stitched from the echo run's trace by (channel, seq);
    # any mispairing moves them even though they still sum to the total.
    metrics, _ = run_paradigm_condition(paradigm="RFP", process_us=2.0)
    assert {
        name: metrics[name]
        for name in ("send_us", "server_us", "fetch_us", "total_us", "split_calls")
    } == {
        "send_us": 2.786078534114875,
        "server_us": 8.128498881150362,
        "fetch_us": 2.259371170853017,
        "total_us": 13.173948586118252,
        "split_calls": 778,
    }


def test_herd_condition_pinned():
    # ext-ud-rpc's lossiest HERD condition; HERD publishes no RFP trace.
    metrics, context = run_paradigm_condition(
        paradigm="herd",
        process_us=0.2,
        server_threads=6,
        response_bytes=16,
        loss_probability=0.05,
    )
    assert (
        metrics["operations"],
        context.simulator.dispatched,
        metrics["retransmits"],
    ) == (808, 27_450, 123)
    assert context.tracers == {}


def test_serverreply_condition_runs_checked():
    # Fig. 9's server-reply side at P = 1 us.  Its channels are checked
    # from SERVER_REPLY with F = 16: from REMOTE_FETCH, every pushed
    # reply would be a violation.
    metrics, context = run_paradigm_condition(
        paradigm="server-reply",
        process_us=1.0,
        server_threads=16,
        response_bytes=1,
        fetch_size=16,
    )
    assert (metrics["operations"], context.simulator.dispatched) == (424, 11_728)
    checker = context.checkers["rfp"]
    assert checker.config.fetch_size == 16
    assert (checker.events_checked, checker.violations) == (2_890, [])


def test_raw_verb_probes_pinned():
    sim = Simulator()
    # 894 reads over the 225 µs measured window.
    assert measure_inbound_iops(6, window_us=300.0, sim=sim) == 3.973333333333333
    assert sim.dispatched == 7_142
    sim = Simulator()
    # 475 writes over 225 µs.
    assert measure_outbound_iops(3, window_us=300.0, sim=sim) == 2.111111111111111
    assert sim.dispatched == 3_797


def test_bypass_measurement_pinned():
    sim = Simulator()
    run = measure_bypass(4, 6, 300.0, 0.25, sim=sim)
    assert tuple(run) == (0.9866666666666667, 222, 1_188)
    assert sim.dispatched == 7_142


def test_two_phase_ledger_condition_pinned():
    spec = ExperimentSpec(
        experiment_id="pin-ledger",
        title="two-phase ledger",
        driver="cluster",
        base={
            "kind": "ledger",
            "value_bytes": 64,
            "records": 96,
            "machines": 6,
            "shards": 2,
            "replication_factor": 1,
            "client_threads": 8,
            "phases": (Phase("pre", 0.25, 0.5), Phase("post", 0.5, 1.0)),
        },
    )
    result = ExperimentRunner(observers=default_observers()).run(spec, TINY)
    assert dict(result.outcomes[0].metrics) == {
        "pre_mops": 2.973333333333333,
        "post_mops": 2.986666666666667,
        "dispatched": 20_675,
    }
