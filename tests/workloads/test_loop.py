"""ClosedLoop: window and phase boundaries, thread life cycle, failures,
and parity with the hand-written loop it replaced."""

import numpy as np
import pytest

from repro.errors import KVError, WorkloadError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.sim import SimulationError, Simulator
from repro.workloads import ClosedLoop, WorkloadSpec, YcsbWorkload, kv_operations, repeat


def fixed(delay):
    """A stub operation that takes exactly ``delay`` µs."""
    yield delay


def run_fixed(window, warmup, phases=None, delay=10.0):
    """One thread of back-to-back 10 µs operations: completions land at
    10, 20, ..., so the window and phase edges fall on completions."""
    sim = Simulator()
    loop = ClosedLoop(sim, window, warmup, phases)
    loop.spawn(repeat(fixed, delay))
    loop.run()
    return sim, loop


class TestBoundaries:
    def test_completions_before_the_warmup_count_nowhere(self):
        _, loop = run_fixed(100.0, 35.0)
        # 40, 50, ..., 100: seven completions, seven latencies.
        assert loop.completions() == 7
        assert loop.latency_us.count == 7

    def test_completion_at_the_warmup_instant_counts_in_both(self):
        _, loop = run_fixed(100.0, 30.0)
        # 30 is the warm-up instant: it counts in the meter and keeps
        # its latency, as do 40 ... 100.
        assert loop.completions() == 8
        assert list(loop.latency_us.samples) == [10.0] * 8

    def test_completion_at_the_window_end_counts(self):
        sim, loop = run_fixed(100.0, 0.0)
        assert sim.now == 100.0
        assert loop.completions() == 10
        assert loop.mops() == 10 / 100.0

    def test_mops_divides_by_the_phase_length(self):
        _, loop = run_fixed(100.0, 30.0)
        assert loop.mops() == 8 / (100.0 - 30.0)

    def test_two_phases_count_independently(self):
        _, loop = run_fixed(100.0, 0.0, phases=[("a", 0.0, 50.0), ("b", 50.0, 100.0)])
        # 50 sits on both edges and counts in both phases.
        assert loop.completions(0) == 5
        assert loop.completions(1) == 6
        assert loop.mops(0) == 5 / 50.0
        assert loop.mops(1) == 6 / 50.0
        assert loop.phases == (("a", 0.0, 50.0), ("b", 50.0, 100.0))

    def test_default_phase_runs_from_warmup_to_window(self):
        _, loop = run_fixed(100.0, 25.0)
        assert loop.phases == (("run", 25.0, 100.0),)


class TestThreads:
    def test_finite_stream_ends_its_thread(self):
        sim = Simulator()
        loop = ClosedLoop(sim, 100.0, 0.0)
        thread = loop.spawn([fixed(10.0), fixed(5.0)], name="short")
        loop.run()
        assert thread.finished
        assert thread.name == "short"
        assert loop.completions() == 2
        assert list(loop.latency_us.samples) == [10.0, 5.0]

    def test_operation_failure_surfaces_like_a_hand_written_loop(self):
        def failing(sim):
            yield 3.0
            raise KVError("store exploded")

        def hand_written(sim):
            while True:
                yield from failing(sim)

        def failure(start):
            sim = Simulator()
            with pytest.raises(SimulationError) as info:
                start(sim)
            return sim.now, str(info.value), type(info.value.__cause__), str(
                info.value.__cause__
            )

        def via_loop(sim):
            loop = ClosedLoop(sim, 100.0, 0.0)
            loop.spawn(repeat(failing, sim))
            loop.run()

        def by_hand(sim):
            sim.process(hand_written(sim))
            sim.run(until=100.0)

        assert failure(via_loop) == failure(by_hand)
        assert failure(via_loop)[2] is KVError


class TestRefusals:
    @staticmethod
    def refused(call):
        with pytest.raises(WorkloadError) as info:
            call()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("window", [0.0, -1.0, float("inf"), float("nan")])
    def test_window_must_be_finite_and_positive(self, window):
        self.refused(lambda: ClosedLoop(Simulator(), window, 0.0))

    @pytest.mark.parametrize("warmup", [-0.5, 100.0, 150.0, float("nan")])
    def test_warmup_must_lie_in_the_window(self, warmup):
        self.refused(lambda: ClosedLoop(Simulator(), 100.0, warmup))

    @pytest.mark.parametrize(
        "phase", [("late", 50.0, 101.0), ("early", -1.0, 50.0), ("empty", 40.0, 40.0)]
    )
    def test_phase_must_be_non_empty_inside_the_window(self, phase):
        self.refused(lambda: ClosedLoop(Simulator(), 100.0, 0.0, phases=[phase]))

    def test_run_needs_a_thread(self):
        self.refused(ClosedLoop(Simulator(), 100.0, 0.0).run)


# ----------------------------------------------------------------------
# Parity with the loop run_kv used to write out by hand
# ----------------------------------------------------------------------

WINDOW = 400.0
WARMUP = WINDOW * 0.25
CLIENTS = 4


def jakiro_setup():
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(sim, cluster, threads=2)
    workload = YcsbWorkload(WorkloadSpec(records=256, get_fraction=0.5))
    jakiro.preload(workload.dataset())
    return sim, cluster, jakiro, workload


def reference_run():
    """The hand-written loop body, as ``run_kv`` wrote it out."""
    from repro.sim import ThroughputMeter

    sim, cluster, jakiro, workload = jakiro_setup()
    meter = ThroughputMeter(window_start=WARMUP, window_end=WINDOW)
    latencies = []

    def client_loop(sim, client, operations):
        for operation in operations:
            began = sim.now
            if operation.is_get:
                yield from client.get(operation.key)
            else:
                yield from client.put(operation.key, operation.value)
            now = sim.now
            meter.record(now)
            if now >= WARMUP:
                latencies.append(now - began)

    machines = cluster.client_machines
    for index in range(CLIENTS):
        client = jakiro.connect(machines[index % len(machines)])
        operations = workload.operations(f"client-{index}")
        sim.process(client_loop(sim, client, operations), name=f"driver-{index}")
    sim.run(until=WINDOW)
    return sim.dispatched, meter.completions, np.asarray(latencies, dtype=float)


def closed_loop_run():
    sim, cluster, jakiro, workload = jakiro_setup()
    loop = ClosedLoop(sim, WINDOW, WARMUP)
    machines = cluster.client_machines
    for index in range(CLIENTS):
        client = jakiro.connect(machines[index % len(machines)])
        operations = kv_operations(client, workload.operations(f"client-{index}"))
        loop.spawn(operations, name=f"driver-{index}")
    loop.run()
    return sim.dispatched, loop.completions(), np.asarray(loop.latency_us.samples)


def test_parity_with_the_hand_written_loop():
    dispatched, completions, latencies = reference_run()
    got_dispatched, got_completions, got_latencies = closed_loop_run()
    assert completions > 0
    assert got_dispatched == dispatched
    assert got_completions == completions
    assert np.array_equal(got_latencies, latencies)
