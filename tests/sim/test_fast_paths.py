"""Fast-engine machinery: ready deque, merge rule, no-heap-growth paths.

These tests pin the *mechanisms* the speed work relies on — which queue
each operation rides, and that the fast engine's dispatch order and
count are bit-for-bit those of ``Simulator(reference=True)``.  Semantic
coverage of events/processes lives in ``test_core.py``; this file is
allowed to peek at private engine state (``_heap``/``_ready``) because
queue placement *is* the contract under test.
"""

from collections import deque

import pytest

from repro.sim.core import AllOf, Event, Process, Simulator, Timeout


class CountingDeque(deque):
    """Ready deque that counts appends, so a test can tell a resume that
    rode the deque from one the timer ran inline."""

    appends = 0

    def append(self, entry):
        self.appends += 1
        super().append(entry)


def run_both(make_scenario):
    """Run one scenario under both engines; return (trace, trace, sims).
    Each engine's ready deque is a :class:`CountingDeque`."""
    traces = []
    sims = []
    for reference in (False, True):
        sim = Simulator(reference=reference)
        sim._ready = CountingDeque()
        trace = []
        make_scenario(sim, trace)
        sim.run()
        traces.append(trace)
        sims.append(sim)
    return traces[0], traces[1], sims


# ----------------------------------------------------------------------
# Queue placement: what rides the ready deque, what rides the heap
# ----------------------------------------------------------------------


class TestQueuePlacement:
    def test_zero_delay_schedule_skips_heap(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_positive_delay_schedule_uses_heap(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert len(sim._heap) == 1
        assert len(sim._ready) == 0

    def test_wait_on_done_event_skips_heap(self):
        sim = Simulator()
        done = Event(sim).trigger(7)
        done.wait(lambda event: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_empty_allof_skips_heap(self):
        sim = Simulator()
        AllOf(sim, [])
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_trigger_waiters_skip_heap(self):
        sim = Simulator()
        event = Event(sim)
        event.wait(lambda e: None)
        event.wait(lambda e: None)
        event.trigger()
        assert len(sim._heap) == 0
        assert len(sim._ready) == 2

    def test_zero_delay_timeout_skips_heap(self):
        sim = Simulator()
        sim.timeout(0.0)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1

    def test_positive_timeout_is_one_heap_entry(self):
        sim = Simulator()
        timeout = sim.timeout(2.0)
        assert isinstance(timeout, Timeout)
        assert len(sim._heap) == 1
        assert len(sim._ready) == 0

    def test_yield_zero_delay_skips_heap(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append("before")
            yield 0.0
            steps.append("after")
            assert len(sim._heap) == 0

        sim.process(proc())
        sim.run()
        assert steps == ["before", "after"]

    def test_reference_mode_routes_everything_through_heap(self):
        sim = Simulator(reference=True)
        sim.schedule(0.0, lambda: None)
        Event(sim).trigger().wait(lambda e: None)
        timeout = sim.timeout(1.0)
        assert not isinstance(timeout, Timeout)
        assert len(sim._ready) == 0
        assert len(sim._heap) == 3


# ----------------------------------------------------------------------
# The (time, seq) merge rule
# ----------------------------------------------------------------------


class TestMergeRule:
    def test_due_heap_entry_with_smaller_seq_preempts_ready(self):
        # Arm a heap timer for t=1 (seq 1), then at t=1 have a callback
        # append ready work (seq 3).  A second heap timer armed at t=1
        # *before* the ready append (seq 2) must dispatch between them.
        def scenario(sim, trace):
            sim.schedule(1.0, lambda: trace.append("first"))  # seq 1
            sim.schedule(1.0, lambda: trace.append("armed-early"))  # seq 2

            # Rebind: "first" also enqueues zero-delay work (seq 3+).
            def first_fires():
                trace.append("first")
                sim.schedule(0.0, lambda: trace.append("ready-late"))

            sim._heap[0] = (1.0, 1, first_fires, ())

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == ["first", "armed-early", "ready-late"]
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_ready_fifo_order_is_stable(self):
        def scenario(sim, trace):
            for index in range(5):
                sim.schedule(0.0, trace.append, index)

        fast, reference, _ = run_both(scenario)
        assert fast == [0, 1, 2, 3, 4]
        assert fast == reference

    def test_peek_with_pending_ready_work_is_now(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.peek() is None
        sim.schedule(0.0, lambda: None)
        assert sim.peek() == sim.now == 3.0

    def test_peek_heap_only_reports_deadline(self):
        sim = Simulator()
        sim.schedule(4.5, lambda: None)
        assert sim.peek() == 4.5


# ----------------------------------------------------------------------
# Inline resume of direct-delay timers
# ----------------------------------------------------------------------


def _sleeper(sim, trace, delay=1.0):
    def body():
        yield delay
        trace.append(("resumed", sim.now))

    return sim.process(body())


class TestInlineResume:
    def test_nothing_else_due_resumes_without_the_deque(self):
        def scenario(sim, trace):
            _sleeper(sim, trace)

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference == [("resumed", 1.0)]
        # The only append is the process's start step: the timer ran
        # the resume itself instead of queueing it.
        assert sim_fast._ready.appends == 1
        assert sim_fast.dispatched == sim_ref.dispatched == 3

    def test_heap_entry_armed_earlier_for_same_instant_runs_first(self):
        def scenario(sim, trace):
            def body():
                yield 1.0  # timer seq taken at t=0
                trace.append("resumed")

            def arm():
                # Armed after the timer, before it fires: its seq is
                # smaller than the resume's, so it must run first.
                sim.schedule(1.0, trace.append, "armed-early")

            sim.process(body())
            sim.schedule(0.0, arm)

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference == ["armed-early", "resumed"]
        # Start step, the arming callback, and the queued resume.
        assert sim_fast._ready.appends == 3
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_timer_popped_by_merge_rule_queues_behind_ready_work(self):
        def scenario(sim, trace):
            def first():
                # Ready work at t=1 whose seq is newer than the timer's:
                # the merge rule pops the timer while this is pending.
                sim.schedule(0.0, trace.append, "ready-work")

            sim.schedule(1.0, first)  # seq 1, before the timer
            _sleeper(sim, trace)  # its timer is armed at t=0 (seq 3)

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference == ["ready-work", ("resumed", 1.0)]
        # Start step, the ready work, and the resume queued behind it.
        assert sim_fast._ready.appends == 3
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_zero_delay_yield_resumes_inline_when_last_in_deque(self):
        def scenario(sim, trace):
            _sleeper(sim, trace, delay=0.0)

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference == [("resumed", 0.0)]
        # Start step and the zero-delay timer; no resume append.
        assert sim_fast._ready.appends == 2
        assert sim_fast.dispatched == sim_ref.dispatched


# ----------------------------------------------------------------------
# Engine equivalence on a mixed workload
# ----------------------------------------------------------------------


def _mixed_scenario(sim, trace):
    """Timers, zero delays, events, processes, direct delays — entwined."""
    gate = Event(sim)

    def worker(worker_id, delay):
        yield sim.timeout(delay)
        trace.append(("woke", worker_id, sim.now))
        yield 0.0
        trace.append(("stepped", worker_id, sim.now))
        value = yield gate
        trace.append(("gated", worker_id, value, sim.now))
        return worker_id

    def opener():
        yield 1.5
        gate.trigger("open")
        trace.append(("opened", sim.now))

    workers = [sim.process(worker(i, 0.5 + 0.5 * (i % 3))) for i in range(6)]

    def joiner():
        results = yield AllOf(sim, workers)
        trace.append(("joined", tuple(results), sim.now))

    sim.process(opener())
    sim.process(joiner())


class TestEngineEquivalence:
    def test_dispatch_order_and_count_match_reference(self):
        fast, reference, (sim_fast, sim_ref) = run_both(_mixed_scenario)
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched > 0
        assert sim_fast.now == sim_ref.now

    def test_direct_delay_matches_reference(self):
        def scenario(sim, trace):
            def proc(delays):
                for delay in delays:
                    yield delay
                    trace.append(round(sim.now, 6))

            sim.process(proc([0.5, 0, 1.5, 0.0, 2]))
            sim.process(proc([1.0, 1.0]))

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference
        assert sim_fast.dispatched == sim_ref.dispatched

    def test_direct_delay_failure_matches_reference(self):
        def scenario(sim, trace):
            def proc():
                try:
                    yield -0.5
                except Exception as exc:  # noqa: BLE001 - recording type
                    trace.append(type(exc).__name__)
                    raise

            process = sim.process(proc())
            process.done.wait(lambda event: trace.append(event.ok))

        fast, reference, _ = run_both(scenario)
        assert fast == reference == ["SimulationError", False]

    def test_event_churn_cascade_matches_reference(self):
        # A zero-delay completion cascade over a backlog of parked
        # timers: the regime the ready deque exists for, where the
        # reference engine pays two heap operations per step.
        rounds, backlog = 500, 2_000

        def scenario(sim, trace):
            for index in range(backlog):
                sim.timeout(1e6 + index)
            done = Event(sim).trigger()
            remaining = [rounds]

            def fire(event):
                trace.append((sim.now, remaining[0]))
                if remaining[0] > 0:
                    remaining[0] -= 1
                    done.wait(fire)

            done.wait(fire)

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference
        assert len(fast) == rounds + 1
        # One dispatch per wait on the done event, one per parked timer.
        assert sim_fast.dispatched == sim_ref.dispatched == rounds + 1 + backlog
        assert sim_fast.now == sim_ref.now == 1e6 + backlog - 1
        # The fast engine runs the whole cascade off the deque.
        assert sim_fast._ready.appends == rounds + 1
        assert sim_ref._ready.appends == 0

    def test_timeout_storm_matches_reference(self):
        # Processes sleeping on staggered timeouts: many wakes share a
        # timestamp, so the order among them is the seq tie-break.
        processes, wakes = 64, 20

        def scenario(sim, trace):
            def sleeper(index, delay):
                for _ in range(wakes):
                    yield sim.timeout(delay)
                    trace.append((index, sim.now))

            for index in range(processes):
                sim.process(sleeper(index, 0.5 + (index % 16) * 0.25))

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        assert fast == reference
        assert len(fast) == processes * wakes
        # A start step per process, then a fire and a resume per wake.
        assert (
            sim_fast.dispatched
            == sim_ref.dispatched
            == processes * (1 + 2 * wakes)
        )
        assert sim_fast.now == sim_ref.now


# ----------------------------------------------------------------------
# Timeout fast-path semantics
# ----------------------------------------------------------------------


class TestTimeoutSemantics:
    def test_manual_trigger_then_fire_raises(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        timeout.trigger("early")
        with pytest.raises(Exception, match="triggered twice"):
            sim.run()

    # One waiter sits in the event's slot, a second promotes the slot to
    # a list, and a third appends to the list.
    @pytest.mark.parametrize("waiters", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["event", "timeout", "failed-event"])
    def test_waiters_resume_in_wait_order(self, kind, waiters):
        names = "abc"[:waiters]

        def scenario(sim, trace):
            if kind == "timeout":
                waited = sim.timeout(1.0, value="v")
            else:
                waited = sim.event()
                if kind == "event":
                    sim.schedule(1.0, waited.trigger, "v")
                else:
                    sim.schedule(1.0, waited.fail, RuntimeError("v"))

            def waiter(event, name):
                outcome = event.value if event.ok else "failed"
                trace.append((name, outcome, sim.now))

            for name in names:
                waited.wait(lambda event, name=name: waiter(event, name))

        fast, reference, (sim_fast, sim_ref) = run_both(scenario)
        outcome = "failed" if kind == "failed-event" else "v"
        assert fast == reference == [(name, outcome, 1.0) for name in names]
        assert sim_fast.dispatched == sim_ref.dispatched == 1 + waiters

    def test_wait_after_fire_resumes_via_ready(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        sim.run()
        assert timeout.triggered
        timeout.wait(lambda e: None)
        assert len(sim._heap) == 0
        assert len(sim._ready) == 1
