"""Edge-case tests for the event engine left uncovered elsewhere."""

import gc
import traceback
import weakref

import pytest

from repro.sim import AllOf, AnyOf, Event, ServiceStation, SimulationError, Simulator

NAN = float("nan")
ENGINES = pytest.mark.parametrize("reference", [False, True], ids=["fast", "reference"])


class TestEventEdgeCases:
    def test_synchronous_wait_after_fail_defuses(self):
        """Subscribing (synchronously) to an already-failed event observes
        the failure and stops it escalating at the next timestep."""
        sim = Simulator()
        event = sim.event()
        event.fail(ValueError("early"))
        seen = []
        event.wait(lambda e: seen.append(type(e._exc).__name__))
        sim.run()  # must not raise: the failure was observed
        assert seen == ["ValueError"]

    def test_unobserved_failure_escalates_at_its_timestep(self):
        """Nobody can 'wait later': an unobserved failure raises when its
        timestep drains, so bugs never pass silently."""
        sim = Simulator()
        event = sim.event()
        event.fail(ValueError("lost"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_fail_then_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            event.trigger()
        # Consume the failure so run() does not escalate it.
        event._defused = True
        sim.run()

    def test_ok_property(self):
        sim = Simulator()
        event = sim.event()
        assert not event.ok
        event.trigger(1)
        assert event.ok

    def test_multiple_waiters_all_resumed(self):
        sim = Simulator()
        event = sim.event()
        results = []

        def waiter(sim, tag):
            value = yield event
            results.append((tag, value))

        for tag in range(5):
            sim.process(waiter(sim, tag))
        sim.schedule(2.0, event.trigger, "go")
        sim.run()
        assert results == [(tag, "go") for tag in range(5)]

    def test_timeout_with_payload(self):
        sim = Simulator()

        def body(sim):
            return (yield sim.timeout(1.0, value={"k": 1}))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == {"k": 1}


class TestProcessEdgeCases:
    def test_process_name_defaults_to_generator_name(self):
        sim = Simulator()

        def my_worker(sim):
            yield sim.timeout(1.0)

        proc = sim.process(my_worker(sim))
        assert proc.name == "my_worker"
        sim.run()

    def test_explicit_name_wins(self):
        sim = Simulator()

        def body(sim):
            yield sim.timeout(1.0)

        proc = sim.process(body(sim), name="custom")
        assert proc.name == "custom"
        sim.run()

    def test_finished_flag(self):
        sim = Simulator()

        def body(sim):
            yield sim.timeout(1.0)

        proc = sim.process(body(sim))
        assert not proc.finished
        sim.run()
        assert proc.finished

    def test_immediate_return_process(self):
        sim = Simulator()

        def body(sim):
            return 42
            yield  # pragma: no cover - makes this a generator

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 42

    def test_exception_before_first_yield(self):
        sim = Simulator()

        def body(sim):
            raise RuntimeError("instant")
            yield  # pragma: no cover

        def parent(sim):
            try:
                yield sim.process(body(sim))
            except RuntimeError as error:
                return str(error)

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "instant"


class TestCompositeEdgeCases:
    def test_anyof_with_processes(self):
        sim = Simulator()

        def slow(sim):
            yield sim.timeout(10.0)
            return "slow"

        def fast(sim):
            yield sim.timeout(1.0)
            return "fast"

        def body(sim):
            index, value = yield AnyOf(sim, [sim.process(slow(sim)), sim.process(fast(sim))])
            return index, value

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (1, "fast")

    def test_allof_failure_propagates(self):
        sim = Simulator()
        good = sim.timeout(1.0, "ok")
        bad = sim.event()
        sim.schedule(2.0, bad.fail, ValueError("boom"))

        def body(sim):
            try:
                yield AllOf(sim, [good, bad])
            except ValueError as error:
                return str(error)

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "boom"

    def test_anyof_ties_resolve_to_first_listed(self):
        sim = Simulator()
        first = sim.timeout(3.0, "a")
        second = sim.timeout(3.0, "b")

        def body(sim):
            return (yield AnyOf(sim, [first, second]))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (0, "a")

    def test_peek_after_drain_is_none(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.peek() is None


class TestNaNTimesRejected:
    """NaN slips past every ``< 0`` check; the engine must refuse it
    rather than key a heap entry or the clock on it."""

    @ENGINES
    def test_schedule_nan(self, reference):
        sim = Simulator(reference=reference)
        with pytest.raises(SimulationError):
            sim.schedule(NAN, lambda: None)
        assert sim.peek() is None

    @ENGINES
    def test_timeout_nan(self, reference):
        sim = Simulator(reference=reference)
        with pytest.raises(SimulationError):
            sim.timeout(NAN)
        assert sim.peek() is None

    @ENGINES
    def test_yield_nan_fails_the_process(self, reference):
        sim = Simulator(reference=reference)
        seen = []

        def body(sim):
            try:
                yield NAN
            except SimulationError:
                seen.append(sim.now)
                raise

        proc = sim.process(body(sim))
        proc.done.wait(lambda event: None)  # observe the failure
        sim.run()
        assert seen == [0.0]
        assert not proc.done.ok
        assert sim.now == 0.0

    @ENGINES
    def test_station_occupy_nan(self, reference):
        sim = Simulator(reference=reference)
        station = ServiceStation(sim)
        with pytest.raises(SimulationError):
            station.occupy(NAN)
        assert station.backlog() == 0.0
        assert station.occupy(1.0) == 1.0

    @ENGINES
    def test_run_until_nan(self, reference):
        sim = Simulator(reference=reference)
        seen = []
        sim.schedule(1.0, seen.append, "ran")
        with pytest.raises(SimulationError):
            sim.run(until=NAN)
        # The engine is not left marked as running, and still works.
        sim.run()
        assert seen == ["ran"]


class TestRunUntilBound:
    @ENGINES
    def test_run_until_before_now_rejected(self, reference):
        """A bound in the past used to return silently, with the clock
        and the queue left as they were."""
        sim = Simulator(reference=reference)

        def body(sim):
            yield 5.0
            yield 5.0

        sim.process(body(sim))
        sim.run(until=8.0)
        with pytest.raises(SimulationError, match="before the current time"):
            sim.run(until=3.0)
        assert sim.now == 8.0
        assert sim.peek() == 10.0
        sim.run()
        assert sim.now == 10.0

    @ENGINES
    def test_run_until_now_dispatches_what_is_due(self, reference):
        sim = Simulator(reference=reference)
        seen = []
        sim.run(until=4.0)
        sim.schedule(0.0, seen.append, "due")
        sim.run(until=4.0)
        assert seen == ["due"]
        assert sim.now == 4.0


class TestProcessDeadline:
    """``Process.deadline`` completes ``done`` unless the generator
    finished first; a process past it runs on, detached."""

    @staticmethod
    def race(reference, work_us, outcome):
        """Run a process that works ``work_us`` then returns or raises
        ``outcome`` under a 5 us deadline; return what a waiter saw,
        when, and what the process itself did."""
        sim = Simulator(reference=reference)
        log = []

        def work(sim):
            try:
                yield work_us
            finally:
                log.append(("worker ended", sim.now))
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        def waiter(sim):
            proc = sim.process(work(sim))
            proc.deadline(5.0, "timed out")
            log.append(((yield proc.done), sim.now))

        sim.process(waiter(sim))
        sim.run()
        return log

    @ENGINES
    def test_finished_before_the_deadline(self, reference):
        log = self.race(reference, 3.0, "value")
        assert log == [("worker ended", 3.0), ("value", 3.0)]

    @ENGINES
    def test_deadline_first_and_late_value_dropped(self, reference):
        log = self.race(reference, 9.0, "late")
        assert log == [("timed out", 5.0), ("worker ended", 9.0)]

    @ENGINES
    def test_exact_tie_resolves_to_the_deadline(self, reference):
        log = self.race(reference, 5.0, "value")
        assert log == [("timed out", 5.0), ("worker ended", 5.0)]

    @ENGINES
    def test_late_failure_dropped_without_escalation(self, reference):
        log = self.race(reference, 9.0, ValueError("late"))
        assert log == [("timed out", 5.0), ("worker ended", 9.0)]

    @ENGINES
    def test_failure_before_the_deadline_reaches_the_waiter(self, reference):
        with pytest.raises(SimulationError) as info:
            self.race(reference, 3.0, ValueError("early"))
        assert isinstance(info.value.__cause__, ValueError)

    @staticmethod
    def idle(sim):
        yield 10.0

    @ENGINES
    @pytest.mark.parametrize("delay", [0.0, -1.0, NAN])
    def test_non_positive_or_nan_delay_rejected(self, reference, delay):
        sim = Simulator(reference=reference)
        proc = sim.process(self.idle(sim))
        with pytest.raises(SimulationError, match="deadline delay must be positive"):
            proc.deadline(delay, "timed out")
        sim.run()
        assert (proc.done.value, sim.now) == (None, 10.0)

    @ENGINES
    def test_equal_deadline_instants_dispatch_in_seq_order(self, reference):
        """Two deadlines of one delay armed at one instant share a FIFO,
        so the second reaches the heap only when the first fires, keyed
        that very instant.  An entry armed between them still runs
        between them, and the first one's waiter, scheduled when it
        fired, resumes after both."""
        sim = Simulator(reference=reference)
        log = []

        def waiter(sim, proc):
            log.append(((yield proc.done), sim.now, second.done.triggered))

        first = sim.process(self.idle(sim))
        first.deadline(2.0, "first")
        sim.schedule(
            2.0,
            lambda: log.append(("between", first.done.triggered, second.done.triggered)),
        )
        second = sim.process(self.idle(sim))
        second.deadline(2.0, "second")
        sim.process(waiter(sim, first))
        sim.process(waiter(sim, second))
        sim.run(until=2.0)
        assert log == [
            ("between", True, False),
            ("first", 2.0, True),
            ("second", 2.0, True),
        ]

    @ENGINES
    def test_finished_calls_deadlines_behind_the_head_are_dropped(self, reference):
        """The head of a FIFO fires even when its call finished (a no-op
        dispatch); the finished calls queued behind it go undispatched,
        and neither ``peek`` nor an unbounded ``run`` sees them."""
        sim = Simulator(reference=reference)

        def quick(sim):
            yield 1.0

        def arm_every_half(sim):
            for _ in range(3):
                sim.process(quick(sim)).deadline(10.0, "timed out")
                yield 0.5

        sim.process(arm_every_half(sim))
        sim.run(until=5.0)
        assert sim.peek() == 10.0
        before = sim.dispatched
        sim.run()
        # Only the head's entry dispatched; the clock stops at its instant,
        # not at the last finished call's 11.0.
        assert (sim.dispatched - before, sim.now, sim.peek()) == (1, 10.0, None)


@pytest.fixture()
def no_collector():
    """Reference counting only: a cycle would outlive the test."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestProcessLifetime:
    @ENGINES
    def test_finished_process_freed_at_once(self, reference, no_collector):
        sim = Simulator(reference=reference)

        def body(sim):
            yield 1.0
            return "value"

        generator = body(sim)
        proc = sim.process(generator)
        refs = (weakref.ref(proc), weakref.ref(generator))
        done = proc.done
        del proc, generator
        sim.run(until=1.0)
        assert [ref() for ref in refs] == [None, None]
        assert done.value == "value"

    @staticmethod
    def doomed(sim):
        yield 1.0
        raise ValueError("boom")

    @ENGINES
    def test_failed_process_freed_and_keeps_its_frames(self, reference, no_collector):
        sim = Simulator(reference=reference)
        proc = sim.process(self.doomed(sim))
        ref = weakref.ref(proc)
        done = proc.done
        del proc
        done.wait(lambda event: None)  # observe the failure
        sim.run()
        assert ref() is None
        # The engine's stepping frame is dropped; the generator's is kept.
        frames = traceback.extract_tb(done._exc.__traceback__)
        assert [frame.name for frame in frames] == ["doomed"]

    @ENGINES
    def test_unhandled_failure_report_names_the_generator(self, reference):
        sim = Simulator(reference=reference)
        sim.process(self.doomed(sim))
        with pytest.raises(SimulationError, match="unhandled failure") as info:
            sim.run()
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        frames = traceback.extract_tb(cause.__traceback__)
        assert [frame.name for frame in frames] == ["doomed"]
