"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_timestamp_is_fifo():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.schedule(3.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "early")
    sim.schedule(20.0, seen.append, "late")
    sim.run(until=10.0)
    assert seen == ["early"]
    assert sim.peek() == 20.0
    sim.run()
    assert seen == ["early", "late"]


def test_timeout_process_roundtrip():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(3.5)
        return sim.now

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == 3.5


def test_process_return_value_none_by_default():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value is None


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_event_trigger_value_passed_to_waiter():
    sim = Simulator()
    event = sim.event()

    def waiter(sim):
        value = yield event
        return value

    proc = sim.process(waiter(sim))
    sim.schedule(4.0, event.trigger, "payload")
    sim.run()
    assert proc.value == "payload"


def test_wait_on_already_triggered_event():
    sim = Simulator()
    event = sim.event()
    event.trigger(42)

    def waiter(sim):
        value = yield event
        return value

    proc = sim.process(waiter(sim))
    sim.run()
    assert proc.value == 42


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_process_join_returns_child_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return "done"

    def parent(sim):
        result = yield sim.process(child(sim))
        return (result, sim.now)

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == ("done", 2.0)


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as error:
            return str(error)

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == "boom"


def test_unjoined_failure_raises_at_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(child(sim))
    with pytest.raises(SimulationError):
        sim.run()


def assert_yield_fails_at_the_yield(bad, message):
    """On both engines: yielding ``bad`` fails the process with
    ``message``, and the generator can catch the error at its yield."""
    for reference in (False, True):
        sim = Simulator(reference=reference)

        def body(sim):
            yield bad

        sim.process(body(sim))
        with pytest.raises(SimulationError, match="^unhandled failure"):
            sim.run()

        sim = Simulator(reference=reference)
        caught = []

        def catcher(sim):
            try:
                yield bad
            except SimulationError as error:
                caught.append((str(error), sim.now))
            yield 1.0
            return "recovered"

        proc = sim.process(catcher(sim), name="catcher")
        sim.run()
        assert caught == [(message, 0.0)]
        assert (proc.value, sim.now) == ("recovered", 1.0)


def test_yielding_garbage_fails_process():
    assert_yield_fails_at_the_yield(
        "not a waitable", "process 'catcher' yielded str, expected Event or Process"
    )


def test_yielding_number_is_a_timeout():
    # ``yield <float>`` (ints accepted too) is the delay fast path.
    sim = Simulator()
    seen = {}

    def body(sim):
        yield 2.5
        seen["float_at"] = sim.now
        yield 3
        seen["int_at"] = sim.now
        yield 0.0
        seen["zero_at"] = sim.now

    sim.process(body(sim))
    sim.run()
    assert seen == {"float_at": 2.5, "int_at": 5.5, "zero_at": 5.5}


def test_yielding_negative_delay_fails_process():
    assert_yield_fails_at_the_yield(-1.0, "cannot schedule in the past (delay=-1.0)")


def test_anyof_returns_first_completion():
    sim = Simulator()
    first = sim.timeout(5.0, "slow")
    second = sim.timeout(2.0, "fast")

    def body(sim):
        index, value = yield AnyOf(sim, [first, second])
        return (index, value, sim.now)

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == (1, "fast", 2.0)


def test_anyof_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_allof_collects_in_input_order():
    sim = Simulator()
    events = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]

    def body(sim):
        values = yield AllOf(sim, events)
        return (values, sim.now)

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == (["c", "a", "b"], 3.0)


def test_allof_empty_triggers_immediately():
    sim = Simulator()

    def body(sim):
        values = yield AllOf(sim, [])
        return values

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == []


def test_anyof_late_failure_is_defused():
    sim = Simulator()
    ok = sim.timeout(1.0, "ok")
    failing = sim.event()

    def fail_later():
        failing.fail(ValueError("late"))

    sim.schedule(2.0, fail_later)

    def body(sim):
        index, value = yield AnyOf(sim, [ok, failing])
        yield sim.timeout(5.0)
        return (index, value)

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == (0, "ok")


def test_nested_processes_compose():
    sim = Simulator()

    def leaf(sim, delay):
        yield sim.timeout(delay)
        return delay

    def mid(sim):
        total = 0.0
        for delay in (1.0, 2.0):
            total += yield sim.process(leaf(sim, delay))
        return total

    def root(sim):
        value = yield sim.process(mid(sim))
        return value * 2

    proc = sim.process(root(sim))
    sim.run()
    assert proc.value == 6.0
    assert sim.now == 3.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def body(sim):
        sim.run()
        yield sim.timeout(1.0)

    sim.process(body(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        log = []

        def body(sim, tag, delay):
            yield sim.timeout(delay)
            log.append((sim.now, tag))

        for tag in range(50):
            sim.process(body(sim, tag, (tag * 7) % 13 + 0.5))
        sim.run()
        return log

    assert run_once() == run_once()
