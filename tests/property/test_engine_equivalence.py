"""Property: the fast engine is observationally identical to the
reference engine on randomly generated process/waitable DAGs.

Hypothesis draws a small program — a set of processes, each a random
sequence of operations over direct delays, timeouts, shared events,
``AnyOf``/``AllOf`` composites, joins on other processes, deadline
races and failed events — and runs it under ``Simulator()`` and
``Simulator(reference=True)``.  The full observable history (every
step's ``(process, op, value, now)``), how the run ended, the final
clock, and the total dispatch count must match exactly.  A failure
nobody waits on escalates out of ``run()``; both engines must escalate
at the same dispatch.  Delays are drawn from a tiny grid so
same-timestamp collisions (the regime where ordering bugs hide) are
common rather than rare.

A third run is the oracle for :meth:`Process.deadline`: it arms one
heap entry per deadline instead of one per delay's FIFO head.  Its
history must match too; its clock and dispatch count may not, since the
engine drops the deadlines of finished calls queued behind a head.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.core import AllOf, AnyOf, SimulationError, Simulator

# A tiny delay grid maximises timestamp collisions; all values are exact
# binary floats so time arithmetic is bit-reproducible.
delays = st.sampled_from([0.0, 0.5, 1.0, 1.5])
# A deadline's delay must be positive.
deadline_delays = st.sampled_from([0.5, 1.0, 1.5])

# One process body = a sequence of opcodes interpreted by _body below.
#   ("delay", d)    -> yield d                (direct-delay dispatch path)
#   ("timeout", d)  -> yield sim.timeout(d)
#   ("trigger", i)  -> trigger shared event i (if still pending)
#   ("fail", i)     -> fail shared event i    (if still pending)
#   ("wait", i)     -> yield shared event i   (a failure logs its type)
#   ("any", d1, d2) -> yield AnyOf(timeout(d1), timeout(d2))
#   ("all", d1, d2) -> yield AllOf(timeout(d1), timeout(d2))
#   ("join", j)     -> yield process j        (earlier-started only)
#   ("deadline", d, work) -> start a child that works ``work``, give it
#                    a deadline ``d`` and wait on its ``done``
ops = st.one_of(
    st.tuples(st.just("delay"), delays),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("trigger"), st.integers(0, 2)),
    st.tuples(st.just("fail"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("any"), delays, delays),
    st.tuples(st.just("all"), delays, delays),
    st.tuples(st.just("join"), st.integers(0, 5)),
    st.tuples(st.just("deadline"), deadline_delays, delays),
)

programs = st.lists(
    st.lists(ops, min_size=1, max_size=6), min_size=1, max_size=6
)


class Boom(Exception):
    """The failure a ``fail`` opcode puts on a shared event."""


def _expire(done, value):
    if not done._done:
        done.trigger(value)


def _work(duration, value):
    yield duration
    return value


def _execute(program, reference, oracle=False):
    """Run ``program``; ``oracle`` arms each deadline as its own heap
    entry instead of through the FIFO."""
    sim = Simulator(reference=reference)
    # Shared events: "trigger" ops fire them, nobody waits unless a
    # "wait" op is drawn; triggered-twice is guarded at the op site.
    shared = [sim.event() for _ in range(3)]
    history = []
    processes = []

    def body(pid, opcodes):
        for step, opcode in enumerate(opcodes):
            kind = opcode[0]
            if kind == "delay":
                yield opcode[1]
                history.append((pid, step, "delay", sim.now))
            elif kind == "timeout":
                value = yield sim.timeout(opcode[1], value=(pid, step))
                history.append((pid, step, value, sim.now))
            elif kind == "trigger":
                event = shared[opcode[1]]
                if not event.triggered:
                    event.trigger((pid, step))
                history.append((pid, step, "trigger", sim.now))
            elif kind == "fail":
                event = shared[opcode[1]]
                if not event.triggered:
                    event.fail(Boom((pid, step)))
                history.append((pid, step, "fail", sim.now))
            elif kind == "wait":
                # May never trigger: the process then parks forever,
                # which both engines must agree on as well.
                try:
                    value = yield shared[opcode[1]]
                except Boom as error:
                    value = type(error).__name__
                history.append((pid, step, value, sim.now))
            elif kind == "any":
                value = yield AnyOf(
                    sim, [sim.timeout(opcode[1]), sim.timeout(opcode[2], 1)]
                )
                history.append((pid, step, value, sim.now))
            elif kind == "all":
                value = yield AllOf(
                    sim, [sim.timeout(opcode[1], 0), sim.timeout(opcode[2], 1)]
                )
                history.append((pid, step, tuple(value), sim.now))
            elif kind == "join":
                target = opcode[1]
                if target < len(processes):
                    value = yield processes[target]
                    history.append((pid, step, value, sim.now))
            elif kind == "deadline":
                child = sim.process(_work(opcode[2], (pid, step)))
                if oracle:
                    sim.schedule(opcode[1], _expire, child.done, "late")
                else:
                    child.deadline(opcode[1], "late")
                value = yield child.done
                history.append((pid, step, value, sim.now))
        return pid

    for pid, opcodes in enumerate(program):
        processes.append(sim.process(body(pid, opcodes), name=f"p{pid}"))
    try:
        sim.run()
        ended = "drained"
    except SimulationError as error:
        # A failed event nobody waited on by the end of its instant.
        ended = str(error)
    final = [
        (process.done.ok, process.done._value) for process in processes
    ]
    return history, ended, final, sim.now, sim.dispatched


class TestEngineEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(programs)
    # A deadline armed later than the head of its FIFO, whose call ends
    # at its instant: it must still win the tie from its own slot.
    @example([[("deadline", 1.0, 1.5)], [("delay", 0.5), ("deadline", 1.0, 1.0)]])
    # A failure with no waiter, then with one and with two.
    @example([[("fail", 0)]])
    @example([[("wait", 1)], [("fail", 1)]])
    @example([[("wait", 2)], [("wait", 2)], [("delay", 0.5), ("fail", 2)]])
    def test_fast_engine_matches_reference(self, program):
        fast = _execute(program, reference=False)
        reference = _execute(program, reference=True)
        assert fast == reference
        history, ended, final, _, _ = _execute(program, reference=True, oracle=True)
        assert (history, ended, final) == fast[:3]
