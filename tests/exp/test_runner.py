"""Runner lifecycle: observer hooks, context discipline, result lookup."""

import pytest

from repro.bench.harness import Scale
from repro.core.mode import Mode
from repro.errors import ExpError
from repro.exp.observers import (
    InvariantObserver,
    ProgressObserver,
    RunObserver,
)
from repro.exp.runner import ExperimentRunner
from repro.exp.spec import ExperimentSpec

FAST = Scale.fast()


def toy_spec(**overrides):
    kwargs = dict(experiment_id="toy", title="Toy", driver="fake")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class RecordingObserver(RunObserver):
    def __init__(self):
        self.events = []

    def run_started(self, spec, scale, conditions):
        self.events.append(("run_started", len(conditions)))

    def condition_started(self, context, index, total):
        self.events.append(("condition_started", index))

    def simulator_created(self, context, sim):
        self.events.append(("simulator_created", context.condition.label))

    def condition_finished(self, context, outcome, index, total):
        self.events.append(("condition_finished", outcome.condition.label))

    def run_finished(self, result):
        self.events.append(("run_finished", len(result.outcomes)))


def fake_driver(context):
    context.make_simulator()
    return {"mops": float(context.condition.topology.server_threads)}


class TestLifecycle:
    def test_observer_sees_full_event_stream_in_order(self):
        observer = RecordingObserver()
        runner = ExperimentRunner(
            observers=[observer], drivers={"fake": fake_driver}
        )
        spec = toy_spec(axes={"server_threads": (1, 2)})
        result = runner.run(spec, FAST)
        assert observer.events == [
            ("run_started", 2),
            ("condition_started", 0),
            ("simulator_created", "server_threads=1"),
            ("condition_finished", "server_threads=1"),
            ("condition_started", 1),
            ("simulator_created", "server_threads=2"),
            ("condition_finished", "server_threads=2"),
            ("run_finished", 2),
        ]
        assert [o.metrics["mops"] for o in result.outcomes] == [1.0, 2.0]
        assert all(o.wall_s >= 0 for o in result.outcomes)

    def test_unknown_driver_raises(self):
        runner = ExperimentRunner(drivers={"fake": fake_driver})
        with pytest.raises(ExpError, match="unknown driver"):
            runner.run(toy_spec(driver="nope"), FAST)

    def test_each_condition_gets_exactly_one_simulator(self):
        def greedy(context):
            context.make_simulator()
            context.make_simulator()

        runner = ExperimentRunner(drivers={"fake": greedy})
        with pytest.raises(ExpError, match="exactly one fresh simulator"):
            runner.run(toy_spec(), FAST)

    def test_fresh_simulator_per_condition(self):
        seen = []

        def capture(context):
            seen.append(context.make_simulator())
            return {"ok": 1}

        runner = ExperimentRunner(drivers={"fake": capture})
        runner.run(toy_spec(axes={"server_threads": (1, 2, 4)}), FAST)
        assert len({id(sim) for sim in seen}) == 3

    def test_duplicate_tracer_name_rejected(self):
        from repro.sim.trace import Tracer

        def publisher(context):
            sim = context.make_simulator()
            context.publish_tracer("t", Tracer(sim, categories=["cluster"]), "cluster")
            context.publish_tracer("t", Tracer(sim, categories=["cluster"]), "cluster")

        runner = ExperimentRunner(drivers={"fake": publisher})
        with pytest.raises(ExpError, match="published twice"):
            runner.run(toy_spec(), FAST)


class TestObservers:
    def test_invariant_observer_attaches_checkers_to_published_tracers(self):
        from repro.sim.trace import Tracer

        kinds = {}

        def publisher(context):
            sim = context.make_simulator()
            context.publish_tracer(
                "cluster", Tracer(sim, categories=["cluster"]), "cluster"
            )
            context.publish_tracer("shard0", Tracer(sim, capacity=1), "rfp")
            context.publish_tracer(
                "reply0", Tracer(sim, capacity=1), "server-reply"
            )
            kinds.update(context.checkers)
            return {"ok": 1}

        runner = ExperimentRunner(
            observers=[InvariantObserver()], drivers={"fake": publisher}
        )
        runner.run(toy_spec(), FAST)  # assert_clean on idle checkers passes
        assert set(kinds) == {"cluster", "shard0", "reply0"}
        # Server-reply channels are checked from the mode they start in.
        assert kinds["shard0"].initial_mode is Mode.REMOTE_FETCH
        assert kinds["reply0"].initial_mode is Mode.SERVER_REPLY

    def test_progress_observer_writes_one_line_per_condition(self):
        import io

        stream = io.StringIO()
        runner = ExperimentRunner(
            observers=[ProgressObserver(stream)], drivers={"fake": fake_driver}
        )
        runner.run(toy_spec(axes={"server_threads": (1, 2)}), FAST)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].startswith("[toy] 2 condition")
        assert "[1/2] server_threads=1 mops=1.0" in lines[1]


class TestRunResult:
    def test_outcome_lookup_and_axis_filter(self):
        runner = ExperimentRunner(drivers={"fake": fake_driver})
        result = runner.run(
            toy_spec(axes={"server_threads": (1, 2), "value_bytes": (32, 64)}),
            FAST,
        )
        assert (
            result.outcome("server_threads=2,value_bytes=64").metrics["mops"]
            == 2.0
        )
        assert len(result.by_axis(server_threads=2)) == 2
        assert len(result.by_axis(server_threads=2, value_bytes=64)) == 1
        with pytest.raises(ExpError, match="no condition labelled"):
            result.outcome("nope")
