"""The per-call phase split the ``paradigm`` driver reports for RC runs."""

import pytest

from repro.bench.harness import Scale
from repro.errors import BenchError
from repro.exp.runner import ExperimentRunner, default_observers
from repro.exp.spec import ExperimentSpec


def phase_split(process_us, client_threads, scale):
    """Metrics of one checked ``rfp`` echo condition."""
    spec = ExperimentSpec(
        experiment_id="split",
        title="phase split",
        driver="paradigm",
        base={
            "paradigm": "RFP",
            "process_us": process_us,
            "client_threads": client_threads,
        },
    )
    runner = ExperimentRunner(observers=default_observers())
    (outcome,) = runner.run(spec, scale).outcomes
    return outcome.metrics


class TestMeasureBreakdown:
    def test_phases_tile_total(self):
        split = phase_split(0.5, 8, Scale(window_us=800.0))
        assert split["split_calls"] > 0
        total = split["send_us"] + split["server_us"] + split["fetch_us"]
        assert total == pytest.approx(split["total_us"], rel=0.02)

    def test_server_phase_tracks_process_time(self):
        scale = Scale(window_us=800.0)
        fast = phase_split(0.2, 8, scale)
        slow = phase_split(3.0, 8, scale)
        assert slow["server_us"] > fast["server_us"] + 2.0

    def test_phases_positive_under_light_load(self):
        split = phase_split(0.3, 2, Scale(window_us=600.0))
        assert split["send_us"] > 0
        assert split["server_us"] > 0
        assert split["fetch_us"] > 0
        # Unloaded, a call is a handful of microseconds.
        assert split["total_us"] < 8.0

    def test_window_with_no_complete_call_is_a_bench_error(self):
        # The CLIs report a ReproError as one line; a bare RuntimeError
        # would end in a traceback.
        with pytest.raises(BenchError, match="no complete calls") as caught:
            phase_split(0.5, 1, Scale(window_us=1.0))
        assert len(str(caught.value).splitlines()) == 1
