"""Unit test for the latency-decomposition harness."""

import pytest

from repro.bench.breakdown import measure_breakdown
from repro.bench.harness import Scale
from repro.errors import BenchError


class TestMeasureBreakdown:
    def test_phases_tile_total(self):
        scale = Scale(window_us=800.0)
        breakdown = measure_breakdown(0.5, client_threads=8, scale=scale)
        assert breakdown.calls > 0
        total = breakdown.send_us + breakdown.server_us + breakdown.fetch_us
        assert total == pytest.approx(breakdown.total_us, rel=0.02)

    def test_server_phase_tracks_process_time(self):
        scale = Scale(window_us=800.0)
        fast = measure_breakdown(0.2, client_threads=8, scale=scale)
        slow = measure_breakdown(3.0, client_threads=8, scale=scale)
        assert slow.server_us > fast.server_us + 2.0

    def test_phases_positive_under_light_load(self):
        scale = Scale(window_us=600.0)
        breakdown = measure_breakdown(0.3, client_threads=2, scale=scale)
        assert breakdown.send_us > 0
        assert breakdown.server_us > 0
        assert breakdown.fetch_us > 0
        # Unloaded, a call is a handful of microseconds.
        assert breakdown.total_us < 8.0

    def test_window_with_no_complete_call_is_a_bench_error(self):
        # The CLI reports a ReproError as one line; a bare RuntimeError
        # would end in a traceback.
        with pytest.raises(BenchError, match="no complete calls"):
            measure_breakdown(0.5, client_threads=1, scale=Scale(window_us=1.0))
