"""Trajectory comparison: directions, tolerances, commensurability."""

import pytest

from repro.errors import ExpError
from repro.exp.artifact import SCHEMA_VERSION
from repro.exp.trajectory import (
    compare_payloads,
    format_comparison,
    metric_direction,
)


def payload(metrics, suite="core", sha="aaa", scale_records=8192):
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "provenance": {
            "git_sha": sha,
            "git_dirty": False,
            "scale": {
                "window_us": 2500.0,
                "warmup_fraction": 0.25,
                "records": scale_records,
                "full": False,
            },
        },
        "experiments": [
            {
                "experiment_id": "toy",
                "title": "Toy",
                "driver": "fake",
                "paper_expectation": "",
                "conditions": [
                    {
                        "label": "base",
                        "condition": {},
                        "metrics": dict(metrics),
                        "unpinned": {"wall_s": 1.0},
                    }
                ],
            }
        ],
    }


class TestDirections:
    def test_metric_direction_by_name(self):
        assert metric_direction("mops") == 1
        assert metric_direction("post_mops") == 1
        assert metric_direction("lost_acked_writes") == -1
        assert metric_direction("dispatched") == 0

    @pytest.mark.parametrize(
        "name, direction",
        [
            ("mean_latency_us", -1),
            ("p99_latency_us", -1),
            ("handoff_at_us", -1),
            ("queue_done_us", -1),
            ("status", 0),
        ],
    )
    def test_times_in_microseconds_are_lower_is_better(self, name, direction):
        assert metric_direction(name) == direction


class TestCompare:
    def test_identical_payloads_report_clean(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}), payload({"mops": 5.0}, sha="bbb")
        )
        assert comparison.identical
        assert comparison.regressions == []
        assert "0 regressions" in format_comparison(comparison)

    def test_wall_time_differences_are_invisible(self):
        before = payload({"mops": 5.0})
        after = payload({"mops": 5.0})
        after["experiments"][0]["conditions"][0]["unpinned"]["wall_s"] = 99.0
        assert compare_payloads(before, after).identical

    def test_throughput_drop_beyond_tolerance_is_a_regression(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}), payload({"mops": 4.0})
        )
        (delta,) = comparison.regressions
        assert delta.metric == "mops"
        assert "REGRESSION" in delta.describe()

    def test_small_drop_within_tolerance_is_not_flagged(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}), payload({"mops": 4.999})
        )
        assert comparison.changed and not comparison.regressions

    def test_throughput_gain_is_not_a_regression(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}), payload({"mops": 6.0})
        )
        assert comparison.changed and not comparison.regressions

    def test_loss_increase_is_a_regression(self):
        comparison = compare_payloads(
            payload({"lost_acked_writes": 0}),
            payload({"lost_acked_writes": 1}),
        )
        assert comparison.regressions

    @pytest.mark.parametrize("factor, regressions", [(1.1, 1), (0.9, 0)])
    def test_latency_rise_is_a_regression_and_fall_is_not(
        self, factor, regressions
    ):
        comparison = compare_payloads(
            payload({"p99_latency_us": 20.0}),
            payload({"p99_latency_us": 20.0 * factor}),
        )
        assert comparison.changed
        assert len(comparison.regressions) == regressions

    def test_neutral_metric_change_reported_not_flagged(self):
        comparison = compare_payloads(
            payload({"dispatched": 100}), payload({"dispatched": 200})
        )
        assert comparison.changed and not comparison.regressions
        # Only visible with verbose formatting.
        assert "dispatched" not in format_comparison(comparison)
        assert "dispatched" in format_comparison(comparison, verbose=True)

    def test_directional_metric_vanishing_is_a_regression(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}), payload({"other": 1.0})
        )
        flagged = {delta.metric for delta in comparison.regressions}
        assert "mops" in flagged

    def test_custom_tolerance(self):
        lenient = compare_payloads(
            payload({"mops": 5.0}), payload({"mops": 4.0}), rel_tolerance=0.5
        )
        assert not lenient.regressions

    @pytest.mark.parametrize(
        "tolerance", [float("nan"), float("inf"), 1.0, 5.0, -0.01]
    )
    def test_tolerance_outside_unit_interval_refused(self, tolerance):
        # Each of these would pass a halved throughput (or flag a gain).
        with pytest.raises(ExpError, match=r"tolerance must be a number in \[0, 1\)"):
            compare_payloads(
                payload({"mops": 5.0}),
                payload({"mops": 2.5}),
                rel_tolerance=tolerance,
            )


class TestCommensurability:
    def test_schema_mismatch_refused(self):
        bad = payload({"mops": 5.0})
        bad["schema"] = "repro.bench.speed/v2"
        with pytest.raises(ExpError, match="schema"):
            compare_payloads(bad, payload({"mops": 5.0}))

    def test_suite_mismatch_refused(self):
        with pytest.raises(ExpError, match="different suites"):
            compare_payloads(
                payload({"mops": 5.0}, suite="core"),
                payload({"mops": 5.0}, suite="cluster"),
            )

    def test_scale_mismatch_noted_not_refused(self):
        comparison = compare_payloads(
            payload({"mops": 5.0}),
            payload({"mops": 5.0}, scale_records=32768),
        )
        assert not comparison.scales_match
        assert "scales differ" in format_comparison(comparison)

    def test_condition_set_drift_reported(self):
        extra = payload({"mops": 5.0})
        extra["experiments"][0]["conditions"].append(
            {
                "label": "new",
                "condition": {},
                "metrics": {"mops": 1.0},
                "unpinned": {},
            }
        )
        comparison = compare_payloads(payload({"mops": 5.0}), extra)
        assert comparison.only_in_candidate == [("toy", "new")]
