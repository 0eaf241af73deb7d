"""Tests for JSON-spec-driven custom experiments."""

import json

import pytest

from repro.bench.custom import load_spec, run_custom
from repro.bench.harness import Scale
from repro.errors import BenchError


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


TINY = Scale(window_us=400.0, records=256)


class TestLoadSpec:
    def test_defaults_applied(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {}))
        assert spec["systems"] == ["jakiro"]
        assert spec["_sweep_axis"] is None

    def test_single_system_string_normalized(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {"systems": "serverreply"}))
        assert spec["systems"] == ["serverreply"]

    def test_unknown_system_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            load_spec(write_spec(tmp_path, {"systems": ["redis"]}))

    def test_sweep_axis_detected(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {"server_threads": [2, 4]}))
        assert spec["_sweep_axis"] == "server_threads"

    def test_two_sweep_axes_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            load_spec(
                write_spec(
                    tmp_path, {"server_threads": [2, 4], "value_size": [32, 64]}
                )
            )

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BenchError):
            load_spec(str(path))

    def test_removed_system_rejected_with_the_options(self, tmp_path):
        with pytest.raises(BenchError) as caught:
            load_spec(write_spec(tmp_path, {"systems": ["farm"]}))
        assert "['jakiro', 'memcached', 'pilaf', 'serverreply']" in str(caught.value)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"server_threads": "abc"}, "server_threads"),
            ({"workload": [1, 2]}, "workload"),
            ({"window_us": -5}, "window_us"),
            ({"window_us": 0}, "window_us"),
            ({"client_threads": [4, 0]}, "client_threads"),
            ({"get_fraction": 1.5}, "get_fraction"),
            ({"workload": {"records": "many"}}, "workload.records"),
            ({"workload": {"value_size": [32, 64]}}, "workload.value_size"),
            ({"systems": 5}, "systems"),
        ],
    )
    def test_malformed_field_rejected(self, tmp_path, spec, field):
        with pytest.raises(BenchError, match=field):
            load_spec(write_spec(tmp_path, spec))


class TestRunCustom:
    def test_single_point_run(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "title": "one point",
                    "workload": {"records": 256},
                    "client_threads": 6,
                    "window_us": 400,
                },
            )
        )
        result = run_custom(spec, TINY)
        assert result.title == "one point"
        assert len(result.rows) == 1
        assert result.rows[0][1] > 0

    def test_sweep_produces_row_per_point(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "systems": ["jakiro", "serverreply"],
                    "server_threads": [2, 4],
                    "client_threads": 8,
                    "workload": {"records": 256},
                    "window_us": 400,
                },
            )
        )
        result = run_custom(spec, TINY)
        assert [row[0] for row in result.rows] == [2, 4]
        assert result.columns == ["server_threads", "jakiro_mops", "serverreply_mops"]
        for row in result.rows:
            assert row[1] > 0 and row[2] > 0

    def test_value_size_sweep_affects_workload(self, tmp_path):
        spec = load_spec(
            write_spec(
                tmp_path,
                {
                    "value_size": [32, 4096],
                    "client_threads": 8,
                    "workload": {"records": 128},
                    "window_us": 400,
                },
            )
        )
        result = run_custom(spec, TINY)
        small, large = result.rows[0][1], result.rows[1][1]
        assert small > large  # big values are slower

    def test_cli_spec_flag(self, tmp_path, capsys):
        from repro.bench.cli import main

        path = write_spec(
            tmp_path,
            {
                "title": "cli spec smoke",
                "client_threads": 4,
                "workload": {"records": 128},
                "window_us": 300,
            },
        )
        assert main(["--spec", path]) == 0
        assert "cli spec smoke" in capsys.readouterr().out

    def test_cli_malformed_spec_is_one_line_and_exit_2(self, tmp_path, capsys):
        from repro.bench.cli import main

        path = write_spec(tmp_path, {"server_threads": "abc"})
        assert main(["--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: server_threads must be a positive integer, got 'abc'"
        ]
