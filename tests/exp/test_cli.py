"""CLI error paths: every failure is one stderr line — never a
traceback — with exit 2 for usage and artifact errors and exit 1 for a
failed condition, and compare's exit code distinguishes clean from
regressed."""

import json

import pytest

from repro.bench.harness import Scale
from repro.exp.artifact import build_payload, write_payload
from repro.exp.cli import main as exp_main

FAST = Scale.fast()


def toy_artifact(tmp_path, name, mops):
    from repro.exp.runner import ExperimentRunner
    from repro.exp.spec import ExperimentSpec

    spec = ExperimentSpec(
        experiment_id="toy", title="Toy", driver="fake"
    )
    runner = ExperimentRunner(
        drivers={"fake": lambda context: {"mops": mops}}
    )
    payload = build_payload("toy-suite", [runner.run(spec, FAST)], FAST)
    return write_payload(payload, str(tmp_path / name))


def plant_breaching_raw_verbs(monkeypatch):
    """Replace the ``raw-verbs`` driver with one whose audit breaches."""
    from repro.errors import BenchError
    from repro.exp.drivers import DRIVERS

    def breaching(context):
        raise BenchError("audit breached")

    monkeypatch.setitem(DRIVERS, "raw-verbs", breaching)


class TestExpCli:
    def test_unknown_suite_exits_2_with_message(self, capsys):
        assert exp_main(["run", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "unknown suite" in captured.err
        assert "Traceback" not in captured.err

    def test_failed_condition_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        plant_breaching_raw_verbs(monkeypatch)
        code = exp_main(["run", "core", "--quiet", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: core/fig3/server_threads=1: audit breached"
        ]
        assert not (tmp_path / "BENCH_core.json").exists()

    def test_list_names_every_suite(self, capsys):
        assert exp_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "core: fig3, fig4, tab1" in out
        assert "cluster:" in out

    def run_with_spy(self, monkeypatch, argv):
        """Run ``python -m repro.exp`` with ``run_suite`` replaced by a
        spy; returns (exit code, the spy's calls)."""
        import repro.exp.cli

        calls = []

        def spy(suite, **kwargs):
            calls.append((suite, kwargs))
            return {}, [], "written"

        monkeypatch.setattr(repro.exp.cli, "run_suite", spy)
        return exp_main(argv), calls

    def test_run_out_naming_a_file_refused_before_anything_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, calls = self.run_with_spy(
            monkeypatch, ["run", "core", "--quiet", "--out", str(taken)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: cannot write {taken}: File exists"]
        assert calls == []

    def test_run_creates_a_missing_out_directory(self, tmp_path, monkeypatch):
        out = tmp_path / "no" / "such"
        code, calls = self.run_with_spy(
            monkeypatch, ["run", "core", "--quiet", "--out", str(out)]
        )
        assert code == 0
        assert out.is_dir()
        assert [(suite, kwargs["out_dir"]) for suite, kwargs in calls] == [
            ("core", str(out))
        ]

    def test_compare_identical_artifacts_exits_0(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        b = toy_artifact(tmp_path, "b.json", 5.0)
        assert exp_main(["compare", a, b]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_compare_regression_exits_1(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        b = toy_artifact(tmp_path, "b.json", 4.0)
        assert exp_main(["compare", a, b]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_missing_file_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        assert exp_main(["compare", a, str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_compare_malformed_artifact_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        assert exp_main(["compare", a, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_compare_mismatched_schemas_exits_2(self, tmp_path, capsys):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        # A bare foreign schema: it is refused by that field alone.
        path = tmp_path / "speed.json"
        path.write_text(
            json.dumps({"schema": "repro.bench.speed/v2"}), encoding="utf-8"
        )
        assert exp_main(["compare", a, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "repro.exp/v1" in err
        assert "Traceback" not in err

    def test_compare_tolerance_that_disables_the_gate_exits_2(
        self, tmp_path, capsys
    ):
        a = toy_artifact(tmp_path, "a.json", 5.0)
        b = toy_artifact(tmp_path, "b.json", 2.5)
        assert exp_main(["compare", a, b, "--tolerance", "nan"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: tolerance")
        assert "Traceback" not in err


class TestBenchCli:
    def test_unknown_experiment_exits_2(self, capsys):
        from repro.bench.cli import main as bench_main

        assert bench_main(["no-such-figure"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "Traceback" not in err

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        bad = tmp_path / "spec.json"
        bad.write_text("{not json", encoding="utf-8")
        assert bench_main(["--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_invalid_spec_contents_exit_2(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"systems": ["warpdrive"]}), encoding="utf-8")
        assert bench_main(["--spec", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown systems" in err
        assert "Traceback" not in err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        assert bench_main(["--spec", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_failed_experiment_is_one_line_and_keeps_finished_sections(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.bench.cli import main as bench_main
        from repro.bench.experiments import EXPERIMENTS, Experiment
        from repro.bench.figures import ExperimentResult
        from repro.errors import BenchError

        def passing(scale):
            return ExperimentResult(
                "quick", "Quick", ["x"], [[1]], paper_expectation="flat"
            )

        def breaching(scale):
            raise BenchError("audit breached: 1 lost acked write")

        monkeypatch.setitem(
            EXPERIMENTS, "quick", Experiment("quick", "Quick", passing)
        )
        monkeypatch.setitem(
            EXPERIMENTS, "breach", Experiment("breach", "Breach", breaching)
        )
        out = tmp_path / "report.txt"
        assert bench_main(["quick", "breach", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: breach: audit breached: 1 lost acked write"
        ]
        assert "Traceback" not in err
        assert "== quick: Quick ==" in out.read_text(encoding="utf-8")

    def test_failed_condition_prints_the_line_repro_exp_prints(
        self, capsys, monkeypatch
    ):
        from repro.bench.cli import main as bench_main

        plant_breaching_raw_verbs(monkeypatch)
        assert bench_main(["fig3"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: core/fig3/server_threads=1: audit breached"
        ]

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("branch", ["experiments", "spec"])
    def test_unwritable_output_refused_before_anything_runs(
        self, tmp_path, capsys, monkeypatch, flag, branch
    ):
        import repro.bench.custom
        from repro.bench.cli import main as bench_main
        from repro.bench.experiments import EXPERIMENTS, Experiment

        ran = []

        def record(*args):
            ran.append(args)

        monkeypatch.setitem(
            EXPERIMENTS, "quick", Experiment("quick", "Quick", record)
        )
        monkeypatch.setattr(repro.bench.custom, "run_custom", record)
        # --out under a missing directory; --csv naming an existing file.
        if flag == "--out":
            target = str(tmp_path / "no" / "such" / "x.txt")
        else:
            target = str(tmp_path / "taken.txt")
            (tmp_path / "taken.txt").write_text("", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"systems": ["jakiro"]}), encoding="utf-8")
        argv = ["quick"] if branch == "experiments" else ["--spec", str(spec)]
        assert bench_main(argv + [flag, target]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {target}: ")
        assert ran == []
