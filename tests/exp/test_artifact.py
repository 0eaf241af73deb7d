"""Artifact build, schema validation, and the deterministic/unpinned split."""

import json

import pytest

from repro.bench.harness import Scale
from repro.errors import ExpError
from repro.exp.artifact import (
    SCHEMA_VERSION,
    build_payload,
    deterministic_view,
    load_payload,
    repo_root_artifacts,
    validate_artifact,
    write_payload,
)
from repro.exp.runner import ExperimentRunner
from repro.exp.spec import ExperimentSpec
from repro.exp.suites import SUITES

FAST = Scale.fast()


def toy_result():
    spec = ExperimentSpec(
        experiment_id="toy",
        title="Toy",
        driver="fake",
        axes={"server_threads": (1, 2)},
        paper_expectation="flat",
    )

    def driver(context):
        context.make_simulator()
        return {"mops": context.condition.topology.server_threads / 3.0}

    runner = ExperimentRunner(drivers={"fake": driver})
    return runner.run(spec, FAST)


class TestBuildPayload:
    def test_payload_validates_and_carries_provenance(self):
        payload = build_payload("toy-suite", [toy_result()], FAST)
        validate_artifact(payload)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["suite"] == "toy-suite"
        assert payload["provenance"]["git_sha"]
        assert payload["provenance"]["scale"]["records"] == FAST.records
        (experiment,) = payload["experiments"]
        assert experiment["experiment_id"] == "toy"
        labels = [c["label"] for c in experiment["conditions"]]
        assert labels == ["server_threads=1", "server_threads=2"]

    def test_floats_are_rounded_for_stable_diffs(self):
        payload = build_payload("toy-suite", [toy_result()], FAST)
        mops = payload["experiments"][0]["conditions"][0]["metrics"]["mops"]
        assert mops == round(1 / 3.0, 6)

    def test_wall_time_is_unpinned(self):
        payload = build_payload("toy-suite", [toy_result()], FAST)
        condition = payload["experiments"][0]["conditions"][0]
        assert "wall_s" in condition["unpinned"]
        assert "wall_s" not in condition["metrics"]


class TestDeterministicView:
    def test_strips_every_unpinned_subtree(self):
        payload = build_payload("toy-suite", [toy_result()], FAST)
        view = deterministic_view(payload)
        for condition in view["experiments"][0]["conditions"]:
            assert "unpinned" not in condition
            # Everything else survives.
            assert condition["metrics"]

    def test_two_builds_agree_byte_for_byte(self):
        first = build_payload("toy-suite", [toy_result()], FAST)
        second = build_payload("toy-suite", [toy_result()], FAST)
        assert json.dumps(
            deterministic_view(first), sort_keys=True
        ) == json.dumps(deterministic_view(second), sort_keys=True)


class TestValidation:
    def payload(self):
        return build_payload("toy-suite", [toy_result()], FAST)

    def test_wrong_schema_version_rejected(self):
        payload = self.payload()
        payload["schema"] = "repro.exp/v0"
        with pytest.raises(ExpError, match="schema"):
            validate_artifact(payload)

    def test_missing_field_names_the_path(self):
        payload = self.payload()
        del payload["experiments"][0]["conditions"][0]["metrics"]
        with pytest.raises(ExpError, match=r"conditions\[0\].*metrics"):
            validate_artifact(payload)

    def test_duplicate_experiment_ids_rejected(self):
        payload = self.payload()
        payload["experiments"].append(payload["experiments"][0])
        with pytest.raises(ExpError, match="duplicate experiment_id"):
            validate_artifact(payload)

    def test_non_scalar_metric_rejected(self):
        payload = self.payload()
        payload["experiments"][0]["conditions"][0]["metrics"]["rows"] = [1, 2]
        with pytest.raises(ExpError, match="scalars"):
            validate_artifact(payload)

    def test_bool_does_not_satisfy_int_fields(self):
        payload = self.payload()
        payload["provenance"]["scale"]["records"] = True
        with pytest.raises(ExpError, match="records"):
            validate_artifact(payload)

    def test_schema_field_required(self):
        with pytest.raises(ExpError, match="missing required field 'schema'"):
            validate_artifact({"suite": "x"})


class TestLoadAndWrite:
    def test_round_trip(self, tmp_path):
        payload = build_payload("toy-suite", [toy_result()], FAST)
        path = write_payload(payload, str(tmp_path / "BENCH_toy.json"))
        assert load_payload(path) == payload

    def test_malformed_json_is_an_exp_error(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ExpError, match="not valid JSON"):
            load_payload(str(path))

    def test_missing_file_is_an_exp_error(self, tmp_path):
        with pytest.raises(ExpError, match="cannot read"):
            load_payload(str(tmp_path / "BENCH_absent.json"))

    def test_write_refuses_invalid_payload(self, tmp_path):
        with pytest.raises(ExpError):
            write_payload({"schema": SCHEMA_VERSION}, str(tmp_path / "x.json"))


class TestRepoArtifacts:
    def test_checked_in_artifacts_exist_and_validate(self):
        paths = repo_root_artifacts()
        names = {path.rsplit("/", 1)[-1] for path in paths}
        # One artifact per suite and no orphans: every checked-in file
        # is one `python -m repro.exp run <suite>` regenerates.
        assert names == {f"BENCH_{suite}.json" for suite in SUITES}
        for path in paths:
            load_payload(path)
