"""Suite registry closure and real-driver determinism."""

import dataclasses
import json

import pytest

from repro.bench.harness import Scale
from repro.errors import ExpError
from repro.exp.artifact import build_payload, deterministic_view
from repro.exp.library import SPECS
from repro.exp.runner import ExperimentRunner, default_observers
from repro.exp.spec import Sweep
from repro.exp.suites import (
    SUITES,
    check_exp_registry,
    run_suite,
    suite_artifact_path,
)


class TestRegistry:
    def test_registry_is_closed_both_ways(self):
        assert check_exp_registry() == []

    def test_every_suite_member_is_declared(self):
        for members in SUITES.values():
            for spec_id in members:
                assert spec_id in SPECS

    def test_unknown_suite_raises(self):
        with pytest.raises(ExpError, match="unknown suite"):
            run_suite("nope", write=False)

    def test_only_the_calibration_family_and_lock_bypass_lack_a_spec(self):
        # A new hand-written runner beside the registry fails here.
        from repro.bench.experiments import EXPERIMENTS

        assert sorted(set(EXPERIMENTS) - set(SPECS)) == [
            "ext-lock-bypass",
            "fig5",
            "fig6",
            "params",
        ]

    def test_artifact_path_naming(self, tmp_path):
        assert suite_artifact_path("core").endswith("BENCH_core.json")
        assert suite_artifact_path("core", str(tmp_path)) == str(
            tmp_path / "BENCH_core.json"
        )


class TestRealDriverDeterminism:
    def test_tab1_spec_is_byte_deterministic(self):
        # The cheapest real-driver spec run twice end to end: the
        # deterministic views of the two payloads must agree byte for
        # byte (wall times live under 'unpinned' and are stripped).
        spec = SPECS["tab1"]
        scale = Scale.fast()
        views = []
        for _ in range(2):
            runner = ExperimentRunner(observers=default_observers())
            payload = build_payload("t", [runner.run(spec, scale)], scale)
            views.append(
                json.dumps(deterministic_view(payload), sort_keys=True)
            )
        assert views[0] == views[1]

    @pytest.mark.parametrize("spec_id", SUITES["paper"])
    def test_paper_spec_condition_is_byte_deterministic(self, spec_id):
        # One condition of each paper spec, twice at a 300 us window:
        # BENCH_paper.json is gated without running the suite.
        spec = SPECS[spec_id]
        tiny = Scale(window_us=300.0, records=256)
        first_point = {
            name: (
                values.resolve(tiny) if isinstance(values, Sweep) else tuple(values)
            )[:1]
            for name, values in spec.axes.items()
        }
        paradigms = first_point.get("paradigm", (spec.base.get("paradigm"),))
        one = dataclasses.replace(
            spec,
            axes=first_point,
            extras=(),
            per_paradigm={
                paradigm: settings
                for paradigm, settings in spec.per_paradigm.items()
                if paradigm in paradigms
            },
        )
        views = []
        for _ in range(2):
            runner = ExperimentRunner(observers=default_observers())
            payload = build_payload("t", [runner.run(one, tiny)], tiny)
            views.append(
                json.dumps(deterministic_view(payload), sort_keys=True)
            )
        assert views[0] == views[1]
