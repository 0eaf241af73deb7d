"""Shape gate for the perf-trajectory artifact ``BENCH_sim_speed.json``.

Three layers, none of which ever asserts a wall-clock number:

1. the checked-in artifact exists, is schema-valid, and records every
   scenario with host-dependent fields present and positive;
2. the deterministic fields — dispatched-event counts and modeled
   throughput — are pinned to constants here, so any change to the
   engine's dispatch structure or to the modeled results must be
   deliberate (regenerate the artifact and update the pins in the same
   change);
3. one cheap scenario is re-run live on both engines to tie the
   artifact's deterministic claims back to the current tree.

Wall seconds and events/sec are host-dependent: they are checked for
*presence*, never for value.
"""

import json
import os

from repro.bench.speed import (
    ARTIFACT_NAME,
    FROZEN_BASELINE,
    SCHEMA_VERSION,
    _run_event_churn,
    write_artifact,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
ARTIFACT = os.path.join(REPO_ROOT, ARTIFACT_NAME)

#: Deterministic pins: scenario -> (dispatched, modeled_mops as written
#: by the artifact's 6-decimal rounding).  Regenerating the artifact
#: after an intentional dispatch-structure change updates these.
EXPECTED = {
    "event-churn": (400_001, 0.0),
    "timeout-storm": (733_250, 0.0),
    "fig03-replay": (202_714, 11.26),
    "cluster-replay": (509_492, 6.693867),
}

HOST_DEPENDENT_FIELDS = (
    "wall_s_fast",
    "wall_s_reference",
    "events_per_sec_fast",
    "events_per_sec_reference",
    "speedup",
)


def load_artifact():
    assert os.path.exists(ARTIFACT), (
        f"{ARTIFACT_NAME} missing at repo root — regenerate with "
        "PYTHONPATH=src python -m repro.bench speed --json"
    )
    with open(ARTIFACT, encoding="utf-8") as source:
        return json.load(source)


class TestArtifactShape:
    def test_schema_and_scenarios(self):
        payload = load_artifact()
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["repetitions"] >= 1
        names = [scenario["name"] for scenario in payload["scenarios"]]
        assert names == list(EXPECTED)

    def test_provenance_recorded(self):
        # v2 schema: the artifact stamps the tree and scenario scale it
        # measured.  The SHA is host/commit-dependent — presence and
        # shape only, never a pinned value.
        payload = load_artifact()
        provenance = payload["provenance"]
        assert provenance["git_sha"]
        assert isinstance(provenance["git_dirty"], bool)
        scale = provenance["scale"]
        assert scale["window_us"] > 0
        assert 0 <= scale["warmup_fraction"] < 1
        assert scale["records"] > 0
        assert isinstance(scale["full"], bool)

    def test_deterministic_fields_are_pinned(self):
        payload = load_artifact()
        for scenario in payload["scenarios"]:
            dispatched, mops = EXPECTED[scenario["name"]]
            assert scenario["dispatched_fast"] == dispatched, scenario["name"]
            assert scenario["dispatched_reference"] == dispatched, (
                scenario["name"]
            )
            assert scenario["modeled_mops"] == mops, scenario["name"]

    def test_host_dependent_fields_present_never_asserted(self):
        payload = load_artifact()
        for scenario in payload["scenarios"]:
            for field in HOST_DEPENDENT_FIELDS:
                assert scenario[field] > 0, (scenario["name"], field)

    def test_frozen_baseline_recorded(self):
        payload = load_artifact()
        baseline = payload["frozen_baseline"]
        assert baseline["scenario"] in EXPECTED
        assert baseline["commit"] == FROZEN_BASELINE["commit"]
        assert baseline["wall_s"] > 0
        assert baseline["modeled_mops"] > 0
        assert baseline["shape"]
        assert baseline["speedup_vs_fast"] > 0


class TestArtifactMatchesTree:
    def test_event_churn_counts_reproduce_live(self):
        # The cheapest scenario re-run on both engines: ties the pinned
        # counts to the current tree, not just to the checked-in file.
        _wall_fast, dispatched_fast, _ = _run_event_churn(False)
        _wall_ref, dispatched_ref, _ = _run_event_churn(True)
        assert dispatched_fast == dispatched_ref == EXPECTED["event-churn"][0]


class TestWriterRoundTrip:
    def test_write_artifact_round_trips(self, tmp_path):
        # A full suite run is minutes; exercise the writer with a
        # hand-built single result instead.
        from repro.bench.speed import SpeedResult

        result = SpeedResult(
            name="cluster-replay",
            description="writer round-trip",
            repetitions=1,
            dispatched_fast=10,
            dispatched_reference=10,
            wall_s_fast=0.5,
            wall_s_reference=1.0,
            modeled_mops=1.0,
        )
        path = write_artifact([result], str(tmp_path / "artifact.json"))
        with open(path, encoding="utf-8") as source:
            payload = json.load(source)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["provenance"]["git_sha"]
        assert payload["provenance"]["scale"]["records"] > 0
        assert payload["scenarios"][0]["speedup"] == 2.0
        assert payload["frozen_baseline"]["speedup_vs_fast"] == round(
            FROZEN_BASELINE["wall_s"] / 0.5, 2
        )
