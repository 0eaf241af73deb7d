"""Spec routing, matrix expansion, sweeps, labels, and phase layout."""

import pytest

from repro.bench.harness import Scale
from repro.errors import ExpError
from repro.exp.spec import (
    ExperimentSpec,
    FaultPoint,
    Phase,
    Sweep,
    Workload,
    phases_of,
)

FAST = Scale.fast()
FULL = Scale.full_scale()


def toy(**overrides):
    kwargs = dict(experiment_id="toy", title="Toy", driver="fake")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestRouting:
    def test_flat_settings_route_to_typed_dimensions(self):
        spec = toy(
            base={
                "kind": "ledger",
                "value_bytes": 64,
                "shards": 3,
                "client_threads": 24,
                "paradigm": "RFP",
                "faults": (FaultPoint(0.5, "kill", "shard1"),),
                "audit": "failover",
            }
        )
        (condition,) = spec.expand(FAST)
        assert condition.workload.kind == "ledger"
        assert condition.workload.value_bytes == 64
        assert condition.topology.shards == 3
        assert condition.topology.client_threads == 24
        assert condition.paradigm == "RFP"
        assert condition.faults[0].shard == "shard1"
        # Unrecognized keys land in driver-facing settings, nothing else.
        assert condition.settings == {"audit": "failover"}

    def test_fault_fraction_must_be_inside_window(self):
        spec = toy(base={"faults": (FaultPoint(1.5, "kill", "shard0"),)})
        with pytest.raises(ExpError, match="outside"):
            spec.expand(FAST)

    def test_non_faultpoint_fault_rejected(self):
        spec = toy(base={"faults": ({"at": 0.5},)})
        with pytest.raises(ExpError, match="FaultPoint"):
            spec.expand(FAST)

    def test_unknown_axis_name_fails_at_declaration(self):
        with pytest.raises(ExpError, match="not a workload"):
            toy(axes={"warp_factor": (1, 2)})


class TestExpansion:
    def test_cross_product_and_labels(self):
        spec = toy(
            axes={"server_threads": (1, 2), "value_bytes": (32, 1024)}
        )
        conditions = spec.expand(FAST)
        assert [c.label for c in conditions] == [
            "server_threads=1,value_bytes=32",
            "server_threads=1,value_bytes=1024",
            "server_threads=2,value_bytes=32",
            "server_threads=2,value_bytes=1024",
        ]
        assert conditions[3].topology.server_threads == 2
        assert conditions[3].workload.value_bytes == 1024
        assert conditions[3].axis == {
            "server_threads": 2,
            "value_bytes": 1024,
        }

    def test_no_axes_yields_single_base_condition(self):
        (condition,) = toy().expand(FAST)
        assert condition.label == "base"
        assert condition.axis == {}

    def test_sweep_resolves_by_scale(self):
        spec = toy(axes={"server_threads": Sweep((1, 2), (1, 2, 3, 4))})
        assert len(spec.expand(FAST)) == 2
        assert len(spec.expand(FULL)) == 4

    def test_extras_append_off_grid_conditions(self):
        spec = toy(
            axes={"server_threads": (1, 2)},
            extras=({"paradigm": "inbound", "client_threads": 28},),
        )
        conditions = spec.expand(FAST)
        assert conditions[-1].label == "paradigm=inbound,client_threads=28"
        assert conditions[-1].paradigm == "inbound"

    def test_duplicate_labels_rejected(self):
        # No axes plus an extra that adds no axis keys: two "base" labels.
        spec = toy(extras=({"audit": "x"},))
        with pytest.raises(ExpError, match="duplicate condition label"):
            spec.expand(FAST)

    def test_setting_axes_keys_name_extras(self):
        # Extras that differ only in a driver-read knob stay distinct
        # when the knob is declared a setting axis.
        spec = toy(
            extras=(
                {"paradigm": "herd", "loss_probability": 0.0},
                {"paradigm": "herd", "loss_probability": 0.05},
            ),
            setting_axes=("loss_probability",),
        )
        conditions = spec.expand(FAST)
        assert [c.label for c in conditions] == [
            "base",
            "paradigm=herd,loss_probability=0.0",
            "paradigm=herd,loss_probability=0.05",
        ]
        assert conditions[2].settings == {"loss_probability": 0.05}

    def test_empty_axis_rejected(self):
        with pytest.raises(ExpError, match="empty"):
            toy(axes={"server_threads": ()}).expand(FAST)


class TestWorkloadRecords:
    def test_default_follows_scale(self):
        assert Workload().resolve_records(FAST) == FAST.records

    def test_explicit_records_win(self):
        assert Workload(records=7).resolve_records(FAST) == 7

    def test_cap_bounds_the_scale_default(self):
        assert Workload(records_cap=240).resolve_records(FAST) == 240
        assert Workload(records=8, records_cap=240).resolve_records(FAST) == 8


class TestPhases:
    def test_default_phase_is_post_warmup_window(self):
        (condition,) = toy().expand(FAST)
        (phase,) = phases_of(condition)
        assert phase == Phase("run", FAST.warmup_fraction, 1.0)

    def test_declared_phases_returned_in_order(self):
        spec = toy(
            base={
                "phases": (
                    Phase("pre", 0.25, 0.5),
                    Phase("post", 0.5, 1.0),
                )
            }
        )
        (condition,) = spec.expand(FAST)
        assert [p.name for p in phases_of(condition)] == ["pre", "post"]

    def test_overlapping_phases_rejected(self):
        spec = toy(
            base={
                "phases": (
                    Phase("pre", 0.25, 0.6),
                    Phase("post", 0.5, 1.0),
                )
            }
        )
        (condition,) = spec.expand(FAST)
        with pytest.raises(ExpError, match="overlap"):
            phases_of(condition)

    def test_inverted_phase_bounds_rejected(self):
        spec = toy(base={"phases": (Phase("bad", 0.8, 0.2),)})
        (condition,) = spec.expand(FAST)
        with pytest.raises(ExpError, match="invalid"):
            phases_of(condition)


class TestDescribe:
    def test_describe_is_json_friendly_and_resolves_records(self):
        spec = toy(base={"records_cap": 240, "faults": (FaultPoint(0.5, "kill", "s"),)})
        (condition,) = spec.expand(FAST)
        description = condition.describe()
        assert description["workload"]["records"] == 240
        assert description["faults"] == [
            {"at_frac": 0.5, "action": "kill", "shard": "s"}
        ]
