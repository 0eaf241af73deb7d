"""Unit tests for the benchmark infrastructure (no heavy runs)."""

import numpy as np
import pytest

from repro.bench import EXPERIMENTS, Scale, run_kv
from repro.bench.experiments import run_experiment
from repro.bench.figures import ExperimentResult
from repro.bench.report import format_result, format_table
from repro.bench.systems import SYSTEMS, build_system
from repro.errors import BenchError, WorkloadError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator
from repro.workloads import WorkloadSpec


class TestScale:
    def test_fast_and_full_presets(self):
        fast = Scale.fast()
        full = Scale.full_scale()
        assert full.window_us > fast.window_us
        assert full.records > fast.records
        assert full.full and not fast.full

    def test_sweep_picks_by_scale(self):
        assert Scale.fast().sweep([1, 2], [1, 2, 3]) == [1, 2]
        assert Scale.full_scale().sweep([1, 2], [1, 2, 3]) == [1, 2, 3]


class TestRegistry:
    def test_every_evaluation_figure_registered(self):
        expected = {
            "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "fig20", "tab1", "tab3", "params",
            "ablation-symmetric",
            "ext-cluster-scaling", "ext-cluster-failover",
            "ext-cluster-rejoin", "ext-cluster-rebalance",
            "ext-txn-structures",
            "ext-ud-rpc", "ext-lock-bypass", "breakdown",
        }
        assert expected == set(EXPERIMENTS)

    def test_ids_match_keys(self):
        for experiment_id, experiment in EXPERIMENTS.items():
            assert experiment.experiment_id == experiment_id
            assert experiment.title
            assert callable(experiment.runner)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(BenchError):
            run_experiment("fig99")


class TestSystems:
    def test_all_systems_buildable(self):
        for name in SYSTEMS:
            sim = Simulator()
            cluster = build_cluster(sim, CLUSTER_EUROSYS17)
            handle = build_system(name, sim, cluster, threads=2, records=512)
            assert handle.name in name or handle.name == name.split("-")[0] or True
            assert callable(handle.connect)
            assert callable(handle.preload)

    def test_unknown_system_rejected(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        with pytest.raises(BenchError):
            build_system("redis", sim, cluster, threads=2)

    def test_records_hint_sizes_pilaf_at_75_percent(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        handle = build_system("pilaf", sim, cluster, threads=1, records=6000)
        assert handle.server.capacity == int(6000 / 0.75)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_server_stats_and_client_readouts_are_typed(self, name):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        handle = build_system(name, sim, cluster, threads=2, records=512)
        expected = {
            "jakiro": lambda server: server.server.stats,
            "serverreply": lambda server: server.server.stats,
            "memcached": lambda server: server.stats,
            "pilaf": lambda server: None,
        }[name](handle.server)
        assert handle.server_stats is expected
        client = handle.connect(cluster.client_machines[0])
        assert client.busy_time() == 0.0
        assert list(client.fetch_attempt_samples()) == []


class TestHarnessValidation:
    def test_zero_clients_rejected(self):
        with pytest.raises(BenchError):
            run_kv("jakiro", WorkloadSpec(records=64), client_threads=0)

    def test_unknown_controlled_mode_rejected(self):
        from repro.bench import run_controlled_process_time

        with pytest.raises(BenchError):
            run_controlled_process_time("udp", 1.0)

    def test_tiny_run_produces_consistent_result(self):
        scale = Scale(window_us=300.0, records=256)
        result = run_kv(
            "jakiro",
            WorkloadSpec(records=256),
            server_threads=2,
            client_threads=4,
            scale=scale,
        )
        assert result.throughput_mops > 0
        assert result.operations_completed > 0
        assert len(result.latency_us) > 0
        assert 0.0 <= result.client_cpu_utilization <= 1.0
        assert result.mean_latency() > 0
        assert result.percentile_latency(99) >= result.percentile_latency(50)

    def test_result_owns_its_latencies(self):
        # The clients keep running if the caller runs the simulator on;
        # the returned samples must be a copy, not a view that blocks
        # (and then misses) every later sample.
        sim = Simulator()
        scale = Scale(window_us=300.0, records=256)
        result = run_kv(
            "jakiro",
            WorkloadSpec(records=256),
            server_threads=2,
            client_threads=4,
            scale=scale,
            sim=sim,
        )
        before = result.latency_us.copy()
        sim.run(until=400.0)
        assert np.array_equal(result.latency_us, before)

    def test_deterministic_across_runs(self):
        scale = Scale(window_us=300.0, records=256)

        def run():
            return run_kv(
                "jakiro",
                WorkloadSpec(records=256),
                server_threads=2,
                client_threads=4,
                scale=scale,
            ).throughput_mops

        assert run() == run()


class TestDegenerateWindows:
    """A window that cannot measure anything is refused in one line,
    instead of reporting 0 MOPS or dividing by zero."""

    @staticmethod
    def refused(call):
        with pytest.raises(WorkloadError) as info:
            call()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5, float("nan")])
    def test_warmup_outside_the_window(self, fraction):
        scale = Scale(window_us=300.0, warmup_fraction=fraction, records=256)
        self.refused(
            lambda: run_kv("jakiro", WorkloadSpec(records=256), scale=scale)
        )

    @pytest.mark.parametrize("window", [0.0, -300.0, float("inf"), float("nan")])
    def test_window_not_finite_and_positive(self, window):
        scale = Scale(window_us=window, records=256)
        self.refused(
            lambda: run_kv("jakiro", WorkloadSpec(records=256), scale=scale)
        )

    def test_controlled_run_without_clients(self):
        from repro.bench import run_controlled_process_time

        self.refused(
            lambda: run_controlled_process_time("rfp", 1.0, client_threads=0)
        )

    def test_raw_verb_probes_without_threads(self):
        from repro.bench.calibration import (
            measure_inbound_iops,
            measure_outbound_iops,
        )

        self.refused(lambda: measure_inbound_iops(0, window_us=300.0))
        self.refused(lambda: measure_outbound_iops(0, window_us=300.0))


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width

    def test_format_result_includes_everything(self):
        result = ExperimentResult(
            "figX",
            "A title",
            ["col"],
            [[1]],
            paper_expectation="the paper says so",
            observations="we measured it",
        )
        text = format_result(result)
        assert "figX" in text
        assert "A title" in text
        assert "the paper says so" in text
        assert "we measured it" in text
        assert "col" in text


class TestCli:
    def test_list_mode(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "params" in out

    def test_unknown_id_is_an_error(self, capsys):
        from repro.bench.cli import main

        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCalibrationHelpers:
    def test_fetch_round_trip_in_expected_band(self):
        from repro.bench.calibration import measured_fetch_round_trip_us

        round_trip = measured_fetch_round_trip_us()
        assert 1.0 < round_trip < 2.5

    def test_model_iops_matches_hw_curve(self):
        from repro.bench.calibration import model_inbound_iops
        from repro.hw import CONNECTX3

        iops_at = model_inbound_iops()
        assert iops_at(5, 32) == pytest.approx(CONNECTX3.inbound_peak_mops, rel=0.01)
        assert iops_at(5, 4096) < iops_at(5, 256)
