"""Smoke tests of the benchmark at 1/20 scale.

Run from the repository root with ``python -m pytest perf/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import worker
import workloads
from repro.kv import partition_of

SCALE = 0.05
PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perf", "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )


def _worker(name: str, mode: str) -> dict:
    done = subprocess.run(
        [sys.executable, worker.__file__, "--workload", name, "--seed", "1",
         "--scale", str(SCALE), "--mode", mode],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0
    return json.loads(done.stdout)


def _deterministic(sample: dict) -> dict:
    """Everything a sample reports that does not depend on wall time."""
    layers = {k: v for k, v in sample["layers"].items() if k != "sim.events_per_s"}
    return {"modeled": sample["modeled"], "layers": layers}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    done = _run("--scale", str(SCALE), "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    defined = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    lines = done.stdout.splitlines()
    assert lines[-1].startswith("{")
    printed = {}
    results = []
    for line in lines:
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        workload, metric, _value, unit = line.split()
        printed.setdefault(workload, {})[metric] = unit
    assert list(printed) == NAMES
    for units in printed.values():
        assert {m: units[m] for m in defined} == defined
    assert len(results) == len(NAMES)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] > 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == defined


@pytest.mark.parametrize("name", NAMES)
def test_two_runs_give_identical_modeled_and_count_metrics(name):
    first, second = _worker(name, "full"), _worker(name, "full")
    assert "check" not in first
    assert _deterministic(first) == _deterministic(second)


@pytest.mark.parametrize("name", NAMES)
def test_sliced_run_matches_single_sim_run(name):
    sliced = worker.sample(name, 1, SCALE, "full")
    single = worker.sample(name, 1, SCALE, "full", slices=1)
    assert sliced["modeled"] == single["modeled"]
    assert sliced["layers"]["sim.events"] == single["layers"]["sim.events"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_modeled_metrics(name, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT_DIR", str(tmp_path))
    untraced = worker.sample(name, 1, SCALE, "full")
    traced = worker.sample(name, 1, SCALE, "traced")
    assert "check" not in traced
    assert traced["modeled"] == untraced["quarter"]
    with open(traced["spans_file"]) as handle:
        spans = json.load(handle)["spans"]
    assert spans
    by_op = {}
    for op, label, start, end in spans:
        assert start <= end
        by_op.setdefault(op, []).append(label)
    for labels in by_op.values():
        assert sorted(labels) == ["call", "fetch", "send", "server"]


def test_planted_lost_write_trips_the_ledger_check():
    run = workloads.make("cluster-failover", 1, SCALE)
    run.build(traced=False)
    run.sim.run(until=run.window_us)
    run.final_check(complete=True)
    key, seq = next(iter(run.acked.items()))
    # One replica silently reverts to the previous write.
    replica = run.service.ring.lookup_replicas(key, 2)[1]
    store = run.service.shards[replica].jakiro.store
    stale = (seq - 1).to_bytes(8, "little") + run.padding
    store.put(partition_of(key, store.partitions), key, stale)
    with pytest.raises(workloads.CheckFailed, match="1 acknowledged writes lost"):
        run.final_check(complete=True)


def test_bad_usage_exits_2_without_traceback():
    done = _run("--workload", "no-such-workload")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("out"))
    done = _run("--workload", NAMES[0], "--seed", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert "Traceback" not in done.stderr
