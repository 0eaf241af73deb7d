"""Pins of the repository benchmark's own workloads (``perf/``).

``perf/run.py`` prints rounded summaries (throughput, percentiles), so a
change that moves single operations by the last bit of a float can pass
it unnoticed.  These pins are exact: each workload is built at 1/20
scale with seed 1 and run for its whole simulated window, and the test
pins the number of operations, the engine's dispatch count, and a
SHA-256 over every client's entry and return stamps and results.  A
change to the simulator that is meant to keep every modeled number must
keep the operations and stamps; a change that moves the model on purpose
updates them and says why.  A change that removes engine events without
moving the model lowers only the dispatch counts.

``cluster-failover`` is also pinned at seeds 2 and 3: its router resumes
processes at the same instant as other work, so an engine change that is
exact on one seed is not exact by construction.

``perf/workloads.py`` is imported from its file, read-only.
"""

import hashlib
import importlib.util
import os
import struct

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS_PY = os.path.join(ROOT, "perf", "workloads.py")

SCALE = 0.05
SEED = 1

#: name -> (operations, sim.dispatched, sha256 of the stamps).
PINS = {
    "kv-read": (
        6_865,
        145_303,
        "16dfa01d65c1f7094a3d00de5a4e85edf148442b82a90b31a2ed7cb60565ac96",
    ),
    "kv-write-zipf": (
        4_467,
        105_735,
        "fbc8eefe94f7734410b254d91b92a376dd9f08022f5634c31aeb3c03263bf977",
    ),
    "rpc-slow-handler": (
        7_614,
        157_230,
        "6c55ec423a172b6f2271af6fadedab57a9d686123bc0e5c77148f5937ab737af",
    ),
    "cluster-failover": (
        3_831,
        112_265,
        "50461c8ed2441d816458016b3b798111e093f65c0e3099be377b61337e90afde",
    ),
}

#: seed -> (operations, sim.dispatched, sha256) of ``cluster-failover``.
FAILOVER_SEED_PINS = {
    2: (
        3_852,
        112_597,
        "b535bd2af0987c1105ddfa64ff26c7b00f18bbbd7156c90e86c82b8916ca165f",
    ),
    3: (
        3_843,
        112_354,
        "bc6136843d5f7035e4e87d558ef3b17477352f8d635ab6d6082e2ad076e5d894",
    ),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workload(name: str, seed: int = SEED):
    """Build and run ``name``; return (operations, dispatched, digest)."""
    workload = _load_workloads().make(name, seed, SCALE)
    workload.build(traced=False)
    workload.sim.run(until=workload.window_us)
    workload.final_check(complete=True)
    digest = hashlib.sha256()
    operations = 0
    for log in workload.logs:
        count = len(log.starts)
        operations += count
        digest.update(struct.pack(f"<{count}d", *log.starts))
        digest.update(struct.pack(f"<{count}d", *log.ends))
        digest.update(bytes(log.ok))
    return operations, workload.sim.dispatched, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_stamps_pinned(name):
    assert run_workload(name) == PINS[name]


@pytest.mark.parametrize("seed", sorted(FAILOVER_SEED_PINS))
def test_failover_stamps_pinned_on_more_seeds(seed):
    assert run_workload("cluster-failover", seed) == FAILOVER_SEED_PINS[seed]
