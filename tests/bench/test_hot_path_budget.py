"""Hot-path budget: engine dispatches and Python calls per Jakiro GET.

Tier-1 never asserts a wall-clock number, but two counts stand in for
the simulator's per-operation cost and are deterministic for a seeded
run: the events the engine dispatches per operation, and the Python
function calls ``cProfile`` sees per operation.  A small closed-loop
Jakiro GET workload (the ``kv-read`` regime of ``perf/``) pins the
first exactly and holds the second to a budget, so a change that adds
work to the verb, fetch, server or engine hot path fails here without
timing anything.

When a change cuts the hot path further, lower ``CALLS_PER_OP``; when a
change adds calls on purpose, raise it in the same change and say why.
"""

import cProfile
import pstats

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.sim import Simulator

KEYS = 2048
VALUE = bytes(range(32))
CLIENTS = 14
WARMUP_US = 300.0
WINDOW_US = 800.0

#: Operations completed inside the window and events dispatched in it.
EXPECTED_OPS = 3_954
EXPECTED_DISPATCHED = 83_873
#: Python calls per operation measured when the budget was set.
CALLS_PER_OP = 235.5
#: Headroom before the budget trips.
BUDGET = 1.05


def run_gets():
    """Run the workload; return (ops, dispatched, profiled calls) for the
    measured window."""
    sim = Simulator()
    hw = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(
        sim, hw, threads=6, buckets_per_partition=512, seed=5, name="budget"
    )
    keys = [b"budget-key-%06d" % index for index in range(KEYS)]
    jakiro.preload([(key, VALUE) for key in keys])
    machines = hw.client_machines
    done = [0]

    def loop(client, position):
        while True:
            value = yield from client.get(keys[position % KEYS])
            assert value == VALUE
            done[0] += 1
            position += 7

    for index in range(CLIENTS):
        client = jakiro.connect(machines[index % len(machines)], name=f"c{index}")
        sim.process(loop(client, index * 131))
    sim.run(until=WARMUP_US)
    ops_before, dispatched_before = done[0], sim.dispatched
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=WARMUP_US + WINDOW_US)
    profile.disable()
    calls = sum(row[1] for row in pstats.Stats(profile).stats.values())
    return done[0] - ops_before, sim.dispatched - dispatched_before, calls


def test_dispatches_per_op_pinned_and_calls_within_budget():
    ops, dispatched, calls = run_gets()
    assert (ops, dispatched) == (EXPECTED_OPS, EXPECTED_DISPATCHED)
    calls_per_op = calls / ops
    assert calls_per_op <= CALLS_PER_OP * BUDGET, (
        f"{calls_per_op:.1f} Python calls per GET, budget "
        f"{CALLS_PER_OP * BUDGET:.1f} ({CALLS_PER_OP} + {BUDGET - 1:.0%})"
    )
