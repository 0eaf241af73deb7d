"""Hot-path budget: engine dispatches and Python calls per operation.

Tier-1 never asserts a wall-clock number, but two counts stand in for
the simulator's per-operation cost and are deterministic for a seeded
run: the events the engine dispatches per operation, and the Python
function calls ``cProfile`` sees per operation.  Three small closed-loop
workloads pin the first exactly and hold the second to a budget, so a
change that adds work to the verb, fetch, reply, server or engine hot
path fails here without timing anything:

- Jakiro GETs (the ``kv-read`` regime of ``perf/``): every call
  remote-fetches;
- a bare RFP echo with ~10 µs handlers (the ``rpc-slow-handler``
  regime): every client switches to server-reply, so the pushed-reply
  path carries the calls;
- routed GETs and PUTs on a three-shard RF=2 cluster (the healthy half
  of ``cluster-failover``): every operation goes through the router's
  per-shard lock and its deadline-guarded attempts.

The same three windows also count the enum members loaded from their
class (``Mode.SERVER_REPLY``, ``QPType.RC``, ...).  On CPython 3.11 such a
load takes ``enum``'s slow generic path (about 190 ns, against about 30
ns for a module alias), and ``cProfile`` cannot see it, so no call budget
catches one put back on the call path.  The GET and echo loops load none;
the routed loop's heartbeats load a few (``ShardStatus.SUSPECT`` and
``DEAD``), and so may a rare slow call.

A fourth loop holds set-up to the same kind of budget: a dataset
preload of distinct keys into an empty store about 2% too small for
them (the ``kv-write-zipf`` regime), so thousands of pairs are evicted
while loading.  Every bucket settles in NumPy, so the LRU insert helper
never runs, and the Python calls per loaded pair stay about one: the
surviving slots' constructors.

A fifth loop preloads distinct pairs into a three-shard RF=2 cluster (the
set-up of ``cluster-failover``).  The ring places the whole batch in one
pass: the scalar CRC-64 runs only for the ring's vnode tokens, when the
ring is built, and never for a pair, and the per-key replica lookup never
runs.  The Python calls per preloaded pair stay about two: one slot
constructor on each replica.

When a change cuts the hot path further, lower ``CALLS_PER_OP``,
``CALLS_PER_ECHO``, ``CALLS_PER_ROUTED_OP``, ``CALLS_PER_LOADED_PAIR`` or
``CALLS_PER_CLUSTER_PAIR``; when a change adds calls on purpose, raise the
budget in the same change and say why.
"""

import cProfile
import contextlib
import enum
import pstats

import pytest

from repro.cluster import ClusterConfig, RfpCluster
from repro.core import Mode, RfpClient, RfpServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.kv.store import JakiroStore, StoreCostModel
from repro.sim import Simulator

KEYS = 2048
VALUE = bytes(range(32))
CLIENTS = 14
WARMUP_US = 300.0
WINDOW_US = 800.0

#: GETs completed inside the window and events dispatched in it.
EXPECTED_OPS = 3_954
EXPECTED_DISPATCHED = 83_873
#: Python calls per GET measured when the budget was set.
CALLS_PER_OP = 192.65

#: Echo calls completed inside the window and events dispatched in it.
EXPECTED_ECHOES = 584
EXPECTED_ECHO_DISPATCHED = 11_705
#: Python calls per echo call measured when the budget was set.
CALLS_PER_ECHO = 156.11

#: Routed operations completed inside the window and events dispatched
#: in it.
EXPECTED_ROUTED_OPS = 3_031
EXPECTED_ROUTED_DISPATCHED = 87_396
#: Python calls per routed operation measured when the budget was set.
CALLS_PER_ROUTED_OP = 279.34

#: Distinct pairs preloaded into 6 partitions of ``PRELOAD_BUCKETS``
#: buckets: 19,584 slots, 2% fewer than the pairs.
PRELOAD_PAIRS = 20_000
PRELOAD_BUCKETS = 408
#: Python calls per loaded pair measured when the budget was set.
CALLS_PER_LOADED_PAIR = 0.862

#: Distinct pairs preloaded into a three-shard RF=2 cluster.
CLUSTER_PRELOAD_PAIRS = 8_192
#: Python calls per pair preloaded into the cluster measured when the
#: budget was set.
CALLS_PER_CLUSTER_PAIR = 2.538

#: Enum members loaded from their class per routed operation, at most.
ENUM_LOADS_PER_ROUTED_OP = 0.1

#: Headroom before a budget trips.
BUDGET = 1.05


@contextlib.contextmanager
def python_calls():
    """Count the Python calls ``cProfile`` sees inside the block."""
    reading = [0]
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield reading
    finally:
        profile.disable()
    reading[0] = sum(row[1] for row in pstats.Stats(profile).stats.values())


@contextlib.contextmanager
def enum_member_loads():
    """Count the enum members loaded from their class inside the block."""
    reading = [0]
    own = enum.EnumType.__dict__.get("__getattribute__")
    load = enum.EnumType.__getattribute__

    def counting(cls, name):
        value = load(cls, name)
        if type(value) is cls:
            reading[0] += 1
        return value

    enum.EnumType.__getattribute__ = counting
    try:
        yield reading
    finally:
        if own is None:
            del enum.EnumType.__getattribute__
        else:
            enum.EnumType.__getattribute__ = own


def measure(sim, done, meter):
    """Run warm-up, then the window under ``meter``; return (operations,
    dispatched, the meter's reading) for the window."""
    sim.run(until=WARMUP_US)
    ops_before, dispatched_before = done[0], sim.dispatched
    with meter() as reading:
        sim.run(until=WARMUP_US + WINDOW_US)
    return done[0] - ops_before, sim.dispatched - dispatched_before, reading[0]


def run_gets(meter=python_calls):
    """Closed-loop Jakiro GETs of 32 B values."""
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
    return measure(sim, done, meter)


def run_echoes(meter=python_calls):
    """Closed-loop 32 B echo calls with 9.5-10.5 µs handlers; returns the
    measurement and the clients."""
    sim = Simulator()
    hw = build_cluster(sim, CLUSTER_EUROSYS17)
    server = RfpServer(
        sim,
        hw,
        hw.server,
        lambda payload, context: (payload, 9.5 + payload[0] / 255.0),
        threads=8,
        name="budget-echo",
    )
    machines = hw.client_machines
    clients = [
        RfpClient(sim, machines[index % len(machines)], server, name=f"e{index}")
        for index in range(CLIENTS)
    ]
    done = [0]

    def loop(client, position):
        while True:
            payload = bytes([position % 256]) * 32
            assert (yield from client.call(payload)) == payload
            done[0] += 1
            position += 7

    for index, client in enumerate(clients):
        sim.process(loop(client, index * 131))
    return measure(sim, done, meter), clients


def run_routed(meter=python_calls):
    """Closed-loop routed operations of 32 B values on three shards with
    RF=2: every fourth operation of a client is a PUT, acknowledged by
    both replicas, and the rest are GETs."""
    sim = Simulator()
    hw = build_cluster(sim, CLUSTER_EUROSYS17)
    service = RfpCluster(
        sim,
        hw,
        shards=3,
        cluster_config=ClusterConfig(replication_factor=2),
        cost_model=StoreCostModel(jitter_probability=0.0),
        name="budget-cluster",
    )
    keys = [b"routed-key-%06d" % index for index in range(KEYS)]
    service.preload([(key, VALUE) for key in keys])
    machines = hw.machines[3:]
    done = [0]

    def loop(client, position):
        while True:
            key = keys[position % KEYS]
            if position % 4 == 0:
                yield from client.put(key, VALUE)
            else:
                assert (yield from client.get(key)) == VALUE
            done[0] += 1
            position += 7

    for index in range(CLIENTS):
        client = service.connect(machines[index % len(machines)], name=f"r{index}")
        sim.process(loop(client, index * 131))
    return measure(sim, done, meter)


def run_preload():
    """Load distinct pairs into an empty, slightly undersized store;
    returns (store, profiled calls, ``_insert`` calls)."""
    # A first load takes NumPy's one-time imports and caches outside the
    # profile.
    JakiroStore(1, buckets_per_partition=1).load([(b"warm", VALUE)] * 2)
    pairs = [(b"preload-key-%06d" % index, VALUE) for index in range(PRELOAD_PAIRS)]
    store = JakiroStore(6, buckets_per_partition=PRELOAD_BUCKETS)
    profile = cProfile.Profile()
    profile.enable()
    store.load(pairs)
    profile.disable()
    stats = pstats.Stats(profile).stats
    calls = sum(row[1] for row in stats.values())
    inserts = sum(row[1] for (_, _, name), row in stats.items() if name == "_insert")
    return store, calls, inserts


def run_cluster_preload():
    """Preload distinct pairs into a three-shard RF=2 cluster; returns
    (service, scalar ``crc64`` calls while its ring was built, then, for
    the preload: profiled calls, scalar ``crc64`` calls and
    ``lookup_replicas`` calls)."""
    # A first load takes NumPy's one-time imports and caches outside the
    # profile.
    JakiroStore(1, buckets_per_partition=1).load([(b"warm", VALUE)] * 2)
    sim = Simulator()
    hw = build_cluster(sim, CLUSTER_EUROSYS17)
    profile = cProfile.Profile()
    profile.enable()
    service = RfpCluster(
        sim,
        hw,
        shards=3,
        cluster_config=ClusterConfig(replication_factor=2),
        name="budget-preload",
    )
    profile.disable()
    built = count_calls(pstats.Stats(profile).stats, "crc64")
    pairs = [
        (b"cluster-preload-%06d" % index, VALUE)
        for index in range(CLUSTER_PRELOAD_PAIRS)
    ]
    profile = cProfile.Profile()
    profile.enable()
    service.preload(pairs)
    profile.disable()
    stats = pstats.Stats(profile).stats
    calls = sum(row[1] for row in stats.values())
    return (
        service,
        built,
        calls,
        count_calls(stats, "crc64"),
        count_calls(stats, "lookup_replicas"),
    )


def count_calls(stats, function):
    return sum(row[1] for (_, _, name), row in stats.items() if name == function)


def check_budget(calls, ops, budget, what):
    calls_per_op = calls / ops
    assert calls_per_op <= budget * BUDGET, (
        f"{calls_per_op:.4g} Python calls per {what}, budget "
        f"{budget * BUDGET:.4g} ({budget} + {BUDGET - 1:.0%})"
    )


def test_dispatches_per_op_pinned_and_calls_within_budget():
    ops, dispatched, calls = run_gets()
    assert (ops, dispatched) == (EXPECTED_OPS, EXPECTED_DISPATCHED)
    check_budget(calls, ops, CALLS_PER_OP, "GET")


def test_echo_dispatches_pinned_and_calls_within_budget():
    (ops, dispatched, calls), clients = run_echoes()
    assert all(client.mode is Mode.SERVER_REPLY for client in clients)
    assert (ops, dispatched) == (EXPECTED_ECHOES, EXPECTED_ECHO_DISPATCHED)
    check_budget(calls, ops, CALLS_PER_ECHO, "echo call")


def test_routed_dispatches_pinned_and_calls_within_budget():
    ops, dispatched, calls = run_routed()
    assert (ops, dispatched) == (EXPECTED_ROUTED_OPS, EXPECTED_ROUTED_DISPATCHED)
    check_budget(calls, ops, CALLS_PER_ROUTED_OP, "routed operation")


@pytest.mark.parametrize(
    "run, per_op",
    [
        (run_gets, 0.0),
        (lambda meter: run_echoes(meter)[0], 0.0),
        (run_routed, ENUM_LOADS_PER_ROUTED_OP),
    ],
    ids=["get", "echo", "routed"],
)
def test_call_path_loads_no_enum_member_from_its_class(run, per_op):
    ops, _, loads = run(enum_member_loads)
    assert loads / ops <= per_op, f"{loads / ops:.3g} enum member loads per op"


def test_preload_settles_without_insert_and_calls_within_budget():
    store, calls, inserts = run_preload()
    assert store.counters.evictions.value > 2_000
    assert inserts == 0
    check_budget(calls, PRELOAD_PAIRS, CALLS_PER_LOADED_PAIR, "loaded pair")


def test_cluster_preload_places_in_one_pass_and_calls_within_budget():
    service, built, calls, hashed, lookups = run_cluster_preload()
    assert built <= 3 * service.config.vnodes
    assert (hashed, lookups) == (0, 0)
    assert all(
        handle.jakiro.store.size() > CLUSTER_PRELOAD_PAIRS / 2
        for handle in service.shards.values()
    )
    check_budget(calls, CLUSTER_PRELOAD_PAIRS, CALLS_PER_CLUSTER_PAIR, "preloaded pair")
