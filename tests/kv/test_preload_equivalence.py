"""The bulk preload path is observationally a ``put`` per pair.

:meth:`Jakiro.preload` and :meth:`RfpCluster.preload` load through
:meth:`JakiroStore.load`; these tests pin that a run after a bulk preload
is identical — every latency sample and every engine dispatch — to a run
after the same pairs were put one at a time.  Two regimes: a store with
almost eight slots per pair, where preload evictions are rare, and the
``kv-write-zipf`` one, a store slightly smaller than its dataset, where
thousands of pairs are evicted while loading.
"""

import pytest

from repro.cluster import ClusterConfig, RfpCluster
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro, partition_of
from repro.sim import Simulator
from repro.workloads import UniformValues, WorkloadSpec, YcsbWorkload

SPEC = WorkloadSpec(records=100_000, seed=7)
#: Half PUTs of 32-2,048 B values on Zipf keys; 25,000 pairs against
#: 6 partitions of ``EVICTING_BUCKETS`` buckets, 24,576 slots.
EVICTING_SPEC = WorkloadSpec(
    records=25_000,
    value_sizes=UniformValues(32, 2048),
    get_fraction=0.5,
    distribution="zipfian",
    seed=7,
)
EVICTING_BUCKETS = 512
WINDOW_US = 300.0
CLIENTS = 8


@pytest.fixture(scope="module")
def dataset():
    return list(YcsbWorkload(SPEC).dataset())


def _store_state(store):
    """A copy of the store's layout, recency stamps, counters and RNG."""
    return (
        [
            [
                None if bucket is None else [
                    (slot.key, slot.value, slot.last_used) for slot in bucket
                ]
                for bucket in partition
            ]
            for partition in store._buckets
        ],
        store._clock,
        {
            name: getattr(store.counters, name).value
            for name in ("gets", "hits", "misses", "puts", "updates", "evictions")
        },
        store._rng.bit_generator.state,
    )


def _run_jakiro(dataset, bulk, spec=SPEC, buckets_per_partition=16384):
    # A fresh workload per run: its operation streams are stateful.
    workload = YcsbWorkload(spec)
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(
        sim, cluster, threads=6, buckets_per_partition=buckets_per_partition, seed=11
    )
    if bulk:
        jakiro.preload(iter(dataset))
    else:
        store = jakiro.store
        for key, value in dataset:
            store.put(partition_of(key, store.partitions), key, value)
    loaded = _store_state(jakiro.store)
    clients = []
    for index in range(CLIENTS):
        client = jakiro.connect(cluster.client_machines[index % 7], name=f"c{index}")
        operations = workload.operations(client.name)

        def body(client=client, operations=operations):
            for op in operations:
                if op.is_get:
                    yield from client.get(op.key)
                else:
                    yield from client.put(op.key, op.value)

        sim.process(body())
        clients.append(client)
    sim.run(until=WINDOW_US)
    samples = [client.latency_samples() for client in clients]
    return loaded, samples, sim.dispatched, _store_state(jakiro.store)


def test_jakiro_preload_matches_put_loop(dataset):
    bulk = _run_jakiro(dataset, bulk=True)
    looped = _run_jakiro(dataset, bulk=False)
    loaded, samples, dispatched, final = bulk
    assert loaded == looped[0]
    assert sum(map(len, samples)) > 100
    assert samples == looped[1]
    assert dispatched == looped[2]
    assert final == looped[3]


def test_jakiro_preload_matches_put_loop_when_evicting():
    dataset = list(YcsbWorkload(EVICTING_SPEC).dataset())
    runs = [
        _run_jakiro(dataset, bulk, EVICTING_SPEC, EVICTING_BUCKETS)
        for bulk in (True, False)
    ]
    loaded, samples, _, _ = runs[0]
    assert loaded[2]["evictions"] > 2_000
    assert sum(map(len, samples)) > 100
    assert runs[0] == runs[1]


def _cluster(bulk, pairs, factor, move):
    """Per-shard store states after loading ``pairs`` into three shards
    with ``factor`` replicas; with ``move``, every fourth vnode of shard0
    belongs to shard2 before the load."""
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    service = RfpCluster(
        sim, cluster, shards=3, cluster_config=ClusterConfig(replication_factor=factor)
    )
    if move:
        for token in service.ring.tokens_of("shard0")[::4]:
            service.ring.move_vnode(token, "shard2")
    if bulk:
        service.preload(iter(pairs))
    else:
        for key, value in pairs:
            for shard_name in service.replicas_for(key):
                store = service.shards[shard_name].jakiro.store
                store.put(partition_of(key, store.partitions), key, value)
    return {
        name: _store_state(handle.jakiro.store)
        for name, handle in service.shards.items()
    }


def test_cluster_preload_matches_per_pair_placement(dataset):
    # Repeat some keys with new values so per-shard order matters.
    pairs = dataset[:6000] + [(key, b"again") for key, _ in dataset[:6000:7]]
    for factor in (1, 2, 3):
        for move in (False, True):
            bulk = _cluster(True, pairs, factor, move)
            assert bulk == _cluster(False, pairs, factor, move), (factor, move)
            puts = [state[2]["puts"] for state in bulk.values()]
            assert all(puts) and sum(puts) == factor * len(pairs)
