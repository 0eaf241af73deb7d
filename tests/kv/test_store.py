"""Unit tests for the Jakiro bucket/slot store."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.kv.store as store_module
from repro.errors import KVError, KeyTooLargeError, ValueTooLargeError
from repro.kv import JakiroStore, StoreCostModel, partition_of
from repro.kv.store import SLOTS_PER_BUCKET, key_hash
from repro.sim.random import seeded_rng


def make_store(partitions=2, buckets=8, **kwargs):
    return JakiroStore(partitions, buckets_per_partition=buckets, **kwargs)


def owned_keys(store, partition, count, tag=b"k"):
    """Generate ``count`` distinct keys owned by ``partition``."""
    keys = []
    i = 0
    while len(keys) < count:
        key = tag + str(i).encode()
        if partition_of(key, store.partitions) == partition:
            keys.append(key)
        i += 1
    return keys


class TestBasicOperations:
    def test_put_then_get(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        store.put(0, key, b"value")
        value, _cost = store.get(0, key)
        assert value == b"value"

    def test_get_missing_returns_none(self):
        store = make_store()
        key = owned_keys(store, 1, 1)[0]
        value, cost = store.get(1, key)
        assert value is None
        assert cost > 0
        assert store.counters.misses.value == 1

    def test_update_in_place(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        store.put(0, key, b"old")
        store.put(0, key, b"new")
        assert store.get(0, key)[0] == b"new"
        assert store.counters.updates.value == 1
        assert store.size() == 1

    def test_erew_violation_rejected(self):
        """A thread touching another thread's partition is a bug."""
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        with pytest.raises(KVError):
            store.put(1, key, b"x")
        with pytest.raises(KVError):
            store.get(1, key)

    def test_partition_bounds_checked(self):
        store = make_store()
        with pytest.raises(KVError):
            store.get(5, b"k")

    def test_size_limits_enforced(self):
        store = make_store(max_key_bytes=8, max_value_bytes=16)
        key = owned_keys(store, 0, 1)[0]
        with pytest.raises(ValueTooLargeError):
            store.put(0, key, bytes(17))
        long_key = owned_keys(store, 0, 1, tag=b"verylongkey")[0]
        with pytest.raises(KeyTooLargeError):
            store.put(0, long_key, b"v")

    def test_cost_grows_with_value_size(self):
        store = make_store()
        key = owned_keys(store, 0, 1)[0]
        _, small_cost = store.put(0, key, bytes(32))
        _, big_cost = store.put(0, key, bytes(8192))
        assert big_cost > small_cost


class TestLruEviction:
    def fill_one_bucket(self, store):
        """Find SLOTS_PER_BUCKET+1 distinct keys hashing to one bucket."""
        buckets = {}
        i = 0
        while True:
            key = f"evict-{i}".encode()
            i += 1
            partition = partition_of(key, store.partitions)
            bucket = (key_hash(key) // store.partitions) % store.buckets_per_partition
            group = buckets.setdefault((partition, bucket), [])
            group.append(key)
            if len(group) == SLOTS_PER_BUCKET + 1:
                return partition, group

    def test_full_bucket_evicts_strict_lru(self):
        store = make_store(partitions=1, buckets=2)
        partition, keys = self.fill_one_bucket(store)
        for key in keys[:SLOTS_PER_BUCKET]:
            store.put(partition, key, b"v-" + key)
        # Touch everything except the intended victim, oldest first.
        victim = keys[0]
        for key in keys[1:SLOTS_PER_BUCKET]:
            store.get(partition, key)
        store.put(partition, keys[SLOTS_PER_BUCKET], b"newcomer")
        assert store.counters.evictions.value == 1
        assert store.get(partition, victim)[0] is None
        assert store.get(partition, keys[SLOTS_PER_BUCKET])[0] == b"newcomer"

    def test_get_refreshes_recency(self):
        store = make_store(partitions=1, buckets=2)
        partition, keys = self.fill_one_bucket(store)
        for key in keys[:SLOTS_PER_BUCKET]:
            store.put(partition, key, b"x")
        # Refresh the oldest; now keys[1] is the LRU victim.
        store.get(partition, keys[0])
        store.put(partition, keys[SLOTS_PER_BUCKET], b"new")
        assert store.get(partition, keys[0])[0] == b"x"
        assert store.get(partition, keys[1])[0] is None

    def test_bucket_never_exceeds_slot_count(self):
        store = make_store(partitions=1, buckets=1)
        for i in range(100):
            key = f"k{i}".encode()
            store.put(0, key, b"v")
        assert store.bucket_sizes() == [[SLOTS_PER_BUCKET]]


class TestPeek:
    def test_peek_reads_without_side_effects(self):
        """A verification readout must not perturb the run after it: no
        cost draw, no clock tick, no counters, no LRU refresh."""
        store = make_store(
            cost_model=StoreCostModel(jitter_probability=0.5), rng=seeded_rng(3)
        )
        keys = owned_keys(store, 0, 5)
        for key in keys:
            store.put(0, key, b"v-" + key)
        store.get(0, keys[1])

        def observed():
            counters = {
                name: getattr(store.counters, name).value
                for name in ("gets", "hits", "misses", "puts", "updates", "evictions")
            }
            stamps = [
                slot.last_used
                for partition in store._buckets
                for bucket in filter(None, partition)
                for slot in bucket
            ]
            return store._rng.bit_generator.state, store._clock, counters, stamps

        before = observed()
        assert [store.peek(key) for key in keys] == [b"v-" + key for key in keys]
        assert store.peek(b"absent") is None
        assert observed() == before


class TestLazyBuckets:
    def test_buckets_allocated_on_first_insert(self):
        store = make_store(partitions=2, buckets=8)
        assert store.bucket_sizes() == [[0] * 8, [0] * 8]
        assert store.size() == 0 and list(store.items()) == []
        key = owned_keys(store, 1, 1)[0]
        assert store.get(1, key)[0] is None
        store.put(1, key, b"v")
        sizes = store.bucket_sizes()
        assert sum(sizes[0]) == 0 and sum(sizes[1]) == 1
        assert list(store.items()) == [(key, b"v")]
        store.clear()
        assert store.size() == 0 and store.peek(key) is None

    def test_items_keep_partition_bucket_slot_order(self):
        store = make_store(partitions=3, buckets=4)
        pairs = [(f"o{i}".encode(), b"%d" % i) for i in range(40)]
        store.load(pairs)
        assert store.counters.evictions.value == 0
        placed = {}
        for key, value in pairs:
            partition = partition_of(key, 3)
            bucket = (key_hash(key) // 3) % 4
            placed.setdefault((partition, bucket), []).append((key, value))
        expected = [pair for slot in sorted(placed) for pair in placed[slot]]
        assert list(store.items()) == expected


@pytest.fixture
def colliding_keys():
    """Two distinct keys memoized under one digest, as a CRC-64 collision
    would hash them; the memo is restored afterwards."""
    memo = store_module._KEY_HASHES
    keys = (b"collide-a", b"collide-b")
    saved = {key: memo.pop(key) for key in keys if key in memo}
    memo[keys[1]] = key_hash(keys[0])
    yield keys
    for key in keys:
        memo.pop(key, None)
    memo.update(saved)


class TestBulkLoad:
    @pytest.mark.parametrize("repeat", [True, False], ids=["repeat", "no-repeat"])
    def test_distinct_keys_sharing_a_digest_both_stay(self, colliding_keys, repeat):
        """Only an equal key is a repeat: a load that matched keys by
        digest would keep one of the two."""
        first, second = colliding_keys
        pairs = [(first, b"1"), (b"other", b"x"), (second, b"2")]
        if repeat:
            pairs.append((first, b"3"))
        looped, loaded = make_store(), make_store()
        for key, value in pairs:
            looped.put(partition_of(key, 2), key, value)
        loaded.load(pairs)
        assert loaded.peek(first) == (b"3" if repeat else b"1")
        assert loaded.peek(second) == b"2"
        assert loaded._buckets == looped._buckets
        assert loaded._clock == looped._clock
        assert loaded.counters.updates.value == looped.counters.updates.value
        assert loaded.counters.updates.value == int(repeat)


    def test_load_imports_no_masked_arrays(self):
        """``np.unique`` imports ``numpy.ma`` on first use (about 14 ms), a
        cost a timed preload would pay; the load path groups without it,
        for fresh keys and for keys already in the memo."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys\n"
            "from repro.kv.store import JakiroStore\n"
            "pairs = [(b'key-%d' % i * (1 + i % 3), b'v') for i in range(40)]\n"
            "for _ in range(2):\n"
            "    JakiroStore(2, buckets_per_partition=4).load(pairs)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
            check=True,
        )
        assert done.stdout.split() == ["False"]


class TestCostModel:
    def test_jitter_tail_frequency(self):
        """~0.2% of operations get the heavy tail (paper §4.4.2)."""
        model = StoreCostModel(jitter_probability=0.002, jitter_mean_us=4.0)
        rng = np.random.default_rng(7)
        costs = [model.cost(32, rng) for _ in range(50_000)]
        base = model.base_us + 32 * model.per_byte_us
        slow = sum(1 for c in costs if c > base + 1.0)
        assert 0.0005 < slow / len(costs) < 0.005

    def test_no_rng_means_deterministic(self):
        model = StoreCostModel()
        assert model.cost(100, None) == model.cost(100, None)


class TestPartitioning:
    def test_partition_of_is_stable(self):
        assert partition_of(b"abc", 6) == partition_of(b"abc", 6)

    def test_partition_of_spreads_keys(self):
        counts = [0] * 6
        for i in range(6000):
            counts[partition_of(f"key-{i}".encode(), 6)] += 1
        assert min(counts) > 700  # roughly uniform

    def test_partition_validation(self):
        with pytest.raises(KVError):
            partition_of(b"k", 0)

    def test_partition_sizes_accounting(self):
        store = make_store(partitions=3, buckets=64)
        for i in range(90):
            key = f"s{i}".encode()
            store.put(partition_of(key, 3), key, b"v")
        sizes = store.partition_sizes()
        assert sum(sizes.values()) == store.size() == 90
