"""Property-based tests for the KV data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KVError
from repro.kv import (
    CuckooHashTable,
    JakiroStore,
    StoreCostModel,
    crc64,
    pack_get_request,
    pack_put_request,
    unpack_get_request,
    unpack_put_request,
)
from repro.kv.crc import crc64_many
from repro.kv.store import SLOTS_PER_BUCKET, partition_of
from repro.sim.random import seeded_rng

keys = st.binary(min_size=1, max_size=64)
values = st.binary(min_size=0, max_size=256)


class TestSerializationProperties:
    @given(keys)
    def test_get_round_trip(self, key):
        assert unpack_get_request(pack_get_request(key)) == key

    @given(keys, values)
    def test_put_round_trip(self, key, value):
        assert unpack_put_request(pack_put_request(key, value)) == (key, value)


class TestCrcProperties:
    @given(st.binary(max_size=512))
    def test_deterministic_and_64_bit(self, data):
        digest = crc64(data)
        assert digest == crc64(data)
        assert 0 <= digest < 2**64

    @given(st.binary(min_size=1, max_size=256), st.integers(0, 255))
    def test_single_byte_flip_always_detected(self, data, position_seed):
        """CRC64 detects every single-bit/byte corruption."""
        position = position_seed % len(data)
        corrupted = bytearray(data)
        corrupted[position] ^= 0xA5
        if bytes(corrupted) != data:
            assert crc64(bytes(corrupted)) != crc64(data)

    @given(st.lists(st.binary(max_size=64), max_size=60))
    def test_vectorized_matches_scalar(self, batch):
        assert crc64_many(batch) == [crc64(key) for key in batch]


class TestCuckooProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(keys, st.integers()), min_size=0, max_size=120))
    def test_matches_dict_semantics(self, operations):
        table = CuckooHashTable(capacity=512, seed=1)
        model = {}
        for key, value in operations:
            table.insert(key, value)
            model[key] = value
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.lookup(key)[0] == value

    @settings(max_examples=40, deadline=None)
    @given(st.lists(keys, min_size=0, max_size=120), st.lists(keys, max_size=40))
    def test_delete_removes_exactly_the_key(self, inserted, deleted):
        table = CuckooHashTable(capacity=512, seed=1)
        model = {}
        for key in inserted:
            table.insert(key, len(key))
            model[key] = len(key)
        for key in deleted:
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        for key, value in model.items():
            assert table.lookup(key)[0] == value

    @given(keys, st.integers(4, 4096))
    def test_candidates_distinct_and_in_range(self, key, capacity):
        from repro.kv.cuckoo import cuckoo_candidates

        candidates = cuckoo_candidates(key, capacity)
        assert len(candidates) == 3
        assert len(set(candidates)) == 3
        assert all(0 <= c < capacity for c in candidates)

    @given(keys)
    def test_probe_count_between_one_and_three(self, key):
        table = CuckooHashTable(capacity=128, seed=2)
        table.insert(key, 0)
        _, probes = table.lookup(key)
        assert 1 <= probes <= 3


class TestJakiroStoreProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(keys, values), min_size=0, max_size=100))
    def test_last_write_wins_when_no_eviction(self, pairs):
        store = JakiroStore(partitions=3, buckets_per_partition=4096)
        model = {}
        for key, value in pairs:
            store.put(partition_of(key, 3), key, value)
            model[key] = value
        # With this few keys over that many buckets, eviction is
        # effectively impossible; every key must read back.
        if store.counters.evictions.value == 0:
            for key, value in model.items():
                assert store.get(partition_of(key, 3), key)[0] == value
            assert store.size() == len(model)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(keys, values), min_size=0, max_size=200))
    def test_buckets_never_overflow(self, pairs):
        store = JakiroStore(partitions=2, buckets_per_partition=4)
        for key, value in pairs:
            store.put(partition_of(key, 2), key, value)
        for sizes in store.bucket_sizes():
            assert max(sizes) <= SLOTS_PER_BUCKET

    @given(keys, st.integers(1, 64))
    def test_partition_of_in_range(self, key, partitions):
        assert 0 <= partition_of(key, partitions) < partitions


def _store_state(store):
    """Everything a bulk load must leave as a ``put`` loop would: bucket
    contents and order with each slot's ``last_used``, the LRU clock,
    the counters, and the cost RNG's position."""
    counters = {
        name: getattr(store.counters, name).value
        for name in ("gets", "hits", "misses", "puts", "updates", "evictions")
    }
    rng_state = store._rng.bit_generator.state if store._rng is not None else None
    return store._buckets, store._clock, counters, rng_state


#: Short keys from a small alphabet, so batches repeat keys and share
#: buckets; lengths vary so the vectorized hash groups several lengths.
small_keys = st.lists(st.sampled_from(b"abc"), max_size=3).map(bytes)
small_values = st.binary(max_size=8)
#: 340 keys of one to four letters: enough for batches of 120 distinct
#: keys that still share keys, and so buckets, with the warm-up.
distinct_keys = st.lists(st.sampled_from(b"abcd"), min_size=1, max_size=4).map(bytes)
jitters = st.sampled_from([0.0, 0.002, 0.3, 1.0])
seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


def _assert_load_equals_put_loop(
    partitions, buckets, jitter, seed, warmup, pairs, max_key_bytes
):
    def build():
        store = JakiroStore(
            partitions,
            buckets_per_partition=buckets,
            max_key_bytes=max_key_bytes,
            max_value_bytes=6,
            cost_model=StoreCostModel(jitter_probability=jitter),
            rng=None if seed is None else seeded_rng(seed),
        )
        # Pre-populate, with GETs interleaved to scramble recency.
        for is_get, key, value in warmup:
            part = partition_of(key, partitions)
            if is_get:
                store.get(part, key)
            elif len(key) <= max_key_bytes and len(value) <= 6:
                store.put(part, key, value)
        return store

    looped, loaded = build(), build()
    looped_error = loaded_error = None
    try:
        for key, value in pairs:
            looped.put(partition_of(key, partitions), key, value)
    except KVError as error:
        looped_error = (type(error), str(error))
    try:
        loaded.load(iter(pairs))
    except KVError as error:
        loaded_error = (type(error), str(error))
    assert loaded_error == looped_error
    assert _store_state(loaded) == _store_state(looped)
    assert list(loaded.items()) == list(looped.items())
    assert loaded.bucket_sizes() == looped.bucket_sizes()


class TestBulkLoadParity:
    """:meth:`JakiroStore.load` is observationally one ``put`` per pair."""

    @settings(max_examples=150, deadline=None)
    @given(
        partitions=st.integers(1, 3),
        buckets=st.integers(1, 4),
        jitter=jitters,
        seed=seeds,
        warmup=st.lists(
            st.tuples(st.booleans(), small_keys, small_values), max_size=40
        ),
        pairs=st.lists(st.tuples(small_keys, small_values), max_size=80),
    )
    def test_load_equals_put_loop(
        self, partitions, buckets, jitter, seed, warmup, pairs
    ):
        _assert_load_equals_put_loop(
            partitions, buckets, jitter, seed, warmup, pairs, max_key_bytes=2
        )

    @settings(max_examples=150, deadline=None)
    @given(
        partitions=st.integers(1, 3),
        buckets=st.integers(1, 4),
        jitter=jitters,
        seed=seeds,
        warmup=st.lists(
            st.tuples(st.booleans(), distinct_keys, small_values), max_size=40
        ),
        pairs=st.lists(
            st.tuples(distinct_keys, st.binary(max_size=6)),
            max_size=120,
            unique_by=lambda pair: pair[0],
        ),
    )
    def test_load_of_distinct_keys_equals_put_loop(
        self, partitions, buckets, jitter, seed, warmup, pairs
    ):
        """Distinct keys overfill buckets past eight, so an empty bucket
        settles in one slice: its last eight pairs, stamped as the
        ``put`` loop stamps them.  A pre-populated bucket replays."""
        _assert_load_equals_put_loop(
            partitions, buckets, jitter, seed, warmup, pairs, max_key_bytes=4
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12_000),
        jitter=st.sampled_from([0.0, 1e-6, 0.002, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_advance_equals_cost_calls(self, n, jitter, seed):
        model = StoreCostModel(jitter_probability=jitter)
        called, advanced = seeded_rng(seed), seeded_rng(seed)
        for _ in range(n):
            model.cost(32, called)
        model.advance(advanced, n)
        assert advanced.bit_generator.state == called.bit_generator.state
