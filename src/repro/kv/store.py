"""Jakiro's in-memory key-value structure (§4.1).

The structure is an array of buckets, each holding eight slots so that a
bucket of 8-byte slot descriptors fills one cache line.  A full bucket
evicts its strictly least-recently-used slot (GETs refresh recency, like
Memcached).  The whole structure is partitioned across server threads in
EREW (Exclusive Read Exclusive Write): each thread owns a disjoint range
of the key space and only ever touches its own partition, so there is no
locking anywhere on the serving path.

:class:`StoreCostModel` converts each executed operation into the CPU
time the server thread is charged, including a configurable heavy-tail
jitter that reproduces the paper's "0.2% of requests have unexpectedly
long process time" (§3.2, Table 3).

:meth:`JakiroStore.load` is the off-line bulk path (dataset preload): it
hashes, places and settles a whole batch of pairs with NumPy and leaves
the store, its counters and its cost RNG exactly as one
:meth:`JakiroStore.put` per pair would.  Buckets are allocated on first
insert, so an empty store of millions of slots costs one ``None`` per
bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KVError, KeyTooLargeError, ValueTooLargeError
from repro.kv.crc import crc64, crc64_many
from repro.sim.monitor import Counter

__all__ = ["JakiroStore", "StoreCostModel", "partition_of", "key_hash", "key_hashes"]

SLOTS_PER_BUCKET = 8

#: Most uniforms drawn per step of :meth:`StoreCostModel.advance`.
_ADVANCE_CHUNK = 4096


#: Memoized key digests.  Pure-function cache: benches route every op's
#: key through :func:`key_hash` (client-side partition pick + server-side
#: bucket pick) over a bounded working set, so the table-driven CRC loop
#: was ~2 redundant Python byte-loops per op.
_KEY_HASHES: Dict[bytes, int] = {}


def key_hash(key: bytes) -> int:
    """A stable 64-bit key hash (CRC64; deterministic across runs)."""
    cached = _KEY_HASHES.get(key)
    if cached is None:
        cached = _KEY_HASHES[key] = crc64(key)
    return cached


def key_hashes(keys: Sequence[bytes]) -> np.ndarray:
    """:func:`key_hash` of every key, as a ``uint64`` array in ``keys``
    order.  Keys not yet memoized are hashed in one vectorized
    :func:`crc64_many` pass and memoized, so later per-operation lookups
    hit the memo exactly as after :func:`key_hash`."""
    memo = _KEY_HASHES
    missing = [key for key in keys if key not in memo]
    digests = map(memo.__getitem__, keys)
    if missing:
        hashed = crc64_many(missing)
        memo.update(zip(missing, hashed))
        # With every key missing, ``hashed`` already lines up with ``keys``.
        if len(missing) == len(keys):
            digests = hashed
    return np.fromiter(digests, dtype=np.uint64, count=len(keys))


def partition_of(key: bytes, partitions: int) -> int:
    """EREW owner partition of ``key`` — shared by clients and server."""
    if partitions < 1:
        raise KVError(f"partitions must be >= 1, got {partitions}")
    return key_hash(key) % partitions


@dataclass(slots=True)
class _Slot:
    key: bytes
    value: bytes
    last_used: int


@dataclass
class StoreCostModel:
    """CPU time charged per executed store operation.

    ``base_us`` covers the hash + bucket walk, ``per_byte_us`` the value
    memcpy (default ≈ 16 GB/s), and with probability ``jitter_probability``
    an exponential tail of mean ``jitter_mean_us`` is added — occasional
    TLB misses / allocation stalls that give Table 3 its retry tail.
    """

    base_us: float = 0.10
    per_byte_us: float = 1.0 / 16384.0
    jitter_probability: float = 0.002
    jitter_mean_us: float = 4.0

    def cost(self, moved_bytes: int, rng: Optional[np.random.Generator]) -> float:
        cost = self.base_us + moved_bytes * self.per_byte_us
        if rng is not None and self.jitter_probability > 0:
            if rng.random() < self.jitter_probability:
                cost += float(rng.exponential(self.jitter_mean_us))
        return cost

    def advance(self, rng: Optional[np.random.Generator], n: int) -> None:
        """Consume exactly the draws ``n`` calls of :meth:`cost` would.

        Uniforms are drawn a chunk at a time; at the first one below
        ``jitter_probability`` the generator is rewound to the chunk start,
        re-draws up to and including that uniform, and draws the
        exponential, whose consumption varies, before the next chunk.
        Chunks span about eight expected gaps between hits, so the
        re-drawn share stays small at any probability.
        """
        if rng is None or not self.jitter_probability > 0:
            return
        span = min(_ADVANCE_CHUNK, 16 + int(8 / self.jitter_probability))
        bit_generator = rng.bit_generator
        while n > 0:
            chunk = min(n, span)
            start = bit_generator.state
            hits = np.flatnonzero(rng.random(chunk) < self.jitter_probability)
            if hits.size == 0:
                n -= chunk
                continue
            used = int(hits[0]) + 1
            bit_generator.state = start
            rng.random(used)
            rng.exponential(self.jitter_mean_us)
            n -= used


@dataclass
class StoreCounters:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    hits: Counter = field(default_factory=lambda: Counter("hits"))
    misses: Counter = field(default_factory=lambda: Counter("misses"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    updates: Counter = field(default_factory=lambda: Counter("updates"))
    evictions: Counter = field(default_factory=lambda: Counter("evictions"))


class JakiroStore:
    """The partitioned bucket/slot structure with strict per-bucket LRU.

    ``_buckets[partition][index]`` is ``None`` until the bucket's first
    insert, then a list of at most :data:`SLOTS_PER_BUCKET` slots.
    """

    def __init__(
        self,
        partitions: int,
        buckets_per_partition: int = 16384,
        max_key_bytes: int = 255,
        max_value_bytes: int = 16384,
        cost_model: Optional[StoreCostModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if partitions < 1:
            raise KVError(f"partitions must be >= 1, got {partitions}")
        if buckets_per_partition < 1:
            raise KVError("need at least one bucket per partition")
        self.partitions = partitions
        self.buckets_per_partition = buckets_per_partition
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.cost_model = cost_model if cost_model is not None else StoreCostModel()
        self._rng = rng
        self._clock = 0
        self._buckets = self._empty_buckets()
        self.counters = StoreCounters()

    # ------------------------------------------------------------------
    # Operations: each returns (result, charged_cpu_us)
    # ------------------------------------------------------------------

    def get(self, partition: int, key: bytes) -> Tuple[Optional[bytes], float]:
        """Look up ``key`` in its EREW partition; LRU-refresh on hit."""
        index = self._index(partition, key)
        bucket = self._buckets[partition][index]
        self.counters.gets.value += 1
        self._clock += 1
        if bucket is not None:
            for slot in bucket:
                if slot.key == key:
                    slot.last_used = self._clock
                    self.counters.hits.value += 1
                    cost = self.cost_model.cost(len(slot.value), self._rng)
                    return slot.value, cost
        self.counters.misses.value += 1
        return None, self.cost_model.cost(0, self._rng)

    def put(self, partition: int, key: bytes, value: bytes) -> Tuple[bool, float]:
        """Insert or update; returns (evicted_something, cpu_us)."""
        if len(key) > self.max_key_bytes:
            raise KeyTooLargeError(f"key of {len(key)} B > {self.max_key_bytes} B")
        if len(value) > self.max_value_bytes:
            raise ValueTooLargeError(
                f"value of {len(value)} B > {self.max_value_bytes} B"
            )
        index = self._index(partition, key)
        self.counters.puts.value += 1
        self._clock += 1
        cost = self.cost_model.cost(len(value), self._rng)
        evicted = self._insert(self._buckets[partition], index, key, value, self._clock)
        return evicted, cost

    def load(self, pairs: Iterable[Tuple[bytes, bytes]]) -> None:
        """Bulk-insert ``pairs`` (off-line, e.g. a dataset preload).

        The effect is exactly that of ``put(partition_of(key), key, value)``
        for each pair in order: the same slots in the same order, the same
        ``last_used`` stamps and counters, and the same cost-RNG draws.  An
        oversize key or value loads the pairs before it and then raises
        what :meth:`put` raises.  NumPy groups the batch by bucket and
        settles each bucket that was empty and receives no key twice in
        one slice; only the other buckets insert pair by pair.  Every key
        is in the key-hash memo when this returns.
        """
        pairs = list(pairs)
        keys = [key for key, _ in pairs]
        values = [value for _, value in pairs]
        count = len(pairs)
        if pairs and (
            max(map(len, keys)) > self.max_key_bytes
            or max(map(len, values)) > self.max_value_bytes
        ):
            count = next(
                i
                for i, (key, value) in enumerate(pairs)
                if len(key) > self.max_key_bytes or len(value) > self.max_value_bytes
            )
        self._place(keys, values, key_hashes(keys[:count]))
        self._clock += count
        self.counters.puts.increment(count)
        self.cost_model.advance(self._rng, count)
        if count < len(pairs):
            key, value = pairs[count]
            self.put(partition_of(key, self.partitions), key, value)

    def _place(
        self, keys: List[bytes], values: List[bytes], digests: np.ndarray
    ) -> None:
        """Insert pair ``i`` (one per digest) at clock ``self._clock + i + 1``,
        leaving the buckets and the update and eviction counters as that
        many ``put`` calls would.

        A bucket that was empty and receives no key twice ends with its
        last eight pairs in batch order, the earlier ones evicted oldest
        first, so it is written as one slice.  Every other bucket replays
        its pairs through :meth:`_insert`; buckets are independent, so
        replaying them after the others leaves the same state.
        """
        count = len(digests)
        clock = self._clock + 1
        partitions = self.partitions
        buckets = self._buckets
        # ``digest % (partitions * buckets_per_partition)`` is
        # ``index * partitions + owner``: one id per bucket.
        modulus = np.uint64(partitions * self.buckets_per_partition)
        flat = (digests % modulus).astype(np.int64)
        order = np.argsort(flat, kind="stable")
        grouped = flat[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        sizes = np.diff(starts, append=count)
        bucket_ids = grouped[starts]
        replay = np.array(
            [
                buckets[b % partitions][b // partitions] is not None
                for b in bucket_ids.tolist()
            ],
            dtype=bool,
        )
        # A repeated key repeats its digest, but distinct keys may share
        # one too: only an equal key is a repeat.
        ordered = np.sort(digests)
        shared = ordered[1:][ordered[1:] == ordered[:-1]]
        seen = set()
        for i in np.flatnonzero(np.isin(digests, shared)).tolist():
            if keys[i] in seen:
                replay[np.searchsorted(bucket_ids, flat[i])] = True
            seen.add(keys[i])

        in_replay = np.repeat(replay, sizes)
        from_end = np.repeat(starts + sizes, sizes) - np.arange(count)
        kept = order[(from_end <= SLOTS_PER_BUCKET) & ~in_replay].tolist()
        slots = [_Slot(keys[i], values[i], clock + i) for i in kept]
        settled = ~replay
        self.counters.evictions.increment(int(sizes[settled].sum()) - len(kept))
        ends = np.cumsum(np.minimum(sizes[settled], SLOTS_PER_BUCKET)).tolist()
        for b, start, end in zip(bucket_ids[settled].tolist(), [0] + ends, ends):
            buckets[b % partitions][b // partitions] = slots[start:end]

        insert = self._insert
        replayed = np.sort(order[in_replay])
        for i, b in zip(replayed.tolist(), flat[replayed].tolist()):
            partition = buckets[b % partitions]
            insert(partition, b // partitions, keys[i], values[i], clock + i)

    def peek(self, key: bytes) -> Optional[bytes]:
        """The value resident for ``key``, or ``None``.  A pure readout for
        verification: no cost, no clock tick, no counters, no LRU refresh."""
        partition = partition_of(key, self.partitions)
        bucket = self._buckets[partition][self._index(partition, key)]
        for slot in bucket or ():
            if slot.key == key:
                return slot.value
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total key-value pairs resident across all partitions."""
        return sum(self.partition_sizes().values())

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every resident ``(key, value)`` pair, in deterministic
        (partition, bucket, slot) order — the enumeration the cluster's
        recovery coordinator streams from donor shards.  Charges no cost
        and does not touch LRU recency."""
        for partition in self._buckets:
            for bucket in filter(None, partition):
                for slot in bucket:
                    yield slot.key, slot.value

    def clear(self) -> None:
        """Drop every resident pair (a cold restart loses host memory);
        counters survive, mirroring persistent monitoring."""
        self._buckets = self._empty_buckets()

    def partition_sizes(self) -> Dict[int, int]:
        return {
            index: sum(map(len, filter(None, partition)))
            for index, partition in enumerate(self._buckets)
        }

    def bucket_sizes(self) -> List[List[int]]:
        """Resident pairs in every bucket, one list per partition."""
        return [
            [len(bucket) if bucket else 0 for bucket in partition]
            for partition in self._buckets
        ]

    def _empty_buckets(self) -> List[List[Optional[List[_Slot]]]]:
        return [[None] * self.buckets_per_partition for _ in range(self.partitions)]

    def _index(self, partition: int, key: bytes) -> int:
        """``key``'s bucket index, checking that ``partition`` owns it."""
        if not 0 <= partition < self.partitions:
            raise KVError(f"partition {partition} out of range")
        digest = key_hash(key)
        expected = digest % self.partitions
        if partition != expected:
            raise KVError(
                f"EREW violation: key belongs to partition {expected}, "
                f"thread touched {partition}"
            )
        return (digest // self.partitions) % self.buckets_per_partition

    def _insert(
        self,
        partition: List[Optional[List[_Slot]]],
        index: int,
        key: bytes,
        value: bytes,
        clock: int,
    ) -> bool:
        """Insert or update ``key`` in bucket ``index`` at time ``clock``,
        evicting the strictly least-recently-used slot of a full bucket;
        returns whether a slot was evicted."""
        bucket = partition[index]
        if bucket is None:
            partition[index] = [_Slot(key, value, clock)]
            return False
        for slot in bucket:
            if slot.key == key:
                slot.value = value
                slot.last_used = clock
                self.counters.updates.value += 1
                return False
        evicted = len(bucket) >= SLOTS_PER_BUCKET
        if evicted:
            victim = min(range(len(bucket)), key=lambda i: bucket[i].last_used)
            bucket.pop(victim)
            self.counters.evictions.value += 1
        bucket.append(_Slot(key, value, clock))
        return evicted
