"""Property-based tests for the consistent-hash ring.

Four families of properties back the cluster router's routing claims:
balance (no node starves with enough vnodes), remap minimality (a
membership change only moves the keys it must), determinism (a fixed
seed yields a fixed routing decision sequence), and parity (the
whole-batch placement agrees with the per-key lookup).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kv.store as store_module
from repro.cluster import HashRing
from repro.sim import seeded_rng

node_counts = st.integers(min_value=2, max_value=8)
vnode_counts = st.integers(min_value=100, max_value=256)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def nodes(count):
    return [f"shard{i}" for i in range(count)]


def random_keys(seed, count=2000):
    rng = seeded_rng(seed)
    return [bytes(row) for row in rng.integers(0, 256, size=(count, 12), dtype="u1")]


class TestBalance:
    @settings(max_examples=25, deadline=None)
    @given(node_counts, vnode_counts, seeds)
    def test_load_ratio_bounded_with_enough_vnodes(self, count, vnodes, seed):
        """With >=100 vnodes no node sees more than ~4x the least-loaded
        node -- the guarantee that makes per-shard throughput comparable."""
        ring = HashRing(nodes(count), vnodes=vnodes)
        loads = ring.load_counts(random_keys(seed))
        assert set(loads) == set(nodes(count))
        assert min(loads.values()) > 0
        assert max(loads.values()) / min(loads.values()) <= 4.0

    @settings(max_examples=25, deadline=None)
    @given(node_counts, vnode_counts, seeds)
    def test_no_node_hoards_the_keyspace(self, count, vnodes, seed):
        ring = HashRing(nodes(count), vnodes=vnodes)
        loads = ring.load_counts(keys := random_keys(seed))
        assert max(loads.values()) <= 3.0 * len(keys) / count


class TestRemapMinimality:
    @settings(max_examples=25, deadline=None)
    @given(node_counts, seeds)
    def test_join_moves_only_to_the_new_node(self, count, seed):
        """Keys that change owner on a join all land on the joiner, and
        roughly 1/(N+1) of the keyspace moves -- never a full reshuffle."""
        ring = HashRing(nodes(count), vnodes=128)
        keys = random_keys(seed)
        before = {key: ring.lookup(key) for key in keys}
        ring.add_node("joiner")
        moved = [key for key in keys if ring.lookup(key) != before[key]]
        assert all(ring.lookup(key) == "joiner" for key in moved)
        ideal = len(keys) / (count + 1)
        assert len(moved) <= 2.5 * ideal

    @settings(max_examples=25, deadline=None)
    @given(node_counts, seeds)
    def test_leave_moves_only_the_leavers_keys(self, count, seed):
        """Failover semantics: removing a node relocates exactly the keys
        it owned; every other key keeps its owner."""
        ring = HashRing(nodes(count), vnodes=128)
        keys = random_keys(seed)
        before = {key: ring.lookup(key) for key in keys}
        ring.remove_node("shard0")
        for key in keys:
            if before[key] == "shard0":
                assert ring.lookup(key) != "shard0"
            else:
                assert ring.lookup(key) == before[key]


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(node_counts, seeds)
    def test_fixed_seed_fixed_routing(self, count, seed):
        """Two rings built independently route a seeded key stream
        identically -- the repo-wide determinism contract."""
        keys = random_keys(seed, count=500)
        first = HashRing(nodes(count), vnodes=128)
        second = HashRing(list(reversed(nodes(count))), vnodes=128)
        assert [first.lookup(k) for k in keys] == [second.lookup(k) for k in keys]

    @settings(max_examples=25, deadline=None)
    @given(node_counts, seeds, st.integers(min_value=1, max_value=4))
    def test_replica_sets_deterministic(self, count, seed, factor):
        ring = HashRing(nodes(count), vnodes=128)
        for key in random_keys(seed, count=200):
            assert ring.lookup_replicas(key, factor) == ring.lookup_replicas(
                key, factor
            )


class TestBulkPlacementParity:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=16),
        seeds,
        st.data(),
    )
    def test_place_many_matches_lookup_replicas(self, count, vnodes, seed, data):
        """``place_many`` puts each key on exactly the shards
        ``lookup_replicas`` names, on rings with moved vnodes, for every
        replica count up to one past the ring size — including keys whose
        digest equals a token and keys past the largest token."""
        ring = HashRing(nodes(count), vnodes=vnodes)
        tokens = sorted(token for node in ring.nodes for token in ring.tokens_of(node))
        moves = data.draw(
            st.lists(
                st.tuples(st.sampled_from(tokens), st.sampled_from(ring.nodes)),
                max_size=8,
            )
        )
        for token, node in moves:
            if ring.owner_of(token) != node:
                ring.move_vnode(token, node)
        factor = data.draw(st.integers(min_value=1, max_value=count + 1))
        edges = [0, tokens[-1] + 1, 2**64 - 1]
        picked = data.draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=6))
        for token in picked:
            edges += [token - 1, token, token + 1]
        # Plant digests through the key-hash memo, as a key hashing to
        # each edge would; the memo is restored afterwards.
        memo = store_module._KEY_HASHES
        planted = {
            b"planted-%d" % index: digest
            for index, digest in enumerate(edges)
            if 0 <= digest < 2**64
        }
        saved = {key: memo.pop(key) for key in planted if key in memo}
        memo.update(planted)
        try:
            keys = list(planted) + random_keys(seed, count=100)
            placed = ring.place_many(keys, factor)
            assert list(placed) == ring.nodes
            for node, mask in placed.items():
                expected = [node in ring.lookup_replicas(key, factor) for key in keys]
                assert mask.tolist() == expected, node
        finally:
            for key in planted:
                memo.pop(key, None)
            memo.update(saved)
