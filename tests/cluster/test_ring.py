"""Unit tests for the consistent-hash ring."""

import pytest

from repro.cluster import HashRing
from repro.errors import ClusterError


def keys(count):
    return [f"key{i:05d}".encode() for i in range(count)]


class TestConstruction:
    def test_empty_ring_rejects_lookup(self):
        ring = HashRing()
        with pytest.raises(ClusterError):
            ring.lookup(b"k")

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ClusterError):
            HashRing(["a"], vnodes=0)

    def test_nodes_sorted_and_contains(self):
        ring = HashRing(["b", "a", "c"])
        assert ring.nodes == ["a", "b", "c"]
        assert "b" in ring
        assert "z" not in ring
        assert len(ring) == 3

    def test_duplicate_node_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError):
            ring.add_node("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ClusterError):
            HashRing(["a"]).remove_node("b")


class TestLookup:
    def test_deterministic(self):
        first = HashRing(["a", "b", "c"])
        second = HashRing(["c", "a", "b"])  # insertion order is irrelevant
        for key in keys(200):
            assert first.lookup(key) == second.lookup(key)

    def test_single_node_gets_everything(self):
        ring = HashRing(["only"])
        assert all(ring.lookup(key) == "only" for key in keys(50))

    def test_replicas_distinct_and_primary_first(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        for key in keys(100):
            replicas = ring.lookup_replicas(key, 2)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
            assert replicas[0] == ring.lookup(key)

    def test_replica_count_clamped_to_ring_size(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.lookup_replicas(b"k", 5)) == ["a", "b"]

    def test_replica_count_must_be_positive(self):
        with pytest.raises(ClusterError):
            HashRing(["a"]).lookup_replicas(b"k", 0)


class TestMembershipChanges:
    def test_removal_reroutes_to_prior_replica(self):
        """The failover mechanism: dropping a node sends each of its keys
        to exactly the node that already held the key's second replica."""
        ring = HashRing(["a", "b", "c"], vnodes=128)
        expectations = {
            key: ring.lookup_replicas(key, 2)
            for key in keys(300)
            if ring.lookup(key) == "b"
        }
        ring.remove_node("b")
        for key, (_, backup) in expectations.items():
            assert ring.lookup(key) == backup

    def test_add_then_remove_is_identity(self):
        ring = HashRing(["a", "b"], vnodes=64)
        before = {key: ring.lookup(key) for key in keys(200)}
        ring.add_node("c")
        ring.remove_node("c")
        assert {key: ring.lookup(key) for key in keys(200)} == before

    def test_load_counts_accounts_every_key(self):
        ring = HashRing(["a", "b", "c"], vnodes=128)
        counts = ring.load_counts(keys(300))
        assert sum(counts.values()) == 300
        assert set(counts) == {"a", "b", "c"}


class TestPlaceMany:
    def test_empty_ring_and_bad_count_rejected_like_lookup(self):
        with pytest.raises(ClusterError, match="empty ring"):
            HashRing().place_many([b"k"], 1)
        ring = HashRing(["a", "b"], vnodes=8)
        for count in (0, -1):
            with pytest.raises(ClusterError, match="replica count must be >= 1"):
                ring.place_many([b"k"], count)

    def test_empty_batch_places_nothing(self):
        placed = HashRing(["b", "a"], vnodes=8).place_many([], 2)
        assert {node: mask.tolist() for node, mask in placed.items()} == {
            "a": [],
            "b": [],
        }

    def test_lookup_memo_left_cold(self):
        """Routing fills the memo on demand; a batch placement does not."""
        ring = HashRing(["a", "b", "c"], vnodes=16)
        ring.place_many(keys(50), 2)
        assert not ring._lookup_cache
