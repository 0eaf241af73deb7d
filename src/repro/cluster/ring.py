"""Deterministic consistent-hash ring with virtual nodes.

The ring places ``vnodes`` tokens per shard on a 64-bit circle (token =
CRC64 of ``"<node>#vnode<i>"``, the same :func:`repro.kv.store.key_hash`
the stores use, so placement is identical across runs and machines) and
routes a key to the first token clockwise of the key's hash.  Two
properties the cluster layer builds on:

- **balance** — with ≥100 virtual nodes per shard the max/min shard load
  ratio over a uniform key population stays small (the property suite
  bounds it), so no shard becomes an accidental hot spot;
- **remap minimality** — adding or removing one of N shards remaps only
  the ~1/N of keys whose clockwise successor changed; every remapped key
  moves to/from the joining/leaving shard and nowhere else.

Beyond whole-shard membership the ring supports *vnode surgery*
(:meth:`move_vnode` / :meth:`with_vnodes_moved`): reassigning a single
token to another live shard, which remaps exactly that token's range and
nothing else.  This is the cutover primitive live rebalancing builds on
— a hot shard's busiest vnode can be handed to a cold shard without
touching any other placement.  Token ownership is therefore *state*, not
a pure function of membership: copies (:meth:`with_node`,
:meth:`with_vnodes_moved`) carry the current assignment forward, and
:meth:`token_of` exposes the owning token per key so per-vnode load can
be attributed from routed traffic.

Replica placement follows the textbook rule: the replicas of a key are
the first ``count`` *distinct* shards clockwise of its hash.  That makes
failover a pure ring operation — removing a dead shard re-routes each of
its ranges to exactly the shard that already held the range's replica.
Routing resolves one key at a time (:meth:`replicas`, memoized);
whole batches — a dataset preload, a migration plan — are placed in one
NumPy pass by :meth:`place_many`, which applies the same rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.errors import ClusterError
from repro.kv.store import key_hash, key_hashes

__all__ = ["HashRing"]


class HashRing:
    """Consistent hashing over named shards with virtual nodes."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 128) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: Set[str] = set()
        #: Sorted ``(token, node)`` pairs; ties broken by node name so the
        #: ring order is a pure function of its membership.
        self._tokens: List[Tuple[int, str]] = []
        # Placement is a pure function of membership, so lookups memoize
        # per (key, count) until the membership changes.  Routers resolve
        # the same small key population on every op.
        self._lookup_cache: Dict[Tuple[bytes, int], Tuple[str, ...]] = {}
        #: Memoized key -> owning token (cleared with the lookup cache);
        #: lets the router attribute per-vnode load without re-bisecting.
        self._token_cache: Dict[bytes, int] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _node_tokens(self, node: str) -> List[int]:
        return [
            key_hash(f"{node}#vnode{index}".encode("utf-8"))
            for index in range(self.vnodes)
        ]

    def add_node(self, node: str) -> None:
        """Join ``node``: insert its virtual-node tokens."""
        if not node:
            raise ClusterError("node name must be non-empty")
        if node in self._nodes:
            raise ClusterError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        self._invalidate()
        present = {token for token, _ in self._tokens}
        for token in self._node_tokens(node):
            # A canonical token of the joiner may already be live under a
            # different owner after vnode surgery; the moved assignment
            # wins (re-join must not silently undo a rebalance).  With no
            # moves this never triggers — CRC64 token collisions between
            # distinct names are effectively impossible.
            if token in present:
                continue
            insort(self._tokens, (token, node))

    def remove_node(self, node: str) -> None:
        """Leave ``node``: its ranges fall to their clockwise successors."""
        if node not in self._nodes:
            raise ClusterError(f"node {node!r} is not on the ring")
        self._nodes.remove(node)
        self._invalidate()
        self._tokens = [entry for entry in self._tokens if entry[1] != node]

    def with_node(self, node: str) -> "HashRing":
        """A copy of this ring with ``node`` joined (the original is
        untouched).

        The copy carries the current token *assignment* forward — vnodes
        moved by rebalancing stay where they are — so it is exactly the
        ring the cluster will have once ``node`` re-enters via
        :meth:`add_node`.  Recovery plans its range transfers against it,
        and re-adding a previously removed shard restores the pre-crash
        ring exactly.
        """
        restored = self._clone()
        restored.add_node(node)
        return restored

    def with_vnodes_moved(self, moves: Mapping[int, str]) -> "HashRing":
        """A copy of this ring with each ``token -> node`` move applied
        (the original is untouched) — the target ring a live vnode
        migration streams data toward before cutting over."""
        moved = self._clone()
        for token, node in sorted(moves.items()):
            moved.move_vnode(token, node)
        return moved

    def move_vnode(self, token: int, to_node: str) -> None:
        """Reassign the vnode at ``token`` to ``to_node``.

        Exactly the keys hashing into ``token``'s range change primary —
        every other placement is untouched.  This is the rebalancing
        cutover primitive; the migration engine calls it only after the
        range's data is fully resident on ``to_node``.
        """
        if to_node not in self._nodes:
            raise ClusterError(f"node {to_node!r} is not on the ring")
        index = self._token_index(token)
        if self._tokens[index][1] == to_node:
            raise ClusterError(f"token {token} is already owned by {to_node!r}")
        self._invalidate()
        self._tokens[index] = (token, to_node)

    def owner_of(self, token: int) -> str:
        """The shard currently assigned the vnode at ``token``."""
        return self._tokens[self._token_index(token)][1]

    def _token_index(self, token: int) -> int:
        index = bisect_left(self._tokens, (token,))
        if index >= len(self._tokens) or self._tokens[index][0] != token:
            raise ClusterError(f"token {token} is not on the ring")
        return index

    def _clone(self) -> "HashRing":
        clone = HashRing(vnodes=self.vnodes)
        clone._nodes = set(self._nodes)
        clone._tokens = list(self._tokens)
        return clone

    def _invalidate(self) -> None:
        self._lookup_cache.clear()
        self._token_cache.clear()

    @property
    def nodes(self) -> List[str]:
        """Current members, sorted by name."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def lookup(self, key: bytes) -> str:
        """The shard owning ``key`` (its primary)."""
        return self.lookup_replicas(key, 1)[0]

    def lookup_replicas(self, key: bytes, count: int) -> List[str]:
        """The first ``count`` distinct shards clockwise of ``key``.

        ``replicas[0]`` is the primary; the rest are backups in takeover
        order.  ``count`` is clamped to the ring size.
        """
        return list(self.replicas(key, count))

    def replicas(self, key: bytes, count: int) -> Tuple[str, ...]:
        """:meth:`lookup_replicas` as the memoized tuple itself, with no
        copy: what the router reads on every operation."""
        cached = self._lookup_cache.get((key, count))
        if cached is None:
            clamped = self._clamped(count)
            index = bisect_right(self._tokens, (key_hash(key),))
            cached = tuple(self._replicas_from(index, clamped))
            self._lookup_cache[(key, count)] = cached
        return cached

    def place_many(self, keys: Sequence[bytes], count: int) -> Dict[str, np.ndarray]:
        """Every member's share of a batch: ``placed[node][i]`` is True
        when ``node`` is in ``lookup_replicas(keys[i], count)``.

        One pass for the whole batch.  The keys are hashed by
        :func:`~repro.kv.store.key_hashes` (which memoizes them); each
        finds its first token clockwise with ``searchsorted`` — a digest
        equal to a token starts at that token, as in
        :meth:`lookup_replicas`, and a digest past the largest token wraps
        to the smallest — and each token's replica set is walked once.
        The lookup memo is left as it was: routing fills it on demand.
        """
        clamped = self._clamped(count)
        tokens = self._tokens
        nodes = sorted(self._nodes)
        column = {node: row for row, node in enumerate(nodes)}
        # member[node, start]: ``node`` replicates the keys that start at
        # token ``start``.
        member = np.zeros((len(nodes), len(tokens)), dtype=bool)
        for start in range(len(tokens)):
            for node in self._replicas_from(start, clamped):
                member[column[node], start] = True
        points = np.array([token for token, _ in tokens], dtype=np.uint64)
        starts = np.searchsorted(points, key_hashes(keys), side="left") % len(tokens)
        return dict(zip(nodes, member[:, starts]))

    def _clamped(self, count: int) -> int:
        """``count`` clamped to the ring size, after checking the ring can
        place anything."""
        if not self._tokens:
            raise ClusterError("lookup on an empty ring")
        if count < 1:
            raise ClusterError(f"replica count must be >= 1, got {count}")
        return min(count, len(self._nodes))

    def _replicas_from(self, index: int, count: int) -> List[str]:
        """The first ``count`` distinct shards clockwise from token
        ``index`` (which may be one past the last token)."""
        tokens = self._tokens
        replicas: List[str] = []
        for step in range(len(tokens)):
            node = tokens[(index + step) % len(tokens)][1]
            if node not in replicas:
                replicas.append(node)
                if len(replicas) == count:
                    break
        return replicas

    def token_of(self, key: bytes) -> int:
        """The token owning ``key`` — the first token clockwise of its
        hash.  Identifies the vnode a routed op lands on, so windowed
        load can be attributed per vnode, not just per shard."""
        cached = self._token_cache.get(key)
        if cached is not None:
            return cached
        if not self._tokens:
            raise ClusterError("token_of on an empty ring")
        index = bisect_right(self._tokens, (key_hash(key),))
        token = self._tokens[index % len(self._tokens)][0]
        self._token_cache[key] = token
        return token

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tokens_of(self, node: str) -> List[int]:
        """The tokens currently assigned to ``node``, ascending."""
        if node not in self._nodes:
            raise ClusterError(f"node {node!r} is not on the ring")
        return [token for token, owner in self._tokens if owner == node]

    def load_counts(self, keys: Sequence[bytes]) -> Dict[str, int]:
        """Keys owned per shard — the balance metric the tests bound."""
        return {
            node: int(np.count_nonzero(owned))
            for node, owned in self.place_many(keys, 1).items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing({len(self._nodes)} nodes x {self.vnodes} vnodes)"
