"""RDMA-Memcached (OSU) — the CPU-bound server-reply baseline (§4.2).

The paper's characterization, which this model reproduces:

- server threads *share* the cache (hash table + global LRU list), so
  every request takes a global lock for the LRU/bookkeeping critical
  section — writes hold it much longer than reads (Fig. 16's collapse
  under PUT-heavy load),
- each thread also packs/unpacks messages and performs its own network
  operations, a heavyweight software path — so throughput is bounded by
  CPU, not the RNIC, and grows with thread count up to the core count
  (Fig. 12),
- skewed workloads *help*: hot keys hit caches and shortcut the lookup
  path, letting 16 threads finally saturate the out-bound pipeline
  (Fig. 19).

Results are pushed back with out-bound RDMA Writes, so even the best
case is capped at the out-bound rate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence, Tuple

from repro.core.config import RfpConfig
from repro.core.headers import REQUEST_HEADER_BYTES, RequestHeader
from repro.core.mode import Mode
from repro.core.rpc import RPC_MALFORMED, RPC_NO_FUNCTION, RpcClient
from repro.core.server import ClientChannel, RfpServer
from repro.errors import KVError, ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.kv.serialization import (
    GET_FUNCTION,
    PUT_FUNCTION,
    STATUS_MALFORMED,
    STATUS_NOT_FOUND,
    STATUS_OK,
    pack_get_request,
    pack_put_request,
    unpack_get_request,
    unpack_put_request,
)
from repro.paradigms.server_reply import ServerReplyClient
from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.sim.resources import Resource, Store

__all__ = ["MemcachedCostModel", "RdmaMemcachedServer", "RdmaMemcachedClient"]


@dataclass(frozen=True)
class MemcachedCostModel:
    """Per-request CPU costs, calibrated to the paper's measurements
    (peak 1.3 MOPS at 16 threads for 95% GET; ~14x below Jakiro at
    95% PUT; out-bound-saturating under skew)."""

    recv_handling_us: float = 1.2
    get_process_us: float = 9.0
    put_process_us: float = 12.0
    get_lock_us: float = 0.6
    put_lock_us: float = 2.5
    #: Multiplier on process time when the key was touched recently
    #: (cache locality under skew).
    locality_factor: float = 0.30
    locality_window: int = 512


@dataclass
class MemcachedStats:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    hits: Counter = field(default_factory=lambda: Counter("hits"))
    lock_waits: Counter = field(default_factory=lambda: Counter("lock_waits"))


class _SharedLruCache:
    """The shared hash + global LRU structure all server threads touch."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise KVError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.evictions = 0

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        if key in self._items:
            self._items.move_to_end(key)
        elif len(self._items) >= self.capacity:
            self._items.popitem(last=False)
            self.evictions += 1
        self._items[key] = value

    def __len__(self) -> int:
        return len(self._items)


class RdmaMemcachedServer(RfpServer):
    """Memcached-style server: shared cache, global lock, CPU-heavy path.

    Reuses the channel/buffer plumbing of :class:`RfpServer` but replaces
    the worker loop: every request crosses the global LRU lock and the
    thread pushes its own reply.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        threads: int = 16,
        capacity: int = 1 << 20,
        cost_model: MemcachedCostModel = MemcachedCostModel(),
        config: Optional[RfpConfig] = None,
        name: str = "rdma-memcached",
    ) -> None:
        machine = machine if machine is not None else cluster.server
        self.cache = _SharedLruCache(capacity)
        self.cost_model = cost_model
        self.lock = Resource(sim, capacity=1)
        self.kv_stats = MemcachedStats()
        self._recent: "OrderedDict[bytes, None]" = OrderedDict()
        super().__init__(
            sim,
            cluster,
            machine,
            handler=self._unused_handler,
            threads=threads,
            config=config if config is not None else RfpConfig(hybrid_enabled=False),
            name=name,
        )

    @staticmethod
    def _unused_handler(payload: bytes, context) -> Tuple[bytes, float]:
        raise AssertionError("memcached overrides the worker loop")  # pragma: no cover

    def accept(self, client_machine, reply_region, thread_id=None) -> ClientChannel:
        channel = super().accept(client_machine, reply_region, thread_id)
        channel.mode = Mode.SERVER_REPLY
        return channel

    def preload(self, pairs) -> None:
        for key, value in pairs:
            self.cache.put(key, value)

    # ------------------------------------------------------------------
    # The memcached worker loop
    # ------------------------------------------------------------------

    def _thread_body(self, thread_id: int, store: Store):
        sim = self.sim
        cost = self.cost_model
        while True:
            channel: ClientChannel = yield store.get()
            yield sim.timeout(cost.recv_handling_us)
            header = RequestHeader.unpack(
                channel.request_region.read_local(0, REQUEST_HEADER_BYTES)
            )
            payload = channel.request_region.read_local(
                REQUEST_HEADER_BYTES, header.size
            )
            response = yield from self._execute(payload)
            self._publish_response(channel, header.status, response)
            yield from self._send_reply(channel)

    def _execute(self, payload: bytes) -> Generator:
        """Decode, take the lock, run the request; returns the response.
        A request that does not decode is answered before the lock, with
        no process time, like the RPC stubs answer one."""
        sim = self.sim
        cost = self.cost_model
        if len(payload) < 2:
            return bytes([RPC_MALFORMED])
        function_id = payload[0]
        arguments = payload[2:]
        try:
            if function_id == GET_FUNCTION:
                key = unpack_get_request(arguments)
                lock_us, process_us = cost.get_lock_us, cost.get_process_us
            elif function_id == PUT_FUNCTION:
                key, value = unpack_put_request(arguments)
                lock_us, process_us = cost.put_lock_us, cost.put_process_us
            else:
                return bytes([RPC_NO_FUNCTION])
        except ProtocolError:
            return bytes([STATUS_MALFORMED])
        # Hot keys shortcut both the lookup work *and* the time spent
        # under the global lock (warm hash walk) — this is why skewed
        # read-heavy load lets memcached finally reach the out-bound
        # ceiling (§4.4.3, Fig. 19).
        locality = self._locality(key)
        process_us *= locality
        if function_id == GET_FUNCTION:
            lock_us *= locality
        grant = self.lock.request()
        if not grant.triggered:
            self.kv_stats.lock_waits.increment()
        yield grant
        yield sim.timeout(lock_us)
        if function_id == GET_FUNCTION:
            value = self.cache.get(key)
            self.kv_stats.gets.increment()
            if value is not None:
                self.kv_stats.hits.increment()
        else:
            self.cache.put(key, value)
            self.kv_stats.puts.increment()
            value = b""
        self.lock.release()
        yield sim.timeout(process_us)
        if function_id == GET_FUNCTION and value is None:
            return bytes([STATUS_NOT_FOUND])
        return bytes([STATUS_OK]) + (value if function_id == GET_FUNCTION else b"")

    def _locality(self, key: bytes) -> float:
        """Recently-touched keys process faster (cache locality, §4.4.3)."""
        factor = (
            self.cost_model.locality_factor if key in self._recent else 1.0
        )
        self._recent[key] = None
        self._recent.move_to_end(key)
        while len(self._recent) > self.cost_model.locality_window:
            self._recent.popitem(last=False)
        return factor

    def connect(self, machine: Machine, name: str = "") -> "RdmaMemcachedClient":
        return RdmaMemcachedClient(self.sim, machine, self, name=name)


class RdmaMemcachedClient:
    """A memcached client: single server-reply transport, GET/PUT API."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: RdmaMemcachedServer,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.server = server
        self.name = name or f"memcached-client@{machine.name}"
        self.transport = ServerReplyClient(sim, machine, server, name=self.name)
        self._rpc = RpcClient(self.transport)

    def busy_time(self) -> float:
        """Client CPU time spent in the transport (µs)."""
        return self.transport.stats.busy.busy_time

    def fetch_attempt_samples(self) -> Sequence[float]:
        """Remote fetches per call (empty: replies are always pushed)."""
        return self.transport.stats.fetch_attempts.samples

    def get(self, key: bytes) -> Generator:
        """Process body: GET; returns value or ``None``."""
        status, value = yield from self._rpc.call(GET_FUNCTION, pack_get_request(key))
        if status == STATUS_NOT_FOUND:
            return None
        if status != STATUS_OK:
            raise KVError(f"memcached GET failed with status {status}")
        return value

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: PUT."""
        status, _ = yield from self._rpc.call(
            PUT_FUNCTION, pack_put_request(key, value)
        )
        if status != STATUS_OK:
            raise KVError(f"memcached PUT failed with status {status}")
        return None
