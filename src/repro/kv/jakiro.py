"""Jakiro — the paper's RFP-based in-memory key-value store (§4.1).

Two halves:

- :class:`Jakiro` — the server: an :class:`~repro.core.server.RfpServer`
  whose handler is an RPC dispatcher with GET/PUT registered against the
  EREW-partitioned :class:`~repro.kv.store.JakiroStore`.  Server threads
  spend no cycles on networking in remote-fetch mode; they only poll,
  process, and buffer responses locally.
- :class:`JakiroClient` — one client thread.  It holds one RFP transport
  per server thread and routes each key to the transport pinned to the
  partition-owning thread (MICA-style EREW routing), so no server-side
  locking is ever needed.  The client thread registers once with its
  NIC's contention model regardless of how many transports it holds.

The RPC flow is exactly Fig. 8(a): ``prepare request → client_send →
client_recv``.  The client marshals with the RPC stub's plain
:meth:`~repro.core.rpc.RpcClient.encode`/``decode`` and yields straight
from the RFP transport's ``call``, so all the remote-fetch machinery
stays beneath the stubs without a generator frame per layer.

A request the store rejects (a key or value over its size limits) is
answered with :data:`~repro.kv.serialization.STATUS_TOO_LARGE`; the
client raises :class:`~repro.errors.KVError` and the server thread goes
on serving.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.core.client import RfpClient
from repro.core.config import RfpConfig
from repro.core.rpc import RPC_OK, RpcClient, RpcServer
from repro.core.server import RequestContext, RfpServer
from repro.errors import KVError, KeyTooLargeError, ValueTooLargeError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.kv.serialization import (
    GET_FUNCTION,
    PUT_FUNCTION,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_TOO_LARGE,
    pack_get_request,
    pack_put_request,
    unpack_get_request,
    unpack_put_request,
)
from repro.kv.store import JakiroStore, StoreCostModel, partition_of
from repro.sim.core import Simulator
from repro.sim.random import seeded_rng

__all__ = ["Jakiro", "JakiroClient"]


class Jakiro:
    """The Jakiro server: RFP transport + RPC stubs + partitioned store."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        threads: int = 6,
        config: Optional[RfpConfig] = None,
        buckets_per_partition: int = 16384,
        max_value_bytes: int = 16384,
        cost_model: Optional[StoreCostModel] = None,
        seed: int = 0,
        name: str = "jakiro",
        server_class: type = RfpServer,
        client_class: type = RfpClient,
        tracer=None,
    ) -> None:
        """``server_class``/``client_class`` default to the RFP transport;
        the ServerReply baseline injects its pinned-mode subclasses here —
        mirroring how the paper's ServerReply "is extended from Jakiro"
        (§4.2).  ``tracer`` (a :class:`repro.sim.Tracer`) is forwarded to
        the server and every connected client, so a protocol invariant
        checker can observe a whole KV run."""
        self.sim = sim
        self.cluster = cluster
        self.machine = machine if machine is not None else cluster.server
        self.config = config if config is not None else RfpConfig()
        self.store = JakiroStore(
            partitions=threads,
            buckets_per_partition=buckets_per_partition,
            max_value_bytes=max_value_bytes,
            cost_model=cost_model,
            rng=seeded_rng(seed),
        )
        rpc = RpcServer()
        rpc.register(GET_FUNCTION, self._handle_get)
        rpc.register(PUT_FUNCTION, self._handle_put)
        self.rpc = rpc
        self.client_class = client_class
        self.tracer = tracer
        self.server = server_class(
            sim, cluster, self.machine, rpc.handle, threads, self.config, name,
            tracer=tracer,
        )

    @property
    def threads(self) -> int:
        return self.server.threads

    def connect(
        self,
        machine: Machine,
        config: Optional[RfpConfig] = None,
        name: str = "",
        register_issuer: bool = True,
        tracer=None,
    ) -> "JakiroClient":
        """Attach one client thread running on ``machine``."""
        return JakiroClient(
            self.sim,
            machine,
            self,
            config=config,
            name=name,
            register_issuer=register_issuer,
            tracer=tracer,
        )

    def preload(self, pairs) -> None:
        """Load key-value pairs directly (off-line dataset population).

        The paper preloads 128M YCSB pairs before measuring; preloading
        bypasses simulated time, exactly like loading before the clock
        starts.  :meth:`JakiroStore.load` leaves the store exactly as one
        ``put`` per pair would.
        """
        self.store.load(pairs)

    def restart(self) -> None:
        """Reboot after a :meth:`RfpServer.halt` crash: worker threads
        serve again and the store comes back *empty* — host memory is
        volatile, so every resident pair died with the machine.  The
        cluster's recovery coordinator streams the shard's ranges back
        from replicas before it rejoins the ring."""
        self.server.restart()
        self.store.clear()

    # ------------------------------------------------------------------
    # RPC handlers (run on the owning server thread)
    # ------------------------------------------------------------------

    def _handle_get(
        self, arguments: bytes, context: RequestContext
    ) -> Tuple[int, bytes, float]:
        key = unpack_get_request(arguments)
        value, cost = self.store.get(context.thread_id, key)
        if value is None:
            return STATUS_NOT_FOUND, b"", cost
        return STATUS_OK, value, cost

    def _handle_put(
        self, arguments: bytes, context: RequestContext
    ) -> Tuple[int, bytes, float]:
        key, value = unpack_put_request(arguments)
        try:
            _evicted, cost = self.store.put(context.thread_id, key, value)
        except (KeyTooLargeError, ValueTooLargeError):
            # The size checks run before the store charges any cost or
            # draws from its RNG, so a rejection costs nothing.
            return STATUS_TOO_LARGE, b"", 0.0
        return STATUS_OK, b"", cost


class JakiroClient:
    """One client thread; EREW-routes keys across per-thread transports."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        jakiro: Jakiro,
        config: Optional[RfpConfig] = None,
        name: str = "",
        register_issuer: bool = True,
        tracer=None,
    ) -> None:
        """``register_issuer=False`` lets one client *thread* that holds
        clients to several shards count once in the NIC contention model.
        ``tracer`` defaults to the server-side tracer, so one tracer sees
        both halves of the protocol."""
        self.sim = sim
        self.machine = machine
        self.jakiro = jakiro
        self.name = name or f"jakiro-client@{machine.name}"
        if tracer is None:
            tracer = jakiro.tracer
        if register_issuer:
            machine.rnic.register_issuer()
        self._transports: List[RfpClient] = []
        for thread_id in range(jakiro.threads):
            transport = jakiro.client_class(
                sim,
                machine,
                jakiro.server,
                config=config,
                name=f"{self.name}.p{thread_id}",
                thread_id=thread_id,
                register_issuer=False,
                tracer=tracer,
            )
            self._transports.append(transport)

    # ------------------------------------------------------------------
    # The KV API (Fig. 8a)
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        """Process body: GET; returns the value or ``None`` if absent."""
        response = yield from self._route(key).call(
            RpcClient.encode(GET_FUNCTION, pack_get_request(key))
        )
        status, value = RpcClient.decode(response)
        if status == STATUS_NOT_FOUND:
            return None
        if status != STATUS_OK:
            raise KVError(f"GET failed with status {status}")
        return value

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: PUT; returns None."""
        response = yield from self._route(key).call(
            RpcClient.encode(PUT_FUNCTION, pack_put_request(key, value))
        )
        status, _ = RpcClient.decode(response)
        if status not in (STATUS_OK, RPC_OK):
            raise KVError(f"PUT failed with status {status}")
        return None

    def _route(self, key: bytes) -> RfpClient:
        transports = self._transports
        return transports[partition_of(key, len(transports))]

    # ------------------------------------------------------------------
    # Aggregated statistics across the per-partition transports
    # ------------------------------------------------------------------

    @property
    def transports(self) -> List[RfpClient]:
        return list(self._transports)

    def total_calls(self) -> int:
        return sum(t.stats.calls.value for t in self.transports)

    def latency_samples(self) -> List[float]:
        samples: List[float] = []
        for transport in self.transports:
            samples.extend(transport.stats.latency_us.samples)
        return samples

    def fetch_attempt_samples(self) -> List[float]:
        samples: List[float] = []
        for transport in self.transports:
            samples.extend(transport.stats.fetch_attempts.samples)
        return samples

    def busy_time(self) -> float:
        return sum(t.stats.busy.busy_time for t in self.transports)

    def cpu_utilization(self, elapsed: float) -> float:
        """This client thread's CPU utilization over ``elapsed`` µs."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time() / elapsed)

    def remote_reads(self) -> int:
        return sum(t.stats.remote_reads.value for t in self.transports)
