"""The benchmark's four workloads.

Each workload makes every input from its seed before set-up begins
(keys, values and each client's list of operations), builds the system
through the public APIs of ``repro.sim``, ``repro.hw``, ``repro.core``,
``repro.kv`` and ``repro.cluster``, and drives it with closed-loop
simulated clients: a client issues its next operation only after the
previous one returned.  The clients stamp every operation with
``sim.now`` on entry and return, and check every result as it arrives.

Each workload also names the parts of the system whose public counters
``layers.snapshot`` reads, and :meth:`Workload.final_check` audits the
end state.  A failed check raises :class:`CheckFailed` with a one-line
message.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterConfig, FaultPlan, RfpCluster
from repro.core import Mode, RfpClient, RfpConfig, RfpServer
from repro.errors import ClusterError, KVError
from repro.hw import CLUSTER_EUROSYS17, ClusterSpec, build_cluster
from repro.kv import Jakiro
from repro.kv.store import StoreCostModel
from repro.sim import Simulator, Tracer

#: Length of each client's generated operation list; a client that runs
#: out starts over from the top.
OPS_PER_CLIENT = 8192

#: Share of the simulated window run before measuring, so queues and
#: caches reach steady state first.
WARMUP_FRAC = 0.1

#: Distinct values each workload draws its payloads from.
VALUE_POOL = 4096


class CheckFailed(Exception):
    """A correctness check failed; the message is one line."""


class OpLog:
    """One client's operations in issue order: entry and return stamps
    in simulated µs, and whether the operation succeeded."""

    __slots__ = ("starts", "ends", "ok")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.ok: List[bool] = []


def _keys(rng: np.random.Generator, count: int) -> List[bytes]:
    """Distinct YCSB-style keys of 16 to 24 bytes."""
    ids = rng.choice(10**12, size=count, replace=False)
    widths = rng.integers(12, 21, size=count)
    return [b"user%0*d" % (int(w), int(i)) for w, i in zip(widths, ids)]


def _values(rng: np.random.Generator, low: int, high: int) -> List[bytes]:
    sizes = rng.integers(low, high + 1, size=VALUE_POOL)
    return [rng.bytes(int(size)) for size in sizes]


def _zipf_ranks(
    rng: np.random.Generator, keys: int, exponent: float, count: int
) -> np.ndarray:
    weights = 1.0 / np.arange(1, keys + 1, dtype=float) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(count)), keys - 1)


class Workload:
    """Shared machinery: the closed client loop, logs and checks."""

    name = ""
    #: Simulated length of the full run (warm-up included), in µs.
    window_us = 0.0

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.window_us = type(self).window_us * scale
        self.logs: List[OpLog] = []
        self.violations = 0
        self.first_violation = ""
        self.sim: Optional[Simulator] = None
        self.tracer: Optional[Tracer] = None

    def _scaled(self, count: int) -> int:
        return max(64, int(round(count * self.scale)))

    def server_name(self, base: str) -> str:
        """A server's name seeds its stub-timing noise, so it carries the
        workload seed: every random stream of a run follows ``--seed``."""
        return f"{base}-{self.seed}"

    # -- set-up ---------------------------------------------------------

    def build(self, traced: bool) -> None:
        """Create the simulator and the system, preload, connect every
        client and start its loop.  With ``traced`` the protocol layers
        get a :class:`Tracer` that stores nothing; observers subscribe
        to it."""
        self.sim = Simulator()
        if traced:
            self.tracer = Tracer(self.sim, enabled=False)
        self._build()

    def _build(self) -> None:
        raise NotImplementedError

    def _start(self, clients) -> None:
        """Start one closed-loop process per client over its operations."""
        for client, ops in zip(clients, self.ops):
            log = OpLog()
            self.logs.append(log)
            self.sim.process(self._loop(client, ops, log))

    def _loop(self, client, ops, log: OpLog):
        sim = self.sim
        operate = self._operate
        starts, ends, oks = log.starts, log.ends, log.ok
        position = 0
        while True:
            op = ops[position % OPS_PER_CLIENT]
            position += 1
            started = sim.now
            try:
                yield from operate(client, op, position)
                ok = True
            except (ClusterError, KVError):
                ok = False
            starts.append(started)
            ends.append(sim.now)
            oks.append(ok)

    def _operate(self, client, op, position: int):
        """Process body: one operation, its result checked on arrival.
        ``position`` counts the client's operations from 1."""
        raise NotImplementedError

    def violation(self, message: str) -> None:
        self.violations += 1
        if not self.first_violation:
            self.first_violation = message

    # -- readout hooks ----------------------------------------------------

    def server_machines(self) -> list:
        return [self.hw.server]

    def client_machines(self) -> list:
        return self.hw.client_machines

    def transports(self) -> List[RfpClient]:
        """Every RFP client transport currently connected."""
        raise NotImplementedError

    def servers(self) -> List[RfpServer]:
        raise NotImplementedError

    def stores(self) -> list:
        return []

    def partitions(self) -> int:
        """EREW partitions per store (0 where there is no kv store)."""
        return 0

    def op_key(self, client: int, position: int) -> bytes:
        """Key of ``client``'s operation at ``position`` (kv workloads'
        operations start with their key)."""
        return self.ops[client][position % OPS_PER_CLIENT][0]

    def cluster(self) -> Optional[RfpCluster]:
        return None

    def recovery(self):
        """The shard recovery the workload triggered, if any."""
        return None

    def final_check(self, complete: bool) -> None:
        """End-state audit.  ``complete`` is false for a run cut short
        (the traced run), which skips claims about the whole window."""
        if self.violations:
            raise CheckFailed(
                f"{self.name}: {self.violations} bad results, first: "
                f"{self.first_violation}"
            )


# ----------------------------------------------------------------------
# Jakiro key-value workloads
# ----------------------------------------------------------------------


class _JakiroWorkload(Workload):
    server_threads = 6
    client_threads = 35
    buckets_per_partition = 16384
    keys_total = 0
    get_fraction = 0.0
    value_sizes = (32, 32)
    zipf_exponent: Optional[float] = None

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        rng = np.random.default_rng(seed)
        self.keys = _keys(rng, self._scaled(self.keys_total))
        pool = _values(rng, *self.value_sizes)
        self.pool_set = frozenset(pool)
        preload_values = rng.integers(len(pool), size=len(self.keys))
        self.preload = [
            (key, pool[int(v)]) for key, v in zip(self.keys, preload_values)
        ]
        # Which key each Zipf rank lands on is drawn too, so every seed
        # has its own hot set.
        rank_to_key = rng.permutation(len(self.keys))
        self.ops: List[List[Tuple[bytes, Optional[bytes]]]] = []
        for _ in range(self.client_threads):
            if self.zipf_exponent is None:
                key_ids = rng.integers(len(self.keys), size=OPS_PER_CLIENT)
            else:
                ranks = _zipf_ranks(
                    rng, len(self.keys), self.zipf_exponent, OPS_PER_CLIENT
                )
                key_ids = rank_to_key[ranks]
            is_get = rng.random(OPS_PER_CLIENT) < self.get_fraction
            put_values = rng.integers(len(pool), size=OPS_PER_CLIENT)
            self.ops.append(
                [
                    (self.keys[int(k)], None if g else pool[int(v)])
                    for k, g, v in zip(key_ids, is_get, put_values)
                ]
            )

    def _build(self) -> None:
        sim = self.sim
        self.hw = build_cluster(sim, CLUSTER_EUROSYS17)
        self.jakiro = Jakiro(
            sim,
            self.hw,
            threads=self.server_threads,
            buckets_per_partition=max(
                8, round(self.buckets_per_partition * self.scale)
            ),
            seed=self.seed,
            name=self.server_name("jakiro"),
            tracer=self.tracer,
        )
        self.jakiro.preload(self.preload)
        machines = self.hw.client_machines
        self.clients = [
            self.jakiro.connect(machines[i % len(machines)], name=f"c{i}")
            for i in range(self.client_threads)
        ]
        self._start(self.clients)

    def _operate(self, client, op, position: int):
        key, value = op
        if value is None:
            got = yield from client.get(key)
            self._check_get(key, got)
        else:
            yield from client.put(key, value)

    def _check_get(self, key: bytes, value: Optional[bytes]) -> None:
        raise NotImplementedError

    def transports(self) -> List[RfpClient]:
        return [t for client in self.clients for t in client.transports]

    def servers(self) -> List[RfpServer]:
        return [self.jakiro.server]

    def stores(self) -> list:
        return [self.jakiro.store]

    def partitions(self) -> int:
        return self.server_threads


class KvRead(_JakiroWorkload):
    """The paper's headline regime: 95% GETs of 32 B values."""

    name = "kv-read"
    window_us = 25_000.0
    keys_total = 100_000
    get_fraction = 0.95
    value_sizes = (32, 32)

    def _check_get(self, key: bytes, value: Optional[bytes]) -> None:
        if value is None:
            # 100,000 keys in 98,304 buckets of 8 slots: about one seed
            # in ten overflows a bucket at preload, and a GET of the
            # evicted key misses.  Any other miss lost a resident key.
            if any(resident == key for resident, _ in self.jakiro.store.items()):
                self.violation(f"GET of resident key {key!r} missed")
        elif len(value) != 32 or value not in self.pool_set:
            self.violation(f"GET {key!r} returned {len(value)} B not from the inputs")

    def final_check(self, complete: bool) -> None:
        super().final_check(complete)
        outbound = self.hw.server.rnic.outbound_ops
        if outbound:
            raise CheckFailed(
                f"kv-read: server NIC posted {outbound} out-bound verbs, expected 0"
            )


class KvWriteZipf(_JakiroWorkload):
    """Half PUTs of 32-2,048 B values over Zipf keys; the dataset is
    slightly larger than the store, so PUTs evict."""

    name = "kv-write-zipf"
    window_us = 30_000.0
    keys_total = 200_000
    buckets_per_partition = 4096
    get_fraction = 0.5
    value_sizes = (32, 2048)
    zipf_exponent = 0.99

    def _check_get(self, key: bytes, value: Optional[bytes]) -> None:
        if value is None:
            return  # an evicted key: cache behaviour, not a failure
        if not 32 <= len(value) <= 2048 or value not in self.pool_set:
            self.violation(f"GET {key!r} returned {len(value)} B not from the inputs")


# ----------------------------------------------------------------------
# Bare RFP echo with a slow handler
# ----------------------------------------------------------------------

_PROCESS_TIME = struct.Struct("<d")


def _echo(payload: bytes, context) -> Tuple[bytes, float]:
    """Echo the request; its first 8 bytes say how long to compute."""
    return payload, _PROCESS_TIME.unpack_from(payload)[0]


class RpcSlowHandler(Workload):
    """Handlers past the hybrid switch point: every client moves to
    server-reply mode (§3.2)."""

    name = "rpc-slow-handler"
    window_us = 100_000.0
    server_threads = 16
    client_threads = 35
    payload_bytes = 32
    #: Handler time per request: uniform around 10 µs.
    process_us = (9.0, 11.0)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        rng = np.random.default_rng(seed)
        times = rng.uniform(*self.process_us, size=VALUE_POOL)
        pool = [
            _PROCESS_TIME.pack(float(t)) + rng.bytes(self.payload_bytes - 8)
            for t in times
        ]
        self.ops = [
            [pool[int(i)] for i in rng.integers(len(pool), size=OPS_PER_CLIENT)]
            for _ in range(self.client_threads)
        ]

    def _build(self) -> None:
        sim = self.sim
        self.hw = build_cluster(sim, CLUSTER_EUROSYS17)
        self.server = RfpServer(
            sim,
            self.hw,
            self.hw.server,
            _echo,
            threads=self.server_threads,
            name=self.server_name("echo"),
            tracer=self.tracer,
        )
        machines = self.hw.client_machines
        self.clients = [
            RfpClient(
                sim,
                machines[i % len(machines)],
                self.server,
                name=f"c{i}",
                tracer=self.tracer,
            )
            for i in range(self.client_threads)
        ]
        self._start(self.clients)

    def _operate(self, client, payload, position: int):
        response = yield from client.call(payload)
        if response != payload:
            self.violation(
                f"{client.name}: echo returned {len(response)} B, "
                f"not the {len(payload)} B request"
            )

    def transports(self) -> List[RfpClient]:
        return list(self.clients)

    def servers(self) -> List[RfpServer]:
        return [self.server]

    def final_check(self, complete: bool) -> None:
        super().final_check(complete)
        if not complete:
            return
        fetching = [c.name for c in self.clients if c.mode is not Mode.SERVER_REPLY]
        if fetching:
            raise CheckFailed(
                f"rpc-slow-handler: {len(fetching)} of {len(self.clients)} "
                f"clients not in SERVER_REPLY mode, first {fetching[0]}"
            )


# ----------------------------------------------------------------------
# Sharded cluster through a crash and a repair
# ----------------------------------------------------------------------

_SEQ = struct.Struct("<Q")


class ClusterFailover(Workload):
    """RF=2 cluster under a write ledger; one shard crashes at 30% of
    the window and is repaired at 45%."""

    name = "cluster-failover"
    window_us = 12_000.0
    machines_total = 18
    shards = 3
    client_threads = 24
    keys_total = 8192
    value_bytes = 64
    put_every = 4
    victim = "shard1"
    kill_frac = 0.30
    repair_frac = 0.45

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        rng = np.random.default_rng(seed)
        self.keys = _keys(rng, self._scaled(self.keys_total))
        per_client = len(self.keys) // self.client_threads
        self.owned = [
            self.keys[c * per_client : (c + 1) * per_client]
            for c in range(self.client_threads)
        ]
        self.ops: List[List[Tuple[bytes, bool]]] = []
        for c in range(self.client_threads):
            gets = rng.integers(len(self.keys), size=OPS_PER_CLIENT)
            self.ops.append(
                [
                    (self.owned[c][(j // self.put_every) % per_client], True)
                    if j % self.put_every == self.put_every - 1
                    else (self.keys[int(gets[j])], False)
                    for j in range(OPS_PER_CLIENT)
                ]
            )
        self.padding = bytes(self.value_bytes - _SEQ.size)

    def _build(self) -> None:
        sim = self.sim
        self.hw = build_cluster(
            sim,
            ClusterSpec(
                machine=CLUSTER_EUROSYS17.machine,
                machines=self.machines_total,
                switch_hop_us=CLUSTER_EUROSYS17.switch_hop_us,
            ),
        )
        shard_tracers = (
            {f"shard{i}": self.tracer for i in range(self.shards)}
            if self.tracer is not None
            else None
        )
        self.service = RfpCluster(
            sim,
            self.hw,
            shards=self.shards,
            cluster_config=ClusterConfig(replication_factor=2),
            rfp_config=RfpConfig(consecutive_slow_calls=1),
            cost_model=StoreCostModel(jitter_probability=0.0),
            shard_tracers=shard_tracers,
            name=self.server_name("cluster"),
        )
        initial = _SEQ.pack(0) + self.padding
        self.service.preload((key, initial) for key in self.keys)
        self.pre_crash_ring = list(self.service.ring.nodes)
        #: Highest sequence number acknowledged / issued per key.
        self.acked: Dict[bytes, int] = {}
        self.issued: Dict[bytes, int] = {}
        machines = self.hw.machines[self.shards :]
        self.clients = [
            self.service.connect(machines[i % len(machines)], name=f"c{i}")
            for i in range(self.client_threads)
        ]
        self.plan = FaultPlan.kill_then_repair(
            self.victim,
            self.window_us * self.kill_frac,
            self.window_us * self.repair_frac,
        )
        self.plan.arm(sim, self.service)
        self._start(self.clients)

    def _operate(self, client, op, position: int):
        key, is_put = op
        if is_put:
            # The client's operation count is its write sequence number.
            self.issued[key] = position
            yield from client.put(key, _SEQ.pack(position) + self.padding)
            self.acked[key] = position
        else:
            floor = self.acked.get(key, 0)
            value = yield from client.get(key)
            self._check_get(key, value, floor)

    def _check_get(self, key: bytes, value: Optional[bytes], floor: int) -> None:
        if value is None or len(value) != self.value_bytes:
            self.violation(f"GET {key!r} returned {value!r:.40}")
            return
        seq = _SEQ.unpack_from(value)[0]
        if seq < floor or seq > self.issued.get(key, 0):
            self.violation(
                f"GET {key!r} read write #{seq}; acked #{floor} before it "
                f"started, highest issued #{self.issued.get(key, 0)}"
            )

    def server_machines(self) -> list:
        return [handle.machine for _, handle in sorted(self.service.shards.items())]

    def client_machines(self) -> list:
        return self.hw.machines[self.shards :]

    def transports(self) -> List[RfpClient]:
        return [
            transport
            for client in self.clients
            for shard in sorted(self.service.shards)
            for transport in client.shard_client(shard).transports
        ]

    def servers(self) -> List[RfpServer]:
        return [
            handle.jakiro.server for _, handle in sorted(self.service.shards.items())
        ]

    def stores(self) -> list:
        return [
            handle.jakiro.store for _, handle in sorted(self.service.shards.items())
        ]

    def partitions(self) -> int:
        return self.service.shards["shard0"].jakiro.threads

    def cluster(self) -> Optional[RfpCluster]:
        return self.service

    def recovery(self):
        return self.plan.recoveries[0] if self.plan.recoveries else None

    def lost_writes(self, every_replica: bool) -> int:
        """Acked writes missing from every current replica of their key,
        or with ``every_replica`` from any one of them."""
        service = self.service
        lost = 0
        for key, seq in self.acked.items():
            held = [
                (stored := service.peek(shard, key)) is not None
                and _SEQ.unpack_from(stored)[0] >= seq
                for shard in service.ring.lookup_replicas(key, 2)
            ]
            if not (all(held) if every_replica else any(held)):
                lost += 1
        return lost

    def final_check(self, complete: bool) -> None:
        super().final_check(complete)
        service = self.service
        # Mid-outage the ring names replicas that never held a key, so a
        # run cut short can only ask that some replica survived with it.
        lost = self.lost_writes(every_replica=complete)
        if lost:
            raise CheckFailed(f"cluster-failover: {lost} acknowledged writes lost")
        for name, handle in sorted(service.shards.items()):
            outbound = handle.machine.rnic.outbound_ops
            if name != self.victim and outbound:
                raise CheckFailed(
                    f"cluster-failover: healthy {name} posted {outbound} "
                    "out-bound verbs, expected 0"
                )
        if not complete:
            return
        recovery = self.recovery()
        if recovery is None or recovery.active or recovery.aborted:
            raise CheckFailed(
                f"cluster-failover: recovery of {self.victim} did not hand off "
                "before the window ended"
            )
        if service.ring.nodes != self.pre_crash_ring:
            raise CheckFailed("cluster-failover: the pre-crash ring was not restored")
        outbound = service.shards[self.victim].machine.rnic.outbound_ops
        if outbound != recovery.event.batches:
            raise CheckFailed(
                f"cluster-failover: {self.victim} posted {outbound} out-bound "
                f"verbs for {recovery.event.batches} transfer batches"
            )


WORKLOADS = {
    cls.name: cls for cls in (KvRead, KvWriteZipf, RpcSlowHandler, ClusterFailover)
}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate ``name``'s inputs from ``seed``; nothing is built yet."""
    return WORKLOADS[name](seed, scale)
