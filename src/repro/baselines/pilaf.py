"""Pilaf — the server-bypass key-value store (§2.3, §4.3).

GETs never involve the server CPU.  The client:

1. computes the key's three cuckoo candidate slots locally,
2. RDMA-Reads 32-byte index entries until one matches the key hash
   (CRC64-protected),
3. RDMA-Reads the data record (key + value + CRC64) at the entry's
   offset,
4. verifies the record checksum — a read racing an in-progress PUT sees
   genuinely torn bytes and retries — and verifies the full key
   (hash collisions fall back to the outer probe loop).

This is Fig. 8(b) verbatim, and the read counting reproduces the paper's
*bypass access amplification*: ~2.2 index probes + 1 data read + race
retries ≈ 3.2+ RDMA operations per GET.

PUTs are server-reply RPCs (as in Pilaf itself): the server appends the
record with a *staged* (non-atomic) write, then publishes the index
entry.  The staged write is what makes GET/PUT races observable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence, Tuple

from repro.core.config import RfpConfig
from repro.core.rpc import RpcClient, RpcServer
from repro.errors import KVError, ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.hw.memory import staged_write
from repro.kv.crc import crc64
from repro.kv.cuckoo import CuckooHashTable, cuckoo_candidates
from repro.kv.serialization import (
    PUT_FUNCTION,
    STATUS_OK,
    pack_put_request,
    unpack_put_request,
)
from repro.paradigms.server_reply import ServerReplyClient, ServerReplyServer
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Tally

__all__ = ["PilafServer", "PilafClient", "INDEX_ENTRY_BYTES"]

#: used(u8) key_len(u8) pad(u16) value_len(u32) data_offset(u64)
#: key_hash(u64) crc(u64)
_ENTRY = struct.Struct("<BBHIQQQ")
INDEX_ENTRY_BYTES = _ENTRY.size  # 32

_RECORD_CRC = struct.Struct("<Q")


def _pack_entry(used: int, key_len: int, value_len: int, offset: int, khash: int) -> bytes:
    body = _ENTRY.pack(used, key_len, 0, value_len, offset, khash, 0)[:-8]
    return body + _RECORD_CRC.pack(crc64(body))


def _unpack_entry(raw: bytes) -> Tuple[int, int, int, int, int, bool]:
    """Returns (used, key_len, value_len, offset, key_hash, crc_ok)."""
    used, key_len, _pad, value_len, offset, khash, crc = _ENTRY.unpack(raw)
    crc_ok = crc == crc64(raw[:-8])
    return used, key_len, value_len, offset, khash, crc_ok


@dataclass
class PilafStats:
    gets: Counter = field(default_factory=lambda: Counter("gets"))
    puts: Counter = field(default_factory=lambda: Counter("puts"))
    rdma_reads: Counter = field(default_factory=lambda: Counter("rdma_reads"))
    checksum_retries: Counter = field(default_factory=lambda: Counter("crc_retries"))
    get_latency_us: Tally = field(default_factory=lambda: Tally("get_latency_us"))

    def reads_per_get(self) -> float:
        if self.gets.value == 0:
            return 0.0
        return self.rdma_reads.value / self.gets.value


class PilafServer:
    """The Pilaf server: cuckoo index + data extents in registered memory.

    Only PUTs consume server CPU (through an embedded server-reply RPC
    channel); the GET path is served entirely by the RNIC.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        capacity: int = 8192,
        max_key_bytes: int = 64,
        max_value_bytes: int = 1024,
        threads: int = 1,
        put_write_us: float = 0.25,
        put_process_us: float = 1.2,
        config: Optional[RfpConfig] = None,
        seed: int = 0,
        name: str = "pilaf",
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.machine = machine if machine is not None else cluster.server
        self.capacity = capacity
        self.max_key_bytes = max_key_bytes
        self.max_value_bytes = max_value_bytes
        self.put_write_us = put_write_us
        # Pilaf's server is effectively single-threaded and its PUT path is
        # heavyweight (message handling, cuckoo insertion with kicks, CRC64
        # over the record, extent management) — this is what caps Pilaf at
        # ~1.3 MOPS under 50% GET in the paper's Fig. 11.
        self.put_process_us = put_process_us
        self.record_slot_bytes = max_key_bytes + max_value_bytes + _RECORD_CRC.size
        self.index_region = self.machine.register_memory(
            capacity * INDEX_ENTRY_BYTES, name=f"{name}.index"
        )
        self.data_region = self.machine.register_memory(
            capacity * self.record_slot_bytes, name=f"{name}.data"
        )
        # The logical table maps key -> (value_len, data_slot).  Data
        # slots are allocated per *key*, independent of index slots:
        # cuckoo kicks relocate index entries, and the entry must keep
        # pointing at the key's record wherever the entry lands.
        self.table: CuckooHashTable = CuckooHashTable(
            capacity, seed=seed, on_slot_update=self._mirror_slot
        )
        self._next_data_slot = 0
        self._free_data_slots: list = []
        rpc = RpcServer()
        rpc.register(PUT_FUNCTION, self._handle_put)
        self.rpc_server = ServerReplyServer(
            sim, cluster, self.machine, rpc.handle, threads, config, name=f"{name}.rpc"
        )

    # ------------------------------------------------------------------
    # Index mirroring: logical cuckoo table -> registered index region
    # ------------------------------------------------------------------

    def _mirror_slot(self, slot_index: int, key, value) -> None:
        offset = slot_index * INDEX_ENTRY_BYTES
        if key is None:
            self.index_region.write_local(offset, bytes(INDEX_ENTRY_BYTES))
            return
        value_len, data_slot = value
        entry = _pack_entry(
            used=1,
            key_len=len(key),
            value_len=value_len,
            offset=data_slot * self.record_slot_bytes,
            khash=crc64(key),
        )
        self.index_region.write_local(offset, entry)

    def _allocate_data_slot(self, key: bytes) -> int:
        existing = self.table.lookup(key)[0]
        if existing is not None:
            return existing[1]
        if self._free_data_slots:
            return self._free_data_slots.pop()
        slot = self._next_data_slot
        if slot >= self.capacity:
            raise KVError("Pilaf data extents exhausted")
        self._next_data_slot += 1
        return slot

    # ------------------------------------------------------------------
    # PUT path (server-reply RPC)
    # ------------------------------------------------------------------

    def _handle_put(self, arguments: bytes, context) -> Tuple[int, bytes, float]:
        key, value = unpack_put_request(arguments)
        if len(key) > self.max_key_bytes:
            raise KVError(f"key of {len(key)} B > {self.max_key_bytes} B")
        if len(value) > self.max_value_bytes:
            raise KVError(f"value of {len(value)} B > {self.max_value_bytes} B")
        data_slot = self._allocate_data_slot(key)
        self.table.insert(key, (len(value), data_slot))
        record = key + value + _RECORD_CRC.pack(crc64(key + value))
        self.sim.process(
            staged_write(
                self.sim,
                self.data_region,
                data_slot * self.record_slot_bytes,
                record,
                self.put_write_us,
            ),
            name="pilaf.put-write",
        )
        # Process time: message handling + cuckoo/CRC work + staged write.
        return STATUS_OK, b"", self.put_write_us + self.put_process_us

    def preload(self, pairs) -> None:
        """Populate off-line (paper: 75%-filled table before measuring)."""
        for key, value in pairs:
            data_slot = self._allocate_data_slot(key)
            self.table.insert(key, (len(value), data_slot))
            record = key + value + _RECORD_CRC.pack(crc64(key + value))
            self.data_region.write_local(data_slot * self.record_slot_bytes, record)

    def connect(self, machine: Machine, name: str = "") -> "PilafClient":
        return PilafClient(self.sim, machine, self, name=name)


class PilafClient:
    """A Pilaf client: one-sided GETs, server-reply PUTs (Fig. 8b).

    Its client CPU is not metered and its GETs fetch no results, so
    :meth:`busy_time` is 0.0 and :meth:`fetch_attempt_samples` is empty.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: PilafServer,
        post_cpu_us: float = 0.15,
        max_probe_rounds: int = 64,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.server = server
        self.post_cpu_us = post_cpu_us
        self.max_probe_rounds = max_probe_rounds
        self.name = name or f"pilaf-client@{machine.name}"
        self.stats = PilafStats()
        self.endpoint, _ = server.cluster.connect(machine, server.machine)
        landing = max(INDEX_ENTRY_BYTES, server.record_slot_bytes)
        self._landing = machine.register_memory(landing, name=f"{self.name}.landing")
        self._rpc = RpcClient(
            ServerReplyClient(
                sim,
                machine,
                server.rpc_server,
                name=f"{self.name}.rpc",
                register_issuer=False,
            )
        )
        machine.rnic.register_issuer()

    def busy_time(self) -> float:
        return 0.0

    def fetch_attempt_samples(self) -> Sequence[float]:
        return []

    # ------------------------------------------------------------------
    # GET: pure one-sided (Fig. 8b)
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        """Process body: one-sided GET; returns the value or ``None``."""
        sim = self.sim
        start = sim.now
        khash = crc64(key)
        candidates = cuckoo_candidates(key, self.server.capacity)
        self.stats.gets.increment()
        for _round in range(self.max_probe_rounds):
            entry = None
            for slot_index in candidates:
                raw = yield from self._read_index_entry(slot_index)
                used, key_len, value_len, offset, entry_hash, crc_ok = _unpack_entry(raw)
                if not used:
                    continue  # a free slot is valid regardless of CRC
                if not crc_ok:
                    self.stats.checksum_retries.increment()
                    break  # torn index entry: restart probing
                if entry_hash == khash and key_len == len(key):
                    entry = (value_len, offset)
                    break
            else:
                # All three candidates probed, no match: a miss.
                self.stats.get_latency_us.record(sim.now - start)
                return None
            if entry is None:
                continue  # index CRC retry
            value_len, offset = entry
            record = yield from self._read_record(offset, len(key) + value_len)
            payload, (crc,) = record[:-8], _RECORD_CRC.unpack(record[-8:])
            if crc != crc64(payload):
                self.stats.checksum_retries.increment()
                continue  # raced a PUT: retry from the index
            if payload[: len(key)] != key:
                continue  # key-hash collision: re-probe
            self.stats.get_latency_us.record(sim.now - start)
            return payload[len(key) :]
        raise KVError(f"GET of {key!r} exceeded {self.max_probe_rounds} probe rounds")

    def _read_index_entry(self, slot_index: int) -> Generator:
        yield self.sim.timeout(self.post_cpu_us)
        yield self.endpoint.post_read(
            self._landing,
            0,
            self.server.index_region,
            slot_index * INDEX_ENTRY_BYTES,
            INDEX_ENTRY_BYTES,
        )
        self.stats.rdma_reads.increment()
        return self._landing.read_local(0, INDEX_ENTRY_BYTES)

    def _read_record(self, offset: int, payload_len: int) -> Generator:
        total = payload_len + _RECORD_CRC.size
        yield self.sim.timeout(self.post_cpu_us)
        yield self.endpoint.post_read(
            self._landing, 0, self.server.data_region, offset, total
        )
        self.stats.rdma_reads.increment()
        return self._landing.read_local(0, total)

    # ------------------------------------------------------------------
    # PUT: server-reply RPC
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Generator:
        """Process body: PUT via the server-reply channel."""
        status, _ = yield from self._rpc.call(
            PUT_FUNCTION, pack_put_request(key, value)
        )
        if status != STATUS_OK:
            raise ProtocolError(f"Pilaf PUT failed with status {status}")
        self.stats.puts.increment()
        return None
