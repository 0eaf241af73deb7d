"""Key-value data structures and the Jakiro store.

- :mod:`~repro.kv.crc` — CRC64 (ECMA-182), the checksum Pilaf uses to
  detect GETs racing PUTs (§1, §2.3),
- :mod:`~repro.kv.store` — Jakiro's in-memory structure: buckets of eight
  8-byte slots (one cache line), strict per-bucket LRU eviction, EREW
  partitioning across server threads (§4.1),
- :mod:`~repro.kv.cuckoo` — the 3-way Cuckoo hash table Pilaf probes with
  one-sided reads,
- :mod:`~repro.kv.serialization` — the GET/PUT wire format shared by
  Jakiro and the server-reply baselines,
- :mod:`~repro.kv.jakiro` — the Jakiro system itself: RFP transport +
  RPC stubs + the partitioned store.
"""

from repro.kv.crc import crc64
from repro.kv.cuckoo import CuckooHashTable
from repro.kv.jakiro import Jakiro, JakiroClient
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

__all__ = [
    "CuckooHashTable",
    "GET_FUNCTION",
    "Jakiro",
    "JakiroClient",
    "JakiroStore",
    "PUT_FUNCTION",
    "STATUS_NOT_FOUND",
    "STATUS_OK",
    "STATUS_TOO_LARGE",
    "StoreCostModel",
    "crc64",
    "pack_get_request",
    "pack_put_request",
    "partition_of",
    "unpack_get_request",
    "unpack_put_request",
]
