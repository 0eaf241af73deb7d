"""The comparison systems from the paper's evaluation (§4).

- :mod:`~repro.baselines.pilaf` — the server-bypass key-value store
  (Mitchell et al., ATC'13): GETs are pure one-sided probing of a 3-way
  Cuckoo index plus a CRC64-validated data read; PUTs go through
  server-reply messaging.
- :mod:`~repro.baselines.serverreply_kv` — "ServerReply": Jakiro with the
  result path flipped to out-bound RDMA Writes (§4.2).
- :mod:`~repro.baselines.rdma_memcached` — OSU's RDMA-Memcached model:
  shared cache + global LRU lock, CPU-heavy per-request software path,
  server threads performing their own network sends.
- :mod:`~repro.baselines.herd` — a HERD-style UC/UD RPC (§5) with real
  loss handling: timeouts, retransmits, duplicate suppression.
- :mod:`~repro.baselines.drtm` — a DrTM-style lock-based bypass store
  (§5): RDMA CAS spinlocks coordinate one-sided access.
"""

from repro.baselines.drtm import DrtmClient, DrtmServer
from repro.baselines.herd import HerdClient, HerdServer
from repro.baselines.pilaf import PilafClient, PilafServer
from repro.baselines.rdma_memcached import (
    MemcachedCostModel,
    RdmaMemcachedClient,
    RdmaMemcachedServer,
)
from repro.baselines.serverreply_kv import build_serverreply_kv

__all__ = [
    "DrtmClient",
    "DrtmServer",
    "HerdClient",
    "HerdServer",
    "MemcachedCostModel",
    "PilafClient",
    "PilafServer",
    "RdmaMemcachedClient",
    "RdmaMemcachedServer",
    "build_serverreply_kv",
]
