"""Reproduction of RFP (EuroSys 2017): remote-fetching RPC over RDMA.

Top-level convenience imports cover the objects a quickstart needs; the
full surface lives in the subpackages:

- :mod:`repro.sim` — the discrete-event engine,
- :mod:`repro.hw` — the simulated RDMA cluster,
- :mod:`repro.core` — the RFP paradigm itself,
- :mod:`repro.paradigms` — server-reply and server-bypass,
- :mod:`repro.kv` — Jakiro and the hash structures,
- :mod:`repro.baselines` — Pilaf, RDMA-Memcached, ServerReply-KV, HERD
  and DrTM,
- :mod:`repro.apps` — the statistics service (porting demo),
- :mod:`repro.workloads` — YCSB-style generators,
- :mod:`repro.analysis` — closed-form performance models,
- :mod:`repro.bench` — the figure/table reproduction harness.
"""

from repro.core import RfpClient, RfpConfig, RfpServer
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "CLUSTER_EUROSYS17",
    "Jakiro",
    "RfpClient",
    "RfpConfig",
    "RfpServer",
    "Simulator",
    "build_cluster",
    "__version__",
]
