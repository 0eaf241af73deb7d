"""Simulated RDMA cluster hardware.

This package substitutes for the paper's physical testbed (8 machines, dual
8-core Xeon E5-2640v2, Mellanox ConnectX-3 InfiniBand, one InfiniScale-IV
switch).  The model is calibrated so that the two phenomena the paper's
design rests on emerge from first principles:

1. **In-bound vs out-bound asymmetry** — each RNIC has two independent
   pipelines.  The *in-bound* pipeline (serving one-sided ops, pure
   hardware) peaks at ~11.26 MOPS; the *out-bound* pipeline (issuing ops,
   hardware/software interaction) peaks at ~2.11 MOPS.
2. **Bandwidth crossover** — per-op pipeline time follows a soft-max of the
   per-op base cost and wire serialization ``size / bandwidth``, so IOPS of
   both pipelines converge onto the 40 Gbps bandwidth line above ~2 KB
   (paper Fig. 5).

Layers:

- :mod:`~repro.hw.specs` — frozen dataclass specs with ConnectX-2/3/4 presets,
- :mod:`~repro.hw.memory` — RNIC-registered memory regions (real bytes,
  zero-filled on demand),
- :mod:`~repro.hw.rnic` — the two-pipeline NIC model + contention penalties,
- :mod:`~repro.hw.verbs` — queue pairs and one/two-sided verbs,
- :mod:`~repro.hw.network` — switch propagation model,
- :mod:`~repro.hw.machine` / :mod:`~repro.hw.cluster` — composition.
"""

from repro.hw.cluster import Cluster, build_cluster
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion, staged_write
from repro.hw.network import Network
from repro.hw.rnic import RNIC, pipeline_service_time
from repro.hw.specs import (
    CLUSTER_EUROSYS17,
    CONNECTX2,
    CONNECTX3,
    CONNECTX4,
    ClusterSpec,
    MachineSpec,
    NicSpec,
)
from repro.hw.verbs import QPType, QueuePair

__all__ = [
    "CLUSTER_EUROSYS17",
    "CONNECTX2",
    "CONNECTX3",
    "CONNECTX4",
    "Cluster",
    "ClusterSpec",
    "Machine",
    "MachineSpec",
    "MemoryRegion",
    "Network",
    "NicSpec",
    "QPType",
    "QueuePair",
    "RNIC",
    "build_cluster",
    "pipeline_service_time",
    "staged_write",
]
