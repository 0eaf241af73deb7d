"""Workload generation (paper §4.2) and the closed loop that drives it.

The paper drives every experiment with YCSB-generated key-value
workloads: 16-byte keys, mostly 32-byte values (Facebook-realistic),
GET fractions of 95/50/5%, and either uniform or Zipf(0.99)-skewed key
popularity, issued by client threads in a closed loop.  This package
reproduces both deterministically:

- :mod:`~repro.workloads.zipf` — an exact, precomputed-CDF Zipf sampler,
- :mod:`~repro.workloads.keys` — fixed-width key encoding,
- :mod:`~repro.workloads.value_sizes` — value-size distributions,
- :mod:`~repro.workloads.ycsb` — the workload spec + operation stream,
- :mod:`~repro.workloads.loop` — :class:`ClosedLoop`, the window,
  warm-up, phase meters and latency samples every measurement in
  :mod:`repro.bench` and :mod:`repro.exp` runs its clients through.
"""

from repro.workloads.keys import KeySpace
from repro.workloads.loop import ClosedLoop, kv_operations, repeat
from repro.workloads.value_sizes import (
    FacebookValues,
    FixedValues,
    UniformValues,
    ValueSizeDistribution,
)
from repro.workloads.ycsb import Operation, WorkloadSpec, YcsbWorkload, ycsb_preset
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "ClosedLoop",
    "FacebookValues",
    "FixedValues",
    "KeySpace",
    "Operation",
    "UniformValues",
    "ValueSizeDistribution",
    "WorkloadSpec",
    "YcsbWorkload",
    "ZipfSampler",
    "kv_operations",
    "repeat",
    "ycsb_preset",
]
