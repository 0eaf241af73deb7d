"""YCSB-style workload generation (paper §4.2).

The paper drives every experiment with YCSB-generated key-value
workloads: 16-byte keys, mostly 32-byte values (Facebook-realistic),
GET fractions of 95/50/5%, and either uniform or Zipf(0.99)-skewed key
popularity.  This package reproduces those generators deterministically:

- :mod:`~repro.workloads.zipf` — an exact, precomputed-CDF Zipf sampler,
- :mod:`~repro.workloads.keys` — fixed-width key encoding,
- :mod:`~repro.workloads.value_sizes` — value-size distributions,
- :mod:`~repro.workloads.ycsb` — the workload spec + operation stream.
"""

from repro.workloads.keys import KeySpace
from repro.workloads.value_sizes import (
    FacebookValues,
    FixedValues,
    UniformValues,
    ValueSizeDistribution,
)
from repro.workloads.ycsb import Operation, WorkloadSpec, YcsbWorkload, ycsb_preset
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "FacebookValues",
    "FixedValues",
    "KeySpace",
    "Operation",
    "UniformValues",
    "ValueSizeDistribution",
    "WorkloadSpec",
    "YcsbWorkload",
    "ZipfSampler",
    "ycsb_preset",
]
