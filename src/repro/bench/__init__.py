"""Benchmark harness: regenerates every table and figure of §4.

- :mod:`~repro.bench.harness` — closed-loop measurement machinery,
- :mod:`~repro.bench.systems` — uniform adapters over the four KV
  systems (Jakiro, ServerReply, RDMA-Memcached, Pilaf),
- :mod:`~repro.bench.calibration` — the §2.2 microbenchmarks (Figs. 3-5)
  and the hardware curves parameter selection consumes,
- :mod:`~repro.bench.figures` — one runner per paper figure/table,
- :mod:`~repro.bench.experiments` — the registry mapping experiment ids
  (``fig3`` .. ``fig20``, ``tab1``, ``tab3``, ``params``) to runners,
- :mod:`~repro.bench.report` — ASCII rendering,
- :mod:`~repro.bench.cli` — ``python -m repro.bench [ids] [--full]``.
"""

from repro.bench.experiments import EXPERIMENTS, ExperimentResult, run_experiment
from repro.bench.harness import KvRunResult, Scale, run_controlled_process_time, run_kv

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "KvRunResult",
    "Scale",
    "run_controlled_process_time",
    "run_experiment",
    "run_kv",
]
