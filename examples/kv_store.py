#!/usr/bin/env python3
"""Jakiro in action: the paper's in-memory KV store under YCSB load.

Implements the Fig. 8(a) flow — the client-side GET is literally
``client_send`` + ``client_recv`` under the RPC stubs — and measures a
read-intensive uniform workload against the store, reporting throughput,
latency, and the retry behaviour of Table 3.

Run:  python examples/kv_store.py
"""

import numpy as np

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.kv import Jakiro
from repro.sim import Simulator
from repro.workloads import ClosedLoop, WorkloadSpec, YcsbWorkload, kv_operations

WINDOW_US = 3000.0
CLIENT_THREADS = 35


def main() -> None:
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    jakiro = Jakiro(sim, cluster, threads=6)

    workload = YcsbWorkload(WorkloadSpec(records=8192, get_fraction=0.95))
    jakiro.preload(workload.dataset())
    print(f"preloaded {jakiro.store.size()} pairs: {workload.spec.describe()}")

    # Each client thread issues its next GET/PUT as soon as the last one
    # returns; the first quarter of the window is warm-up.
    loop = ClosedLoop(sim, WINDOW_US, WINDOW_US * 0.25)
    clients = []
    for index in range(CLIENT_THREADS):
        client = jakiro.connect(cluster.client_machines[index % 7])
        clients.append(client)
        loop.spawn(kv_operations(client, workload.operations(f"c{index}")))
    loop.run()

    latencies = np.concatenate([c.latency_samples() for c in clients])
    attempts = np.concatenate([c.fetch_attempt_samples() for c in clients])
    print(f"\nthroughput:       {loop.mops():.2f} MOPS "
          "(paper: ~5.5)")
    print(f"mean latency:     {np.mean(latencies):.2f} us (paper: 5.78)")
    print(f"99th percentile:  {np.percentile(latencies, 99):.2f} us (paper: <7)")
    print(f"retries N>1:      {100 * np.mean(attempts > 1):.3f}% of requests "
          "(paper: ~0.1%)")
    print(f"largest N:        {int(attempts.max())} (paper: 4-9)")
    print(f"store hit rate:   "
          f"{jakiro.store.counters.hits.value / max(1, jakiro.store.counters.gets.value):.3f}")


if __name__ == "__main__":
    main()
