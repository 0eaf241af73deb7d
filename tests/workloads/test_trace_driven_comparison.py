"""Integration: one YCSB operation stream drives two systems identically."""

import itertools

from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator
from repro.workloads import WorkloadSpec, YcsbWorkload


def run_system(build, operations):
    """Run one KV system over ``operations``; returns GET results."""
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    client = build(sim, cluster)
    observations = []

    def body(sim):
        for op in operations:
            if op.is_get:
                observations.append((op.key, (yield from client.get(op.key))))
            else:
                yield from client.put(op.key, op.value)

    sim.process(body(sim))
    sim.run()
    return observations


def build_jakiro(sim, cluster):
    from repro.kv import Jakiro

    jakiro = Jakiro(sim, cluster, threads=2)
    return jakiro.connect(cluster.client_machines[0])


def build_serverreply(sim, cluster):
    from repro.baselines import build_serverreply_kv

    kv = build_serverreply_kv(sim, cluster, threads=2)
    return kv.connect(cluster.client_machines[0])


class TestTraceDrivenComparison:
    def test_two_systems_agree_on_every_get(self):
        """Feeding one operation sequence to RFP-Jakiro and ServerReply-KV
        must produce byte-identical GET results — different transports,
        same semantics."""
        spec = WorkloadSpec(records=64, get_fraction=0.6, seed=5)
        operations = list(
            itertools.islice(YcsbWorkload(spec).operations("driver"), 120)
        )
        assert any(op.is_get for op in operations)
        assert any(not op.is_get for op in operations)

        jakiro_results = run_system(build_jakiro, operations)
        reply_results = run_system(build_serverreply, operations)
        assert len(jakiro_results) > 0
        assert jakiro_results == reply_results
