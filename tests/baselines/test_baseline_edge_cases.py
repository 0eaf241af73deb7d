"""Edge-case tests for the Pilaf baseline."""

import pytest

from repro.baselines import PilafServer
from repro.errors import KVError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.sim import Simulator


def make_pilaf(**kwargs):
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    server = PilafServer(sim, cluster, **kwargs)
    return sim, cluster, server


class TestPilafEdgeCases:
    def test_data_slot_reused_on_update(self):
        """Updating a key must not leak data extents."""
        sim, cluster, server = make_pilaf(capacity=64)
        server.preload([(b"k", b"v1")])
        first_slot = server.table.lookup(b"k")[0][1]
        server.preload([(b"k", b"v2-longer")])
        second_slot = server.table.lookup(b"k")[0][1]
        assert first_slot == second_slot
        assert server._next_data_slot == 1

    def test_data_extents_exhaustion_raises(self):
        sim, cluster, server = make_pilaf(capacity=8)
        with pytest.raises(KVError):
            server.preload((f"k{i}".encode(), b"v") for i in range(12))

    def test_kicked_entries_keep_pointing_at_their_records(self):
        """Cuckoo kicks relocate index entries; the data offset must move
        with the key, not the slot."""
        sim, cluster, server = make_pilaf(capacity=256)
        keys = [f"key-{i}".encode() for i in range(int(256 * 0.7))]
        server.preload((k, b"value-of-" + k) for k in keys)
        assert server.table.kick_total > 0  # kicks actually happened
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            for key in keys[::7]:
                value = yield from client.get(key)
                assert value == b"value-of-" + key

        sim.process(body(sim))
        sim.run()

    def test_oversized_put_rejected_at_server(self):
        sim, cluster, server = make_pilaf(capacity=64, max_value_bytes=64)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            yield from client.put(b"k", bytes(65))

        sim.process(body(sim))
        from repro.sim import SimulationError

        with pytest.raises((KVError, SimulationError)):
            sim.run()

    def test_key_sharing_candidate_slot_with_other_key(self):
        """Probing must skip non-matching entries and find the right one."""
        sim, cluster, server = make_pilaf(capacity=128)
        keys = [f"x{i}".encode() for i in range(64)]
        server.preload((k, k + b"-value") for k in keys)
        client = server.connect(cluster.client_machines[0])

        def body(sim):
            results = []
            for key in keys:
                results.append((yield from client.get(key)))
            return results

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == [k + b"-value" for k in keys]
