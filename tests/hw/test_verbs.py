"""Unit and integration tests for queue pairs and verbs."""

import pytest

from repro.errors import TransportError
from repro.hw import CLUSTER_EUROSYS17, CONNECTX3, QPType, build_cluster
from repro.hw.verbs import READ_REQUEST_WIRE_BYTES
from repro.sim import Simulator


@pytest.fixture()
def rig():
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    client_ep, server_ep = cluster.connect(cluster.machines[1], cluster.server)
    return sim, cluster, client_ep, server_ep


def prop_us(cluster):
    return cluster.network.propagation_us("m0", "m1")


class TestRead:
    def test_read_copies_remote_bytes(self, rig):
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(64)
        remote = cluster.server.register_memory(64)
        remote.write_local(4, b"payload!")

        def body(sim):
            yield client_ep.post_read(local, 0, remote, 4, 8)
            return local.read_local(0, 8)

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == b"payload!"

    def test_unloaded_read_latency_anatomy(self, rig):
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(64)
        remote = cluster.server.register_memory(64)

        def body(sim):
            yield client_ep.post_read(local, 0, remote, 0, 32)
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        spec = CONNECTX3
        expected = (
            client_ep.machine.rnic.outbound_service_us(READ_REQUEST_WIRE_BYTES)
            + prop_us(cluster)
            + cluster.server.rnic.inbound_service_us(32)
            + prop_us(cluster)
            + spec.read_extra_us
        )
        assert proc.value == pytest.approx(expected)
        # The paper's ballpark: a small read completes in ~1.4-2.0 us.
        assert 1.0 < proc.value < 2.0

    def test_read_requires_rc(self, rig):
        sim, cluster, *_ = rig
        client_ep, _ = cluster.connect(
            cluster.machines[2], cluster.server, qp_type=QPType.UC
        )
        local = client_ep.machine.register_memory(8)
        remote = cluster.server.register_memory(8)
        with pytest.raises(TransportError):
            client_ep.post_read(local, 0, remote, 0, 8)

    def test_read_validates_region_ownership(self, rig):
        sim, cluster, client_ep, _ = rig
        wrong_machine_mr = cluster.machines[2].register_memory(8)
        remote = cluster.server.register_memory(8)
        with pytest.raises(TransportError):
            client_ep.post_read(wrong_machine_mr, 0, remote, 0, 8)
        local = client_ep.machine.register_memory(8)
        with pytest.raises(TransportError):
            client_ep.post_read(local, 0, wrong_machine_mr, 0, 8)

    def test_read_faster_than_write_is_false(self, rig):
        """Writes complete faster than reads (paper §4.4.2, HERD)."""
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(64)
        remote = cluster.server.register_memory(64)
        times = {}

        def reader(sim):
            yield client_ep.post_read(local, 0, remote, 0, 32)
            times["read"] = sim.now

        proc = sim.process(reader(sim))
        sim.run()

        sim2 = Simulator()
        cluster2 = build_cluster(sim2, CLUSTER_EUROSYS17)
        ep2, _ = cluster2.connect(cluster2.machines[1], cluster2.server)
        local2 = ep2.machine.register_memory(64)
        remote2 = cluster2.server.register_memory(64)

        def writer(sim):
            yield ep2.post_write(local2, 0, remote2, 0, 32)
            times["write"] = sim2.now

        sim2.process(writer(sim2))
        sim2.run()
        assert times["write"] < times["read"]


class TestWrite:
    def test_write_places_bytes_remotely(self, rig):
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(64)
        remote = cluster.server.register_memory(64)
        local.write_local(0, b"request-bytes")

        def body(sim):
            yield client_ep.post_write(local, 0, remote, 16, 13)

        sim.process(body(sim))
        sim.run()
        assert remote.read_local(16, 13) == b"request-bytes"

    def test_delivery_happens_before_completion(self, rig):
        """RFP relies on the server seeing a request before the client's
        write completion fires (ACK still in flight)."""
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(8)
        remote = cluster.server.register_memory(8)
        timeline = {}

        def on_delivery():
            timeline["delivered"] = sim.now

        def body(sim):
            yield client_ep.post_write(local, 0, remote, 0, 8, on_delivery=on_delivery)
            timeline["completed"] = sim.now

        sim.process(body(sim))
        sim.run()
        assert timeline["delivered"] < timeline["completed"]

    def test_write_payload_sampled_at_post_time(self, rig):
        """The NIC DMAs the local buffer at issue; later local writes must
        not alter the in-flight payload."""
        sim, cluster, client_ep, _ = rig
        local = client_ep.machine.register_memory(8)
        remote = cluster.server.register_memory(8)
        local.write_local(0, b"original")

        def body(sim):
            completion = client_ep.post_write(local, 0, remote, 0, 8)
            local.write_local(0, b"clobber!")
            yield completion

        sim.process(body(sim))
        sim.run()
        assert remote.read_local(0, 8) == b"original"

    def test_write_on_ud_rejected(self, rig):
        sim, cluster, *_ = rig
        ep, _ = cluster.connect(cluster.machines[2], cluster.server, qp_type=QPType.UD)
        local = ep.machine.register_memory(8)
        remote = cluster.server.register_memory(8)
        with pytest.raises(TransportError):
            ep.post_write(local, 0, remote, 0, 8)

    def test_uc_write_completes_without_ack(self, rig):
        sim, cluster, *_ = rig
        ep, _ = cluster.connect(cluster.machines[2], cluster.server, qp_type=QPType.UC)
        local = ep.machine.register_memory(8)
        remote = cluster.server.register_memory(8)
        times = {}

        def body(sim):
            yield ep.post_write(local, 0, remote, 0, 8)
            times["uc"] = sim.now

        sim.process(body(sim))
        sim.run()
        # UC completion omits remote serve + ACK propagation.
        assert times["uc"] == pytest.approx(ep.machine.rnic.outbound_service_us(8))
        assert remote.read_local(0, 8) == bytes(8)  # local buffer was zeroed


class TestUnsignaledWrite:
    """``signaled=False`` drops the completion and nothing else."""

    @staticmethod
    def post_one(qp_type, signaled):
        """Post one 64 B write on a fresh rig; return what it observed."""
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        ep, _ = cluster.connect(cluster.machines[1], cluster.server, qp_type=qp_type)
        local = ep.machine.register_memory(64)
        remote = cluster.server.register_memory(64)
        local.write_local(0, b"reply-payload")
        delivered = []
        completion = ep.post_write(
            local,
            0,
            remote,
            0,
            64,
            on_delivery=lambda: delivered.append(sim.now),
            signaled=signaled,
        )
        sim.run()
        nics = (ep.machine.rnic, cluster.server.rnic)
        return {
            "completion": completion,
            "delivered": delivered,
            "payload": remote.read_local(0, 64),
            "dispatched": sim.dispatched,
            "ops": [(nic.outbound_ops, nic.inbound_ops) for nic in nics],
            "busy": [
                (nic.out_pipeline.busy_time, nic.in_pipeline.busy_time) for nic in nics
            ],
        }

    @pytest.mark.parametrize("qp_type", [QPType.RC, QPType.UC], ids=["rc", "uc"])
    def test_same_delivery_without_a_completion(self, qp_type):
        signaled = self.post_one(qp_type, signaled=True)
        unsignaled = self.post_one(qp_type, signaled=False)
        assert signaled["completion"].triggered
        assert unsignaled["completion"] is None
        assert len(unsignaled["delivered"]) == 1
        for field in ("delivered", "payload", "ops", "busy"):
            assert unsignaled[field] == signaled[field], field
        # RC schedules its ACK completion as an entry of its own; UC
        # completes inside the issue stage, which stays (it decides the
        # message's fate on the wire).
        saved = 1 if qp_type is QPType.RC else 0
        assert unsignaled["dispatched"] == signaled["dispatched"] - saved


class TestSendRecv:
    @pytest.mark.parametrize("qp_type", [QPType.RC, QPType.UC, QPType.UD])
    def test_send_recv_roundtrip(self, qp_type):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        client_ep, server_ep = cluster.connect(
            cluster.machines[1], cluster.server, qp_type=qp_type
        )

        def client(sim):
            yield client_ep.post_send(b"ping")
            reply = yield client_ep.recv()
            return reply

        def server(sim):
            message = yield server_ep.recv()
            # Receiver software cost (why two-sided shows no asymmetry).
            yield sim.timeout(CONNECTX3.recv_cpu_us)
            yield server_ep.post_send(b"pong:" + message)

        proc = sim.process(client(sim))
        sim.process(server(sim))
        sim.run()
        assert proc.value == b"pong:ping"

    def test_messages_delivered_in_order(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        client_ep, server_ep = cluster.connect(cluster.machines[1], cluster.server)

        def client(sim):
            for i in range(5):
                yield client_ep.post_send(bytes([i]))

        def server(sim):
            received = []
            for _ in range(5):
                message = yield server_ep.recv()
                received.append(message[0])
            return received

        sim.process(client(sim))
        proc = sim.process(server(sim))
        sim.run()
        assert proc.value == [0, 1, 2, 3, 4]


class TestQueuePairLifecycle:
    def test_close_releases_qp_counts(self, rig):
        sim, cluster, client_ep, server_ep = rig
        before = cluster.server.rnic.active_qps
        client_ep.qp.close()
        assert cluster.server.rnic.active_qps == before - 1
        with pytest.raises(TransportError):
            client_ep.post_send(b"x")

    def test_connect_self_rejected(self, rig):
        from repro.errors import HardwareModelError

        _, cluster, *_ = rig
        with pytest.raises(HardwareModelError):
            cluster.connect(cluster.server, cluster.server)

    def test_connect_registers_qps_on_both_nics(self):
        sim = Simulator()
        cluster = build_cluster(sim, CLUSTER_EUROSYS17)
        assert cluster.server.rnic.active_qps == 0
        cluster.connect(cluster.machines[1], cluster.server)
        cluster.connect(cluster.machines[2], cluster.server)
        assert cluster.server.rnic.active_qps == 2
        assert cluster.machines[1].rnic.active_qps == 1
        cluster.close_all()
        assert cluster.server.rnic.active_qps == 0
