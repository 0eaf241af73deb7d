"""Unit tests for registered memory regions and staged (torn) writes."""

import os
import signal
import time

import pytest

from repro.errors import RegistrationError
from repro.hw import CLUSTER_EUROSYS17, build_cluster
from repro.hw import memory
from repro.hw.memory import ARENA_CHUNK_BYTES, staged_write
from repro.sim import Simulator


@pytest.fixture()
def machine():
    sim = Simulator()
    cluster = build_cluster(sim, CLUSTER_EUROSYS17)
    return sim, cluster.server


class TestMemoryRegion:
    def test_round_trip(self, machine):
        _, m = machine
        region = m.register_memory(64)
        region.write_local(8, b"hello")
        assert region.read_local(8, 5) == b"hello"

    def test_starts_zeroed(self, machine):
        _, m = machine
        region = m.register_memory(16)
        assert region.read_local(0, 16) == bytes(16)
        region = m.register_memory(16384)
        assert region.read_local(0, 16384) == bytes(16384)
        # Too big for what is left of the chunk: it opens a new one.
        size = ARENA_CHUNK_BYTES - 1024
        region = m.register_memory(size)
        assert region.read_local(0, size) == bytes(size)

    def test_filling_a_region_leaves_its_neighbours_zero(self, machine):
        _, m = machine
        # 128 B is a multiple of the alignment: the three regions abut.
        before, region, after = (m.register_memory(128) for _ in range(3))
        region.fill(0, region.size, 0xFF)
        assert region.read_local(0, 128) == b"\xff" * 128
        assert before.read_local(0, 128) == bytes(128)
        assert after.read_local(0, 128) == bytes(128)

    def test_region_larger_than_a_chunk_round_trips_at_both_ends(self, machine):
        _, m = machine
        size = ARENA_CHUNK_BYTES + 4096
        region = m.register_memory(size)
        region.write_local(0, b"head")
        region.write_local(size - 4, b"tail")
        assert region.read_local(0, 4) == b"head"
        assert region.read_local(size - 4, 4) == b"tail"
        assert region.read_local(4, size - 8) == bytes(size - 8)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_are_private(self, machine):
        _, m = machine
        region = m.register_memory(64)
        region.write_local(0, b"parent")
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                region.write_local(0, b"child!")
                code = 0 if region.read_local(0, 6) == b"child!" else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child did not exit within 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        assert region.read_local(0, 6) == b"parent"

    def test_bounds_checked(self, machine):
        _, m = machine
        region = m.register_memory(16)
        with pytest.raises(RegistrationError):
            region.read_local(10, 7)
        with pytest.raises(RegistrationError):
            region.write_local(15, b"ab")
        with pytest.raises(RegistrationError):
            region.read_local(-1, 4)

    def test_zero_size_rejected(self, machine):
        _, m = machine
        with pytest.raises(RegistrationError):
            m.register_memory(0)

    def test_deregistered_region_rejects_access(self, machine):
        _, m = machine
        region = m.register_memory(16)
        m.release_memory(region)
        assert not region.registered
        with pytest.raises(RegistrationError):
            region.read_local(0, 1)

    def test_release_foreign_region_rejected(self, machine):
        sim, m = machine
        other_sim = Simulator()
        other = build_cluster(other_sim, CLUSTER_EUROSYS17).server
        region = other.register_memory(16)
        with pytest.raises(RegistrationError):
            m.release_memory(region)

    def test_fill(self, machine):
        _, m = machine
        region = m.register_memory(8)
        region.fill(2, 4, 0xFF)
        assert region.read_local(0, 8) == b"\x00\x00\xff\xff\xff\xff\x00\x00"

    def test_registered_bytes_accounting(self, machine):
        _, m = machine
        a = m.register_memory(100)
        m.register_memory(50)
        assert m.registered_bytes() == 150
        m.release_memory(a)
        assert m.registered_bytes() == 50
        m.release_memory(a)
        assert m.registered_bytes() == 50

    def test_memory_budget_enforced(self, machine, monkeypatch):
        _, m = machine
        mapped = []
        real_map = memory._map
        monkeypatch.setattr(
            memory, "_map", lambda size: mapped.append(size) or real_map(size)
        )
        with pytest.raises(RegistrationError, match=f"exceeds {m.spec.memory_gb} GB"):
            m.register_memory(m.spec.memory_gb * (1 << 30) + 1)
        assert mapped == []
        assert m.registered_bytes() == 0


class TestStagedWrite:
    def test_final_state_is_full_payload(self, machine):
        sim, m = machine
        region = m.register_memory(32)
        sim.process(staged_write(sim, region, 0, b"ABCDEFGH", duration=1.0))
        sim.run()
        assert region.read_local(0, 8) == b"ABCDEFGH"

    def test_mid_write_state_is_torn(self, machine):
        sim, m = machine
        region = m.register_memory(32)
        region.write_local(0, b"oldoldol")
        sim.process(staged_write(sim, region, 0, b"NEWNEWNE", duration=2.0))
        observed = {}

        def peek():
            observed["mid"] = region.read_local(0, 8)

        sim.schedule(1.0, peek)
        sim.run()
        # First half new, second half still old: a torn read.
        assert observed["mid"] == b"NEWNldol"
        assert region.read_local(0, 8) == b"NEWNEWNE"
