"""Unit tests for the RNIC pipeline model (paper Figs. 3 and 5 shapes)."""

import pytest

from repro.errors import HardwareModelError
from repro.hw import CONNECTX3, pipeline_service_time
from repro.hw.rnic import RNIC
from repro.sim import Simulator


BW = CONNECTX3.effective_bandwidth_bytes_per_us


class TestPipelineServiceTime:
    def test_zero_size_equals_base(self):
        assert pipeline_service_time(0.5, 0, BW) == 0.5

    def test_small_payload_dominated_by_base(self):
        base = CONNECTX3.inbound_base_us
        service = pipeline_service_time(base, 32, BW)
        assert service == pytest.approx(base, rel=0.01)

    def test_large_payload_dominated_by_bandwidth(self):
        base = CONNECTX3.inbound_base_us
        service = pipeline_service_time(base, 8192, BW)
        assert service == pytest.approx(8192 / BW, rel=0.01)

    def test_monotone_in_size(self):
        base = CONNECTX3.inbound_base_us
        sizes = [32, 64, 128, 256, 512, 1024, 2048, 4096]
        services = [pipeline_service_time(base, s, BW) for s in sizes]
        assert services == sorted(services)

    def test_negative_size_rejected(self):
        with pytest.raises(HardwareModelError):
            pipeline_service_time(0.5, -1, BW)

    def test_inbound_flat_until_256_bytes(self):
        """Paper: sizes below L=256 B do not change IOPS (Fig. 5)."""
        base = CONNECTX3.inbound_base_us
        iops_32 = 1 / pipeline_service_time(base, 32, BW)
        iops_256 = 1 / pipeline_service_time(base, 256, BW)
        assert iops_256 >= 0.95 * iops_32

    def test_directions_converge_above_2kb(self):
        """Paper: in/out-bound IOPS equal once bandwidth dominates (Fig. 5)."""
        for size in (2048, 4096, 8192):
            inbound = 1 / pipeline_service_time(CONNECTX3.inbound_base_us, size, BW)
            outbound = 1 / pipeline_service_time(CONNECTX3.outbound_base_us, size, BW)
            assert outbound == pytest.approx(inbound, rel=0.25)
        # ... but differ by ~5x at 32 bytes.
        inbound = 1 / pipeline_service_time(CONNECTX3.inbound_base_us, 32, BW)
        outbound = 1 / pipeline_service_time(CONNECTX3.outbound_base_us, 32, BW)
        assert inbound / outbound > 4.5


class TestRnicContention:
    def make_rnic(self):
        return RNIC(Simulator(), CONNECTX3, owner_name="m0")

    def test_no_penalty_below_knees(self):
        rnic = self.make_rnic()
        for _ in range(CONNECTX3.read_issue_knee):
            rnic.register_issuer()
        assert rnic.issue_penalty("read") == 1.0
        assert rnic.issue_penalty("write") == 1.0

    def test_read_penalty_grows_past_knee(self):
        rnic = self.make_rnic()
        for _ in range(CONNECTX3.read_issue_knee + 10):
            rnic.register_issuer()
        expected = 1.0 + 10 * CONNECTX3.read_issue_coeff
        assert rnic.issue_penalty("read") == pytest.approx(expected)

    def test_write_penalty_grows_past_knee(self):
        rnic = self.make_rnic()
        for _ in range(CONNECTX3.write_issue_knee + 10):
            rnic.register_issuer()
        expected = 1.0 + 10 * CONNECTX3.write_issue_coeff
        assert rnic.issue_penalty("write") == pytest.approx(expected)

    def test_read_penalty_steeper_than_write(self):
        """Reads hold more NIC state, so their issuing congests earlier."""
        rnic = self.make_rnic()
        for _ in range(20):
            rnic.register_issuer()
        assert rnic.issue_penalty("read") > rnic.issue_penalty("write")

    def test_unknown_kind_rejected(self):
        with pytest.raises(HardwareModelError):
            self.make_rnic().issue_penalty("atomic")

    def test_unregister_restores_penalty(self):
        rnic = self.make_rnic()
        for _ in range(20):
            rnic.register_issuer()
        loaded = rnic.issue_penalty("read")
        for _ in range(20):
            rnic.unregister_issuer()
        assert loaded > 1.0
        assert rnic.issue_penalty("read") == 1.0

    def test_qp_registration_tracked(self):
        rnic = self.make_rnic()
        rnic.register_qp()
        rnic.register_qp()
        assert rnic.active_qps == 2
        rnic.unregister_qp()
        assert rnic.active_qps == 1

    def test_underflow_rejected(self):
        rnic = self.make_rnic()
        with pytest.raises(HardwareModelError):
            rnic.unregister_issuer()
        with pytest.raises(HardwareModelError):
            rnic.unregister_qp()

    def test_service_times_reflect_peaks(self):
        rnic = self.make_rnic()
        assert rnic.inbound_service_us(32) == pytest.approx(1 / 11.26, rel=0.01)
        assert rnic.outbound_service_us(32) == pytest.approx(1 / 2.11, rel=0.01)


class TestRnicPipelines:
    def test_inbound_peak_rate_32b(self):
        """Back-to-back 32 B in-bound ops complete at ~11.26 MOPS."""
        sim = Simulator()
        rnic = RNIC(sim, CONNECTX3, "m0")
        operations = 2000
        for _ in range(operations):
            rnic.submit_inbound(32)
        sim.run()
        assert operations / sim.now == pytest.approx(11.26, rel=0.02)

    def test_outbound_peak_rate_32b(self):
        sim = Simulator()
        rnic = RNIC(sim, CONNECTX3, "m0")
        operations = 2000
        for _ in range(operations):
            rnic.submit_outbound(32)
        sim.run()
        assert operations / sim.now == pytest.approx(2.11, rel=0.02)

    def test_rejected_outbound_op_is_not_counted(self):
        rnic = RNIC(Simulator(), CONNECTX3, "m0")
        with pytest.raises(HardwareModelError):
            rnic.occupy_outbound(32, kind="bogus")
        assert (rnic.outbound_ops, rnic.outbound_bytes) == (0, 0)
        assert rnic.out_pipeline.operations == 0

    def test_rejected_inbound_op_is_not_counted(self):
        rnic = RNIC(Simulator(), CONNECTX3, "m0")
        with pytest.raises(HardwareModelError):
            rnic.occupy_inbound(-5)
        assert (rnic.inbound_ops, rnic.inbound_bytes) == (0, 0)
        assert rnic.in_pipeline.operations == 0

    def test_accepted_ops_are_counted(self):
        rnic = RNIC(Simulator(), CONNECTX3, "m0")
        rnic.occupy_outbound(32, kind="read")
        rnic.occupy_inbound(64)
        assert (rnic.outbound_ops, rnic.outbound_bytes) == (1, 32)
        assert (rnic.inbound_ops, rnic.inbound_bytes) == (1, 64)

    def test_pipelines_are_independent(self):
        """In-bound and out-bound ops do not queue behind each other."""
        sim = Simulator()
        rnic = RNIC(sim, CONNECTX3, "m0")
        inbound = rnic.submit_inbound(32)
        rnic.submit_outbound(32)
        sim.run()
        assert inbound.triggered
        # In-bound completed at its own service time, unaffected by the
        # slower out-bound pipeline.
        assert rnic.in_pipeline.busy_time == pytest.approx(1 / 11.26, rel=0.01)
