"""The two-pipeline RNIC model.

Each NIC owns two independent single-server FIFO pipelines:

- the **out-bound pipeline** processes operations this NIC *issues*
  (posting, WQE fetch, doorbell handling — hardware/software interaction),
- the **in-bound pipeline** processes operations this NIC *serves*
  (pure hardware DMA path).

Per-operation pipeline time is a soft maximum of the pipeline's base cost
and wire serialization time, :func:`pipeline_service_time`.  This single
formula produces the paper's Figure 5: at small payloads the in-bound
pipeline is ~5× faster (11.26 vs 2.11 MOPS); above ~2 KB both directions
collapse onto the 40 Gbps bandwidth line.

One contention effect (paper §2.2) is modeled as out-bound service-time
inflation: issuing threads beyond a knee contend on locks, QPs, and CQs
at the *sender*.  The penalty is steeper for Reads (which hold more
in-NIC state) than for Writes — the read penalty produces the aggregate
in-bound sag with 50+ client threads (Figs. 4 and 10, clients issuing
Reads), the write penalty the ServerReply decline past ~6 server threads
(Figs. 3 and 12, the server issuing Writes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HardwareModelError
from repro.sim.core import Event, Simulator
from repro.sim.resources import ServiceStation
from repro.hw.specs import NicSpec

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["pipeline_service_time", "RNIC"]


def pipeline_service_time(
    base_us: float, size_bytes: int, bandwidth_bytes_per_us: float, order: float = 4.0
) -> float:
    """Per-op pipeline occupancy: soft-max of base cost and serialization.

    ``(base^p + (size/bw)^p)^(1/p)`` — smooth knee between the IOPS-limited
    regime (small payloads, flat at ``1/base``) and the bandwidth-limited
    regime (large payloads, ``bw/size``).  ``order`` controls knee
    sharpness; 4 matches the gradual roll-off of Fig. 5.
    """
    if size_bytes < 0:
        raise HardwareModelError(f"negative payload size: {size_bytes}")
    if size_bytes == 0:
        return base_us
    wire = size_bytes / bandwidth_bytes_per_us
    return (base_us**order + wire**order) ** (1.0 / order)


class RNIC:
    """One simulated RDMA NIC attached to a machine.

    The verbs layer drives the NIC through :meth:`submit_outbound` and
    :meth:`submit_inbound`; thread/QP registration feeds the contention
    penalties.
    """

    def __init__(self, sim: Simulator, spec: NicSpec, owner_name: str) -> None:
        self.sim = sim
        self.spec = spec
        self.owner_name = owner_name
        self.out_pipeline = ServiceStation(sim, servers=1, name=f"{owner_name}.out")
        self.in_pipeline = ServiceStation(sim, servers=1, name=f"{owner_name}.in")
        self._issuing_threads = 0
        self._active_qps = 0
        # Memoized pipeline occupancies: benches submit a handful of
        # distinct payload sizes millions of times, and the soft-max in
        # pipeline_service_time costs three float pows.  The out-bound
        # cache folds in the contention penalty, so it must be dropped
        # whenever the issuing-thread count changes.
        self._out_service_cache: dict = {}
        self._in_service_cache: dict = {}
        #: Lifetime op/byte tallies per direction.  The invariant checker
        #: (:mod:`repro.lint.invariants`) reconciles these against the
        #: traced protocol — an RFP server whose clients all remote-fetch
        #: must show zero out-bound ops (§2.2).
        self.outbound_ops = 0
        self.inbound_ops = 0
        self.outbound_bytes = 0
        self.inbound_bytes = 0

    # ------------------------------------------------------------------
    # Contention bookkeeping
    # ------------------------------------------------------------------

    @property
    def issuing_threads(self) -> int:
        return self._issuing_threads

    @property
    def active_qps(self) -> int:
        return self._active_qps

    def register_issuer(self) -> None:
        """Declare one more thread actively issuing verbs via this NIC."""
        self._issuing_threads += 1
        self._out_service_cache.clear()

    def unregister_issuer(self) -> None:
        if self._issuing_threads <= 0:
            raise HardwareModelError(f"{self.owner_name}: issuer underflow")
        self._issuing_threads -= 1
        self._out_service_cache.clear()

    def register_qp(self) -> None:
        """Declare one more connected queue pair terminating at this NIC."""
        self._active_qps += 1

    def unregister_qp(self) -> None:
        if self._active_qps <= 0:
            raise HardwareModelError(f"{self.owner_name}: QP underflow")
        self._active_qps -= 1

    def issue_penalty(self, kind: str = "write") -> float:
        """Out-bound service multiplier from sender-side contention.

        ``kind`` is ``"read"`` for RDMA Read requests (steeper penalty —
        reads keep per-op state in the NIC) and ``"write"`` for
        Writes/Sends.
        """
        if kind == "read":
            knee, coeff = self.spec.read_issue_knee, self.spec.read_issue_coeff
        elif kind in ("write", "ud_send"):
            knee, coeff = self.spec.write_issue_knee, self.spec.write_issue_coeff
        else:
            raise HardwareModelError(f"unknown issue kind: {kind!r}")
        excess = max(0, self._issuing_threads - knee)
        return 1.0 + coeff * excess

    # ------------------------------------------------------------------
    # Service-time model
    # ------------------------------------------------------------------

    def outbound_service_us(self, size_bytes: int, kind: str = "write") -> float:
        """Out-bound pipeline occupancy for one op carrying ``size_bytes``.

        UD Sends (``kind="ud_send"``) issue cheaper: no connection state
        to track, so their small-payload base cost scales down by
        ``spec.ud_send_scale``.
        """
        base = self.spec.outbound_base_us
        if kind == "ud_send":
            base *= self.spec.ud_send_scale
        return self.issue_penalty(kind) * pipeline_service_time(
            base,
            size_bytes,
            self.spec.effective_bandwidth_bytes_per_us,
            self.spec.softmax_order,
        )

    def inbound_service_us(self, size_bytes: int) -> float:
        """In-bound pipeline occupancy for one op carrying ``size_bytes``."""
        return pipeline_service_time(
            self.spec.inbound_base_us,
            size_bytes,
            self.spec.effective_bandwidth_bytes_per_us,
            self.spec.softmax_order,
        )

    # ------------------------------------------------------------------
    # Pipeline entry points (used by the verbs layer)
    # ------------------------------------------------------------------

    def occupy_outbound(self, size_bytes: int, kind: str = "write") -> float:
        """Enqueue one issued op; returns the instant the NIC has sent it.

        The op is counted only once its service time is known, so an op
        the model rejects leaves the tallies untouched."""
        service = self._out_service_cache.get((size_bytes, kind))
        if service is None:
            service = self._out_service_cache[(size_bytes, kind)] = (
                self.outbound_service_us(size_bytes, kind)
            )
        self.outbound_ops += 1
        self.outbound_bytes += size_bytes
        return self.out_pipeline.occupy(service)

    def occupy_inbound(self, size_bytes: int) -> float:
        """Enqueue one served op; returns the instant the NIC has handled
        it.  Counted only after the service time is known, as outbound."""
        service = self._in_service_cache.get(size_bytes)
        if service is None:
            service = self._in_service_cache[size_bytes] = self.inbound_service_us(
                size_bytes
            )
        self.inbound_ops += 1
        self.inbound_bytes += size_bytes
        return self.in_pipeline.occupy(service)

    def submit_outbound(self, size_bytes: int, kind: str = "write") -> Event:
        """Enqueue one issued op; event fires when the NIC has sent it."""
        done_at = self.occupy_outbound(size_bytes, kind)
        return self.sim.timeout(done_at - self.sim.now)

    def submit_inbound(self, size_bytes: int) -> Event:
        """Enqueue one served op; event fires when the NIC has handled it."""
        done_at = self.occupy_inbound(size_bytes)
        return self.sim.timeout(done_at - self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RNIC({self.spec.name} on {self.owner_name})"
