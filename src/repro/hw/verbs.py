"""Queue pairs and RDMA verbs.

A :class:`QueuePair` connects two machines and exposes one symmetric
:class:`Endpoint` per side.  Endpoints carry the operations the paper's
paradigms are written against:

- ``post_read`` — one-sided RDMA Read (RC only).  The remote CPU is never
  involved: the op consumes only the remote NIC's *in-bound* pipeline.
- ``post_write`` — one-sided RDMA Write (RC/UC).  Payload becomes visible
  in remote memory when the remote in-bound pipeline delivers it, *before*
  the issuer's completion fires — exactly the property RFP's request path
  relies on.
- ``post_send`` / ``recv`` — two-sided messaging (all QP types).  Delivery
  requires the receiving *software* to consume the message; receiving
  threads must charge ``spec.recv_cpu_us`` per message, which is why
  Send/Recv shows none of the one-sided asymmetry (§2.2).

Timing anatomy of a one-sided op (constants from :class:`NicSpec`):

``post_cpu`` (issuing thread, charged by the caller) → out-bound pipeline
(issuer NIC) → propagation → in-bound pipeline (target NIC; data copied
here) → propagation back → [``read_extra`` for reads] → completion event.

Reads carry only a ~16-byte request on the issuing side and ``size`` bytes
on the serving side; writes carry ``size`` bytes outbound.  This is what
makes the *server-sends-nothing* design of RFP pay off: a server that only
ever serves in-bound traffic runs at the in-bound pipeline rate.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.errors import TransportError
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion
from repro.hw.network import Network
from repro.sim.core import Event, Simulator
from repro.sim.random import seeded_rng
from repro.sim.resources import Store

__all__ = ["QPType", "QueuePair", "Endpoint", "READ_REQUEST_WIRE_BYTES"]

#: Wire size of the request half of an RDMA Read (header only).
READ_REQUEST_WIRE_BYTES = 16
#: Wire size of an atomic request (header + operands).
ATOMIC_WIRE_BYTES = 28


class QPType(enum.Enum):
    """InfiniBand queue-pair transport types (§5, Related Work).

    - ``RC`` (Reliable Connection): supports Read, Write, Send — required
      by RFP and all server-bypass designs.
    - ``UC`` (Unreliable Connection): Write and Send only.
    - ``UD`` (Unreliable Datagram): Send only.
    """

    RC = "RC"
    UC = "UC"
    UD = "UD"


# A module global loads faster than an enum member (docs/sim.md).
_RC = QPType.RC
_UD = QPType.UD


class QueuePair:
    """A connected queue pair; use :attr:`a` and :attr:`b` endpoints.

    By convention :meth:`connect` returns ``(initiator_endpoint,
    target_endpoint)``.

    ``loss_probability`` models the fabric dropping packets.  RC recovers
    transparently (the NIC retransmits; we charge no extra time for the
    rare case), so losses only affect **UC and UD** traffic — those
    messages vanish silently while the sender's completion still fires,
    exactly the hazard §5 holds against UC/UD-based designs ("corrupted
    and silently dropped are both possible").
    """

    def __init__(
        self,
        sim: Simulator,
        machine_a: Machine,
        machine_b: Machine,
        network: Network,
        qp_type: QPType = QPType.RC,
        loss_probability: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise TransportError(
                f"loss probability must be in [0, 1): {loss_probability}"
            )
        self.sim = sim
        self.network = network
        self.qp_type = qp_type
        self.loss_probability = loss_probability
        self._loss_rng = (
            seeded_rng(loss_seed) if loss_probability > 0.0 else None
        )
        self.messages_lost = 0
        self._open = True
        self.a = Endpoint(self, machine_a, machine_b)
        self.b = Endpoint(self, machine_b, machine_a)
        self.a._peer, self.b._peer = self.b, self.a
        machine_a.rnic.register_qp()
        machine_b.rnic.register_qp()

    def _drops_unreliable_message(self) -> bool:
        """Decide the fate of one UC/UD message in flight."""
        if self._loss_rng is None or self.qp_type is _RC:
            return False
        if self._loss_rng.random() < self.loss_probability:
            self.messages_lost += 1
            return True
        return False

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        """Disconnect; further verbs raise :class:`TransportError`."""
        if self._open:
            self._open = False
            self.a.machine.rnic.unregister_qp()
            self.b.machine.rnic.unregister_qp()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuePair({self.qp_type.value}: {self.a.machine.name} <-> "
            f"{self.b.machine.name})"
        )


class Endpoint:
    """One side of a :class:`QueuePair`: all verbs are issued from here."""

    def __init__(self, qp: QueuePair, machine: Machine, remote: Machine) -> None:
        self.qp = qp
        self.sim = qp.sim
        self.machine = machine
        self.remote = remote
        #: Two-sided Send/Recv queue, built on first use: one-sided
        #: traffic (all of RFP) never touches it, and a Store holds two
        #: preallocated deques.
        self._inbox: Optional[Store] = None
        self._peer: Optional["Endpoint"] = None
        # Single-switch fabric: propagation between a fixed machine pair
        # never changes, so hoist both directions out of the verb paths.
        self._forward_us = qp.network.propagation_us(machine.name, remote.name)
        self._backward_us = qp.network.propagation_us(remote.name, machine.name)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    # The one-sided verbs test these conditions inline and call the
    # helpers below only when a test fails, so the helpers raise exactly
    # the error a failed check always raised.

    def _check_open(self) -> None:
        if not self.qp._open:
            raise TransportError("verb posted on a closed queue pair")

    def _check_regions(
        self,
        local_mr: MemoryRegion,
        local_offset: int,
        remote_mr: MemoryRegion,
        remote_offset: int,
        size: int,
    ) -> None:
        if local_mr.machine is not self.machine:
            raise TransportError(
                f"local region {local_mr.name!r} lives on "
                f"{local_mr.machine.name}, endpoint is on {self.machine.name}"
            )
        if remote_mr.machine is not self.remote:
            raise TransportError(
                f"remote region {remote_mr.name!r} lives on "
                f"{remote_mr.machine.name}, peer is {self.remote.name}"
            )
        local_mr._check(local_offset, size)
        remote_mr._check(remote_offset, size)

    # ------------------------------------------------------------------
    # Shared verb stages
    # ------------------------------------------------------------------

    # Pipeline occupancy is deterministic, so each stage schedules the
    # next one directly against its known completion instant — no
    # intermediate events.  A verb travels as one tuple, ``(served,
    # size, completion, *operands)``, through bound-method stages, so
    # posting it builds no closures.  The in-bound submission still
    # happens *at arrival time* (_at_remote): remote queueing depends on
    # the arrival order of ops from every issuer.
    #
    # The one-sided stages copy through the region's view: the post
    # checked the bounds, and a stage that ends past the region's extent
    # or finds it deregistered goes through ``_reach`` as ``read_local``
    # and ``write_local`` do, which grows the bytes or raises.

    def _issued_unreliably(self, op: tuple) -> None:
        # Unreliable transports complete at issue time and may drop the
        # message on the wire.
        if op[2] is not None:
            op[2].trigger(op[1])
        if self.qp._drops_unreliable_message():
            return  # vanished on the wire; the sender never knows
        self.sim.schedule(self._forward_us, self._at_remote, op)

    def _at_remote(self, op: tuple) -> None:
        sim = self.sim
        done_in = self.remote.rnic.occupy_inbound(op[1])
        sim.schedule(done_in - sim.now, op[0], op)

    # ------------------------------------------------------------------
    # One-sided verbs
    # ------------------------------------------------------------------

    def post_read(
        self,
        local_mr: MemoryRegion,
        local_offset: int,
        remote_mr: MemoryRegion,
        remote_offset: int,
        size: int,
    ) -> Event:
        """One-sided RDMA Read: remote bytes -> local region.

        Remote bytes are *sampled* when the remote in-bound pipeline serves
        the op (that is when the DMA engine reads host memory) and land in
        the local region when the completion fires — a concurrent remote
        CPU write is therefore observable torn.
        """
        qp = self.qp
        if not qp._open:
            self._check_open()
        if qp.qp_type is not _RC:
            raise TransportError(
                f"RDMA Read requires RC, not {qp.qp_type.value}"
            )
        if (
            local_mr.machine is not self.machine
            or remote_mr.machine is not self.remote
            or not (local_mr._registered and remote_mr._registered)
            or local_offset < 0
            or remote_offset < 0
            or size < 0
            or local_offset + size > local_mr.size
            or remote_offset + size > remote_mr.size
        ):
            self._check_regions(local_mr, local_offset, remote_mr, remote_offset, size)

        sim = self.sim
        completion = Event(sim)
        done_out = self.machine.rnic.occupy_outbound(
            READ_REQUEST_WIRE_BYTES, kind="read"
        )
        sim.schedule(
            done_out - sim.now + self._forward_us,
            self._at_remote,
            (
                self._read_served,
                size,
                completion,
                local_mr,
                local_offset,
                remote_mr,
                remote_offset,
            ),
        )
        return completion

    def _read_served(self, op: tuple) -> None:
        _, size, _, _, _, remote_mr, remote_offset = op
        if remote_offset + size > remote_mr._extent or not remote_mr._registered:
            remote_mr._reach(remote_offset, size)
        snapshot = remote_mr._view[remote_offset : remote_offset + size].tobytes()
        self.sim.schedule(
            self._backward_us + self.machine.rnic.spec.read_extra_us,
            self._read_delivered,
            op,
            snapshot,
        )

    def _read_delivered(self, op: tuple, snapshot: bytes) -> None:
        _, size, completion, local_mr, local_offset, _, _ = op
        if local_offset + size > local_mr._extent or not local_mr._registered:
            local_mr._reach(local_offset, size)
        local_mr._view[local_offset : local_offset + size] = snapshot
        completion.trigger(size)

    def post_write(
        self,
        local_mr: MemoryRegion,
        local_offset: int,
        remote_mr: MemoryRegion,
        remote_offset: int,
        size: int,
        on_delivery: Optional[Callable[[], None]] = None,
        signaled: bool = True,
    ) -> Optional[Event]:
        """One-sided RDMA Write: local bytes -> remote region.

        ``on_delivery`` runs at the instant the payload lands in remote
        memory (used by upper layers to model a memory poller noticing the
        write without simulating each poll iteration).  On RC the
        completion fires after the hardware ACK returns; on UC it fires
        once the issuing NIC has sent the payload (no reliability).

        ``signaled=False`` posts the write without a completion, like an
        ibverbs work request without ``IBV_SEND_SIGNALED``: no event, no
        completion dispatch, and ``None`` is returned.  Delivery, the
        ``on_delivery`` hook and the NIC's pipelines are unchanged.
        """
        qp = self.qp
        if not qp._open:
            self._check_open()
        if qp.qp_type is _UD:
            raise TransportError("RDMA Write requires RC or UC, not UD")
        if (
            local_mr.machine is not self.machine
            or remote_mr.machine is not self.remote
            or not (local_mr._registered and remote_mr._registered)
            or local_offset < 0
            or remote_offset < 0
            or size < 0
            or local_offset + size > local_mr.size
            or remote_offset + size > remote_mr.size
        ):
            self._check_regions(local_mr, local_offset, remote_mr, remote_offset, size)

        if local_offset + size > local_mr._extent:
            local_mr._reach(local_offset, size)
        sim = self.sim
        completion = Event(sim) if signaled else None
        op = (
            self._write_served,
            size,
            completion,
            remote_mr,
            remote_offset,
            local_mr._view[local_offset : local_offset + size].tobytes(),
            on_delivery,
        )
        done_out = self.machine.rnic.occupy_outbound(size)
        if qp.qp_type is _RC:
            sim.schedule(done_out - sim.now + self._forward_us, self._at_remote, op)
        else:
            sim.schedule(done_out - sim.now, self._issued_unreliably, op)
        return completion

    def _write_served(self, op: tuple) -> None:
        _, size, completion, remote_mr, remote_offset, payload, on_delivery = op
        if remote_offset + size > remote_mr._extent or not remote_mr._registered:
            remote_mr._reach(remote_offset, size)
        remote_mr._view[remote_offset : remote_offset + size] = payload
        if on_delivery is not None:
            on_delivery()
        if completion is not None and self.qp.qp_type is _RC:
            self.sim.schedule(self._backward_us, completion.trigger, size)

    # ------------------------------------------------------------------
    # Atomic verbs
    # ------------------------------------------------------------------

    def post_atomic_cas(
        self,
        remote_mr: MemoryRegion,
        remote_offset: int,
        expected: int,
        swap: int,
    ) -> Event:
        """One-sided 64-bit compare-and-swap (RC only).

        Completes with the *original* value at the remote address; the
        swap happened iff ``original == expected``.  Atomicity comes for
        free in the model: the target NIC's in-bound pipeline serializes
        every operation touching its memory.
        """
        return self._post_atomic(
            remote_mr,
            remote_offset,
            lambda original: swap if original == expected else original,
        )

    def post_atomic_faa(
        self, remote_mr: MemoryRegion, remote_offset: int, delta: int
    ) -> Event:
        """One-sided 64-bit fetch-and-add (RC only); completes with the
        original value."""
        return self._post_atomic(
            remote_mr,
            remote_offset,
            lambda original: (original + delta) & 0xFFFFFFFFFFFFFFFF,
        )

    def _post_atomic(
        self, remote_mr: MemoryRegion, remote_offset: int, update
    ) -> Event:
        self._check_open()
        if self.qp.qp_type is not _RC:
            raise TransportError(
                f"RDMA atomics require RC, not {self.qp.qp_type.value}"
            )
        if remote_mr.machine is not self.remote:
            raise TransportError(
                f"remote region {remote_mr.name!r} lives on "
                f"{remote_mr.machine.name}, peer is {self.remote.name}"
            )
        if remote_offset % 8 != 0:
            raise TransportError(
                f"atomics require 8-byte alignment, offset {remote_offset}"
            )
        remote_mr._check(remote_offset, 8)

        sim = self.sim
        completion = Event(sim)
        done_out = self.machine.rnic.occupy_outbound(ATOMIC_WIRE_BYTES, kind="read")
        sim.schedule(
            done_out - sim.now + self._forward_us,
            self._at_remote,
            (self._atomic_served, 8, completion, remote_mr, remote_offset, update),
        )
        return completion

    def _atomic_served(self, op: tuple) -> None:
        _, _, completion, remote_mr, remote_offset, update = op
        original = int.from_bytes(remote_mr.read_local(remote_offset, 8), "little")
        remote_mr.write_local(remote_offset, update(original).to_bytes(8, "little"))
        # Atomics keep read-like state in the issuing NIC.
        self.sim.schedule(
            self._backward_us + self.machine.rnic.spec.read_extra_us,
            completion.trigger,
            original,
        )

    # ------------------------------------------------------------------
    # Two-sided verbs
    # ------------------------------------------------------------------

    def post_send(self, payload: bytes) -> Event:
        """Two-sided Send toward the peer endpoint.

        The message lands in the peer's inbox once the peer NIC's in-bound
        pipeline delivers it.  The *receiving thread* must charge
        ``spec.recv_cpu_us`` per message — reception is a software path.
        """
        self._check_open()
        sim = self.sim
        size = len(payload)
        completion = Event(sim)
        qp_type = self.qp.qp_type
        op = (self._send_served, size, completion, payload)
        done_out = self.machine.rnic.occupy_outbound(
            size, kind="ud_send" if qp_type is _UD else "write"
        )
        if qp_type is _RC:
            sim.schedule(done_out - sim.now + self._forward_us, self._at_remote, op)
        else:
            sim.schedule(done_out - sim.now, self._issued_unreliably, op)
        return completion

    def _send_served(self, op: tuple) -> None:
        _, size, completion, payload = op
        self._peer._inbox_store().put(payload)
        if self.qp.qp_type is _RC:
            self.sim.schedule(self._backward_us, completion.trigger, size)

    def recv(self) -> Event:
        """Event yielding the next Send payload addressed to this endpoint."""
        self._check_open()
        return self._inbox_store().get()

    @property
    def pending_messages(self) -> int:
        """Messages delivered but not yet received."""
        return 0 if self._inbox is None else len(self._inbox)

    def _inbox_store(self) -> Store:
        if self._inbox is None:
            self._inbox = Store(self.sim)
        return self._inbox

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Endpoint({self.machine.name} -> {self.remote.name})"
