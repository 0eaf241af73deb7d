"""A HERD-style RPC system over unreliable transports (§5, Related Work).

HERD (Kalia et al., SIGCOMM'14) issues requests as **UC RDMA Writes**
into server memory and replies with **UD Sends** — both cheaper to issue
than RC verbs because the NIC tracks no reliability state.  The paper's
§5 concedes such designs can beat RC-based ones on raw rate, "but it is
at a cost of requiring the applications to handle many subtle problems,
such as message lost, reorder and duplication."

This baseline implements exactly those subtle problems, honestly:

- UC request writes and UD reply sends can be **silently dropped** (the
  queue pair's ``loss_probability``); the sender's completion fires
  anyway, as on real hardware;
- the client therefore runs a **timeout-and-retransmit** loop keyed by a
  per-call sequence number;
- the server keeps the last reply per client and **resends it for
  duplicate sequence numbers** without re-executing the handler (PUTs
  must not be applied twice).

Wire formats: requests are ``u32 seq | u16 size | payload`` in the
per-client request buffer; replies are ``u32 seq | payload`` UD messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from repro.core.server import RequestContext
from repro.errors import ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.hw.verbs import QPType
from repro.sim.core import AnyOf, Simulator
from repro.sim.monitor import Counter
from repro.sim.resources import Store

__all__ = ["HerdServer", "HerdClient"]

_REQUEST_HEADER = struct.Struct("<IH")
_REPLY_HEADER = struct.Struct("<I")

#: ``handler(payload, ctx) -> (response_bytes, process_time_us)``
Handler = Callable[[bytes, RequestContext], Tuple[bytes, float]]


@dataclass
class HerdStats:
    calls: Counter = field(default_factory=lambda: Counter("calls"))
    retransmits: Counter = field(default_factory=lambda: Counter("retransmits"))
    duplicate_requests: Counter = field(default_factory=lambda: Counter("dups"))


class _HerdChannel:
    """Server-side per-client state: buffers, QPs, duplicate cache."""

    def __init__(self, server: "HerdServer", client_machine: Machine, thread_id: int):
        cluster = server.cluster
        self.thread_id = thread_id
        self.client_id = len(server.channels) + 1
        self.uc_client, self.uc_server = cluster.connect(
            client_machine,
            server.machine,
            qp_type=QPType.UC,
            loss_probability=server.loss_probability,
            loss_seed=2 * self.client_id,
        )
        self.ud_client, self.ud_server = cluster.connect(
            client_machine,
            server.machine,
            qp_type=QPType.UD,
            loss_probability=server.loss_probability,
            loss_seed=2 * self.client_id + 1,
        )
        self.request_region = server.machine.register_memory(
            server.request_buffer_bytes, name=f"herd.req[{self.client_id}]"
        )
        self.last_seq = 0
        self.last_reply: Optional[bytes] = None


class HerdServer:
    """UC-request / UD-reply RPC server with duplicate suppression."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Optional[Machine] = None,
        handler: Optional[Handler] = None,
        threads: int = 6,
        request_buffer_bytes: int = 4096,
        loss_probability: float = 0.0,
        poll_cpu_us: float = 0.05,
        sw_us: float = 0.15,
        name: str = "herd",
    ) -> None:
        if handler is None:
            raise ProtocolError("HerdServer needs a handler")
        self.sim = sim
        self.cluster = cluster
        self.machine = machine if machine is not None else cluster.server
        self.handler = handler
        self.threads = threads
        self.request_buffer_bytes = request_buffer_bytes
        self.loss_probability = loss_probability
        self.poll_cpu_us = poll_cpu_us
        self.sw_us = sw_us
        self.name = name
        self.requests_served = Counter("requests")
        self.replies_sent = Counter("replies")
        self.channels: List[_HerdChannel] = []
        self._stores: List[Store] = [Store(sim) for _ in range(threads)]
        for thread_id, store in enumerate(self._stores):
            self.machine.rnic.register_issuer()
            sim.process(self._thread_body(thread_id, store), name=f"{name}.t{thread_id}")

    def accept(self, client_machine: Machine) -> _HerdChannel:
        channel = _HerdChannel(self, client_machine, len(self.channels) % self.threads)
        self.channels.append(channel)
        return channel

    def notify(self, channel: _HerdChannel) -> None:
        """Delivery hook of a client's UC request write."""
        self._stores[channel.thread_id].put(channel)

    def _thread_body(self, thread_id: int, store: Store) -> Generator:
        sim = self.sim
        while True:
            channel: _HerdChannel = yield store.get()
            yield sim.timeout(self.poll_cpu_us)
            raw = channel.request_region.read_local(0, _REQUEST_HEADER.size)
            seq, size = _REQUEST_HEADER.unpack(raw)
            payload = channel.request_region.read_local(_REQUEST_HEADER.size, size)
            if seq == channel.last_seq and channel.last_reply is not None:
                # A retransmitted request: resend the cached reply, do not
                # re-execute (PUTs are not idempotent).
                yield from self._send_reply(channel, channel.last_reply)
                continue
            context = RequestContext(client_id=channel.client_id, thread_id=thread_id)
            response, process_us = self.handler(payload, context)
            if process_us > 0:
                yield sim.timeout(process_us)
            yield sim.timeout(self.sw_us)
            reply = _REPLY_HEADER.pack(seq) + response
            channel.last_seq = seq
            channel.last_reply = reply
            self.requests_served.increment()
            yield from self._send_reply(channel, reply)

    def _send_reply(self, channel: _HerdChannel, reply: bytes) -> Generator:
        yield self.sim.timeout(self.machine.rnic.spec.post_cpu_us)
        channel.ud_server.post_send(reply)  # fire-and-forget datagram
        self.replies_sent.increment()

    def connect(self, machine: Machine, name: str = "") -> "HerdClient":
        return HerdClient(self.sim, machine, self, name=name)


class HerdClient:
    """One HERD client: UC request writes, UD reply waits, retransmits."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: HerdServer,
        timeout_us: float = 30.0,
        max_attempts: int = 50,
        post_cpu_us: float = 0.15,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.server = server
        self.timeout_us = timeout_us
        self.max_attempts = max_attempts
        self.post_cpu_us = post_cpu_us
        self.name = name or f"herd-client@{machine.name}"
        self.stats = HerdStats()
        self.channel = server.accept(machine)
        self._staging = machine.register_memory(
            server.request_buffer_bytes, name=f"{self.name}.staging"
        )
        self.seq = 0
        # One receive is kept pending across timeouts: abandoning a
        # timed-out recv() would silently swallow the next delivery.
        self._pending_recv = None
        machine.rnic.register_issuer()

    def call(self, payload: bytes) -> Generator:
        """Process body: one RPC with loss recovery; returns the response."""
        sim = self.sim
        limit = self.server.request_buffer_bytes - _REQUEST_HEADER.size
        if len(payload) > limit:
            raise ProtocolError(f"request of {len(payload)} B exceeds {limit} B")
        self.seq += 1
        seq = self.seq
        self._staging.write_local(0, _REQUEST_HEADER.pack(seq, len(payload)) + payload)
        channel = self.channel
        server = self.server
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.stats.retransmits.increment()
            yield sim.timeout(self.post_cpu_us)
            yield channel.uc_client.post_write(
                self._staging,
                0,
                channel.request_region,
                0,
                _REQUEST_HEADER.size + len(payload),
                on_delivery=lambda: server.notify(channel),
            )
            response = yield from self._await_reply(seq)
            if response is not None:
                self.stats.calls.increment()
                return response
        raise ProtocolError(
            f"{self.name}: call seq={seq} lost {self.max_attempts} times"
        )

    def _await_reply(self, seq: int) -> Generator:
        """Wait for the matching UD reply; None means timed out."""
        sim = self.sim
        deadline = sim.now + self.timeout_us
        spec = self.machine.rnic.spec
        while True:
            if self._pending_recv is None:
                self._pending_recv = self.channel.ud_client.recv()
            if not self._pending_recv.triggered:
                remaining = deadline - sim.now
                if remaining <= 0:
                    return None  # timed out; the pending recv stays armed
                index, _ = yield AnyOf(
                    sim, [self._pending_recv, sim.timeout(remaining)]
                )
                if index == 1:
                    return None  # timed out; caller retransmits
            value = self._pending_recv.value
            self._pending_recv = None
            yield sim.timeout(spec.recv_cpu_us)
            (reply_seq,) = _REPLY_HEADER.unpack_from(value)
            if reply_seq == seq:
                return value[_REPLY_HEADER.size :]
            if reply_seq < seq:
                self.stats.duplicate_requests.increment()
                continue  # stale duplicate of an older reply
            raise ProtocolError(f"reply from the future: {reply_seq} > {seq}")
