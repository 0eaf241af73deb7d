"""The RFP server.

The server owns one request buffer, one response buffer, and one mode
flag per connected client (Fig. 7).  Its worker threads:

1. take the next delivered request from their partition (EREW: a client
   is pinned to one thread, so threads never share state),
2. run the application handler and charge its process time,
3. write the response — payload first, header last — into the client's
   response buffer, stamping the response time into the header,
4. *only if* the client's mode flag says ``SERVER_REPLY``, push the
   response to the client with an out-bound RDMA Write; otherwise the
   server is done — the client will fetch the response itself and the
   server NIC sees nothing but in-bound traffic.

Mode-flag updates arrive as one-sided writes from clients.  A flag that
flips to ``SERVER_REPLY`` *after* the response was buffered (the client
gave up fetching while the result was landing) triggers a late reply, so
the client can never deadlock waiting for a reply the server thinks was
fetched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.config import RfpConfig
from repro.core.headers import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    pack_timed_response,
    unpack_request,
)
from repro.core.mode import REMOTE_FETCH, SERVER_REPLY, Mode
from repro.errors import ProtocolError
from repro.hw.cluster import Cluster
from repro.hw.machine import Machine
from repro.hw.memory import MemoryRegion
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Tally
from repro.sim.random import seeded_rng, stable_hash
from repro.sim.resources import Store

__all__ = ["RfpServer", "RfpServerStats", "ClientChannel", "RequestContext"]

#: ``handler(payload, ctx) -> (response_bytes, process_time_us)``
Handler = Callable[[bytes, "RequestContext"], Tuple[bytes, float]]

_CLIENT_IDS = itertools.count(1)

#: Stub-jitter draws taken from the server's RNG at a time.  A NumPy
#: ``Generator`` yields the same values for one ``size=n`` draw as for n
#: scalar draws, so the chunk size never changes a number.
_JITTER_CHUNK = 256


@dataclass(frozen=True)
class RequestContext:
    """Passed to the application handler with each request."""

    client_id: int
    thread_id: int


@dataclass
class RfpServerStats:
    """Aggregate server-side counters."""

    requests: Counter = field(default_factory=lambda: Counter("requests"))
    replies_sent: Counter = field(default_factory=lambda: Counter("replies_sent"))
    late_replies: Counter = field(default_factory=lambda: Counter("late_replies"))
    response_time_us: Tally = field(default_factory=lambda: Tally("response_time_us"))


class ClientChannel:
    """Per-client server-side state (buffers, flag, request tracking)."""

    # Request lifecycle states.
    IDLE, QUEUED, DONE = range(3)

    def __init__(
        self,
        server: "RfpServer",
        client_machine: Machine,
        reply_region: MemoryRegion,
        thread_id: int,
    ) -> None:
        sim = server.sim
        config = server.config
        self.client_id = next(_CLIENT_IDS)
        self.thread_id = thread_id
        #: Handed to the handler with every request; both ids are fixed
        #: for the channel's life, so one context serves them all.
        self.context = RequestContext(client_id=self.client_id, thread_id=thread_id)
        client_ep, server_ep = server.cluster.connect(client_machine, server.machine)
        self.client_endpoint = client_ep
        self.server_endpoint = server_ep
        self.request_region = server.machine.register_memory(
            config.request_buffer_bytes, name=f"req[{self.client_id}]"
        )
        self.response_region = server.machine.register_memory(
            config.response_buffer_bytes, name=f"resp[{self.client_id}]"
        )
        self.flag_region = server.machine.register_memory(
            8, name=f"flag[{self.client_id}]"
        )
        #: Client-owned region the server writes replies into.
        self.reply_region = reply_region
        #: Client-side store the reply write's delivery feeds.
        self.reply_store = Store(sim)
        self.mode = REMOTE_FETCH
        self.state = ClientChannel.IDLE
        self.request_delivered_at = 0.0
        self.seq_seen = 0
        self.response_seq: Optional[int] = None
        self.response_parity = 0
        self.response_size = 0
        self.replied_seq: Optional[int] = None

    def notify_request_delivery(self) -> None:
        """on_delivery hook of the client's request write."""
        self.state = ClientChannel.QUEUED
        self.seq_seen += 1
        self.request_delivered_at = self.reply_store.sim.now


class RfpServer:
    """An RFP server bound to one machine of a cluster.

    ``handler`` is the application: it receives the request payload and a
    :class:`RequestContext`, and returns ``(response_bytes,
    process_time_us)``; the server charges the process time to simulated
    time before publishing the response.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: Machine,
        handler: Handler,
        threads: int = 6,
        config: Optional[RfpConfig] = None,
        name: str = "rfp-server",
        tracer=None,
    ) -> None:
        if threads < 1:
            raise ProtocolError(f"server needs at least one thread, got {threads}")
        if threads > machine.cores:
            raise ProtocolError(
                f"{threads} server threads exceed the machine's "
                f"{machine.cores} cores"
            )
        self.sim = sim
        self.cluster = cluster
        self.machine = machine
        self.handler = handler
        self.threads = threads
        self.config = config if config is not None else RfpConfig()
        self.name = name
        self.stats = RfpServerStats()
        #: Optional :class:`repro.sim.Tracer` recording protocol phases.
        self.tracer = tracer
        self._halted = False
        self._jitter_rng = seeded_rng(stable_hash(name))
        #: Buffered stub-jitter draws, reversed so ``pop()`` hands them
        #: out in draw order.
        self._jitter_draws: List[float] = []
        self._stores: List[Store] = [Store(sim) for _ in range(threads)]
        self._channels: List[ClientChannel] = []
        self._next_thread = 0
        self._thread_procs = []
        for thread_id, store in enumerate(self._stores):
            machine.rnic.register_issuer()
            self._thread_procs.append(
                sim.process(
                    self._thread_body(thread_id, store), name=f"{name}.t{thread_id}"
                )
            )

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def accept(
        self,
        client_machine: Machine,
        reply_region: MemoryRegion,
        thread_id: Optional[int] = None,
    ) -> ClientChannel:
        """Connect a client, pinning it to a worker thread (EREW).

        Without ``thread_id`` clients are spread round-robin; key-routed
        systems like Jakiro pass the partition-owning thread explicitly.
        ``reply_region`` is a client-owned registered region the server
        writes server-reply responses into.
        """
        if thread_id is None:
            thread_id = self._next_thread
            self._next_thread = (self._next_thread + 1) % self.threads
        elif not 0 <= thread_id < self.threads:
            raise ProtocolError(
                f"thread_id {thread_id} out of range for {self.threads} threads"
            )
        channel = ClientChannel(self, client_machine, reply_region, thread_id)
        self._channels.append(channel)
        return channel

    @property
    def channels(self) -> List[ClientChannel]:
        return list(self._channels)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def enqueue(self, channel: ClientChannel) -> None:
        """Hand a delivered request to the owning worker thread."""
        self._stores[channel.thread_id].put(channel)

    def halt(self) -> None:
        """Crash the server's CPU side: worker threads stop serving and no
        further replies (including late replies) are sent.

        The NIC is *not* halted — one-sided reads against the response
        buffers keep returning whatever was last published, exactly like a
        host crash that leaves the fabric up.  Clients stuck on a halted
        server therefore see stale parity until their retry/slow-call
        machinery degrades the connection (§3.2's hybrid rule).  Used by
        the cluster layer's failure injection.
        """
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted

    def restart(self) -> None:
        """Reboot a halted server's CPU side: worker threads serve again.

        Requests that were queued (delivered but unserved) when the host
        crashed lived in volatile memory, so the reboot drops them —
        their clients long since degraded through the hybrid rule and
        abandoned those connections.  Worker threads that exited on the
        halt are respawned; threads still parked on an empty queue simply
        resume serving.  The NIC's issuer registration survives (same
        cores, same contention), so nothing is re-registered.
        """
        if not self._halted:
            raise ProtocolError(f"restart of {self.name!r}: server is not halted")
        for store in self._stores:
            store.clear()
        self._halted = False
        for thread_id, store in enumerate(self._stores):
            if self._thread_procs[thread_id].finished:
                self._thread_procs[thread_id] = self.sim.process(
                    self._thread_body(thread_id, store),
                    name=f"{self.name}.t{thread_id}",
                )

    def _thread_body(self, thread_id: int, store: Store):
        config = self.config
        spec = self.machine.rnic.spec
        has_jitter = config.server_sw_jitter_us > 0
        while True:
            channel: ClientChannel = yield store.get()
            if self._halted:
                return
            yield config.server_poll_cpu_us
            status, size = unpack_request(
                channel.request_region.read_local(0, REQUEST_HEADER_BYTES)
            )
            payload = channel.request_region.read_local(REQUEST_HEADER_BYTES, size)
            response, process_us = self.handler(payload, channel.context)
            if process_us > 0:
                yield process_us
            if has_jitter:
                yield config.server_sw_us + self._stub_jitter_us()
            else:
                yield config.server_sw_us
            if self._halted:
                return
            self._publish_response(channel, status, response)
            if channel.mode is SERVER_REPLY:
                # _send_reply without a generator frame per reply.
                total = RESPONSE_HEADER_BYTES + channel.response_size
                yield spec.post_cpu_us + total * config.reply_send_per_byte_us
                self._push_reply(channel, total)

    def _stub_jitter_us(self) -> float:
        """Per-request software-timing noise (seeded from the server name,
        so runs stay reproducible)."""
        jitter = self.config.server_sw_jitter_us
        if jitter <= 0:
            return 0.0
        draws = self._jitter_draws
        if not draws:
            draws = self._jitter_rng.uniform(0.0, jitter, size=_JITTER_CHUNK).tolist()
            draws.reverse()
            self._jitter_draws = draws
        return draws.pop()

    def _publish_response(
        self, channel: ClientChannel, parity: int, response: bytes
    ) -> None:
        """server_send: buffer the response locally (payload, then header)."""
        limit = self.config.response_buffer_bytes - RESPONSE_HEADER_BYTES
        if len(response) > limit:
            raise ProtocolError(
                f"response of {len(response)} B exceeds the {limit} B buffer"
            )
        response_time = self.sim.now - channel.request_delivered_at
        packed = pack_timed_response(parity, len(response), response_time)
        region = channel.response_region
        region.write_local(RESPONSE_HEADER_BYTES, response)
        region.write_local(0, packed)
        channel.state = ClientChannel.DONE
        channel.response_seq = channel.seq_seen
        channel.response_parity = parity
        channel.response_size = len(response)
        self.stats.requests.value += 1
        self.stats.response_time_us.record(response_time)
        if self.tracer is not None:
            self.tracer.record(
                "rfp.server",
                "response_published",
                client=channel.client_id,
                seq=channel.seq_seen,
                bytes=len(response),
                response_time_us=round(response_time, 3),
            )

    def _send_reply(self, channel: ClientChannel):
        """Push the buffered response with an out-bound RDMA Write.

        The write is posted unsignaled: the payload is sampled by the NIC
        at post time and nothing waits for a completion, so the thread
        moves on to the next request — only the post cost is charged to
        the thread, while the out-bound pipeline rate-limits the actual
        sends.
        """
        total = RESPONSE_HEADER_BYTES + channel.response_size
        yield (
            self.machine.rnic.spec.post_cpu_us
            + total * self.config.reply_send_per_byte_us
        )
        self._push_reply(channel, total)

    def _push_reply(self, channel: ClientChannel, total: int) -> None:
        """Post the reply write of ``total`` bytes (post CPU already
        charged), unsignaled, and record it."""
        channel.server_endpoint.post_write(
            channel.response_region,
            0,
            channel.reply_region,
            0,
            total,
            on_delivery=lambda: channel.reply_store.put(total),
            signaled=False,
        )
        channel.replied_seq = channel.response_seq
        self.stats.replies_sent.value += 1
        if self.tracer is not None:
            self.tracer.record(
                "rfp.server",
                "reply_pushed",
                client=channel.client_id,
                seq=channel.response_seq,
                bytes=total,
            )

    # ------------------------------------------------------------------
    # Mode-flag path
    # ------------------------------------------------------------------

    def on_mode_flag(self, channel: ClientChannel, new_mode: Mode) -> None:
        """Delivery hook of the client's one-sided flag write.

        If the client switched to server-reply while a finished response
        sat unfetched in the buffer, send it now (the client stopped
        fetching and is blocked waiting).
        """
        channel.mode = new_mode
        if self.tracer is not None:
            self.tracer.record(
                "rfp.server",
                "mode_flag",
                client=channel.client_id,
                mode=new_mode.name,
            )
        pending = (
            not self._halted
            and new_mode is SERVER_REPLY
            and channel.state == ClientChannel.DONE
            and channel.response_seq is not None
            and channel.replied_seq != channel.response_seq
        )
        if pending:
            self.stats.late_replies.increment()
            self.sim.process(
                self._send_reply(channel), name=f"{self.name}.late-reply"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RfpServer({self.name}: {self.threads} threads, "
            f"{len(self._channels)} clients)"
        )
