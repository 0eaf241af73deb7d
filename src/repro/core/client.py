"""The RFP client.

``call`` runs one full RPC (paper Fig. 7, bottom-up):

1. **client_send** — write the request (header + payload) into the
   client's exclusive request buffer on the server with a one-sided RDMA
   Write.  The server's poller sees the payload the instant the write is
   delivered; no server out-bound work is involved.
2. **client_recv** — in ``REMOTE_FETCH`` mode, repeatedly read ``F`` bytes
   of the response buffer until the header parity matches this call; a
   second read collects any remainder beyond ``F``.  After ``R`` failed
   retries the call is *slow* and the hybrid policy may switch the client
   to ``SERVER_REPLY`` mode mid-call, in which case the client publishes
   its mode flag (a 1-byte RDMA Write) and blocks until the server pushes
   the response.
3. In ``SERVER_REPLY`` mode the client simply blocks for the pushed
   response and uses the header's ``time`` field to decide when the
   server is fast enough to switch back.

CPU accounting mirrors the paper's Fig. 15: remote fetching spins (the
whole call duration is busy time), server-reply mode is almost idle (only
post/wake/parse costs are busy).

All three steps run in one generator frame (:meth:`RfpClient._exchange`);
``client_send`` and ``client_recv`` are its two halves, so the Table 2
API and ``call`` share every protocol step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.core.config import RfpConfig
from repro.core.fetch import plan_fetch
from repro.core.headers import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    pack_request,
    unpack_response,
)
from repro.core.mode import REMOTE_FETCH, SERVER_REPLY, Mode, SwitchPolicy
from repro.core.sampling import ResultSampler
from repro.core.server import ClientChannel, RfpServer
from repro.errors import ProtocolError
from repro.hw.machine import Machine
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter, Tally, UtilizationMeter

__all__ = ["RfpClient", "RfpClientStats"]


@dataclass
class RfpClientStats:
    """Per-client counters the harness and Table 3 read out."""

    calls: Counter = field(default_factory=lambda: Counter("calls"))
    #: Fetch reads issued for each remote-fetch call (Table 3's N).
    fetch_attempts: Tally = field(default_factory=lambda: Tally("fetch_attempts"))
    remote_reads: Counter = field(default_factory=lambda: Counter("remote_reads"))
    reply_waits: Counter = field(default_factory=lambda: Counter("reply_waits"))
    busy: UtilizationMeter = field(default_factory=lambda: UtilizationMeter("client"))


class RfpClient:
    """One client thread speaking RFP to one server."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        server: RfpServer,
        config: Optional[RfpConfig] = None,
        name: str = "",
        thread_id: Optional[int] = None,
        register_issuer: bool = True,
        result_sampler: Optional[ResultSampler] = None,
        tracer=None,
    ) -> None:
        """Connect one client to ``server``.

        ``thread_id`` pins the connection to a specific server worker
        (EREW key routing); ``register_issuer=False`` lets a client
        thread that multiplexes several transports register itself with
        the NIC contention model exactly once.  ``result_sampler``, when
        given, observes every response size — the online half of the
        §3.2 parameter selection (see
        :class:`repro.core.adaptive.AdaptiveParameterController`).
        """
        self.sim = sim
        self.machine = machine
        self.server = server
        self.config = config if config is not None else server.config
        if (
            self.config.request_buffer_bytes > server.config.request_buffer_bytes
            or self.config.response_buffer_bytes
            > server.config.response_buffer_bytes
        ):
            raise ProtocolError("client expects larger buffers than the server has")
        self.name = name or f"rfp-client@{machine.name}"
        self.policy = SwitchPolicy(self.config)
        self.stats = RfpClientStats()
        self.seq = 0
        # malloc_buf'd regions (Table 2): request staging, fetch landing,
        # server-reply landing, and flag staging.
        self._request_staging = machine.register_memory(
            self.config.request_buffer_bytes, name=f"{self.name}.req"
        )
        self._fetch_landing = machine.register_memory(
            self.config.response_buffer_bytes, name=f"{self.name}.fetch"
        )
        self._reply_landing = machine.register_memory(
            self.config.response_buffer_bytes, name=f"{self.name}.reply"
        )
        self._flag_staging = machine.register_memory(8, name=f"{self.name}.flag")
        self.channel: ClientChannel = server.accept(
            machine, self._reply_landing, thread_id=thread_id
        )
        self.endpoint = self.channel.client_endpoint
        self._on_request_delivery = self._request_delivered
        self._inflight_parity: Optional[int] = None
        self._call_started_at = 0.0
        self._send_completed_at = 0.0
        self.result_sampler = result_sampler
        #: Optional :class:`repro.sim.Tracer` recording protocol phases.
        self.tracer = tracer
        if register_issuer:
            machine.rnic.register_issuer()

    def _trace(self, label: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.record(
                "rfp.client",
                label,
                client=self.name,
                channel=self.channel.client_id,
                **data,
            )

    def apply_parameters(self, retry_bound: int, fetch_size: int) -> None:
        """Adopt new (R, F) — the output of a §3.2 (re-)selection.

        Takes effect from the next call; the hybrid policy keeps its
        current mode and streak state.
        """
        self.config = self.config.with_parameters(retry_bound, fetch_size)
        self.policy.config = self.config

    @property
    def mode(self) -> Mode:
        """The client's current result-return mode."""
        return self.policy.mode

    # ------------------------------------------------------------------
    # The RPC entry point and the Table 2 primitives
    # ------------------------------------------------------------------

    def call(self, payload: bytes) -> Generator:
        """Process body: one RPC; yields until the response is in hand.

        Usage::

            response = yield from client.call(b"...")
        """
        return self._exchange(payload, receive=True)

    def client_send(self, payload: bytes) -> Generator:
        """Table 2 ``client_send``: push the request to the server.

        One one-sided RDMA Write places header + payload into this
        client's exclusive request buffer on the server.
        """
        return self._exchange(payload, receive=False)

    def client_recv(self) -> Generator:
        """Table 2 ``client_recv``: obtain the response for the last send.

        Remote-fetches in ``REMOTE_FETCH`` mode (switching mid-call when
        the hybrid policy fires); blocks for the pushed reply in
        ``SERVER_REPLY`` mode.
        """
        return self._exchange(None, receive=True)

    def _exchange(self, payload: Optional[bytes], receive: bool) -> Generator:
        """The protocol body behind :meth:`call`, :meth:`client_send`
        (``receive`` false) and :meth:`client_recv` (``payload`` None).

        One generator frame covers the whole call: the send, the fetch
        loop, the remainder read, the mid-call switch and the
        server-reply wait.
        """
        if payload is None:
            parity = self._inflight_parity
            if parity is None:
                raise ProtocolError("client_recv without a preceding client_send")
        else:
            parity = self._stage_request(payload)
            yield self.config.client_post_cpu_us
            yield self.endpoint.post_write(
                self._request_staging,
                0,
                self.channel.request_region,
                0,
                REQUEST_HEADER_BYTES + len(payload),
                on_delivery=self._on_request_delivery,
            )
            self._request_sent(parity, len(payload))
            if not receive:
                return None
        config = self.config
        channel = self.channel
        stats = self.stats
        policy = self.policy
        landing = self._fetch_landing
        response: Optional[bytes] = None
        fetching = policy.mode is REMOTE_FETCH
        if fetching:
            # In fetch mode the client spins from the moment it posts the
            # request until the result is in hand (Fig. 15's 100% CPU).
            fetch_size = config.fetch_size
            failed = 0
            slow_noted = False
            while True:
                yield config.client_post_cpu_us
                if self.tracer is not None:
                    self._trace(
                        "fetch_read",
                        seq=self.seq,
                        attempt=failed + 1,
                        bytes=fetch_size,
                    )
                yield self.endpoint.post_read(
                    landing, 0, channel.response_region, 0, fetch_size
                )
                yield config.client_parse_cpu_us
                stats.remote_reads.value += 1
                status, size, _ = unpack_response(
                    landing.read_local(0, RESPONSE_HEADER_BYTES)
                )
                if status == parity:
                    # Only a response that overflowed the first F-byte
                    # read needs a plan and a remainder read.
                    if RESPONSE_HEADER_BYTES + size > fetch_size:
                        plan = plan_fetch(size, fetch_size)
                        yield config.client_post_cpu_us
                        if self.tracer is not None:
                            self._trace(
                                "remainder_read",
                                seq=self.seq,
                                bytes=plan.remainder_bytes,
                            )
                        yield self.endpoint.post_read(
                            landing,
                            plan.remainder_offset,
                            channel.response_region,
                            plan.remainder_offset,
                            plan.remainder_bytes,
                        )
                        stats.remote_reads.value += 1
                    response = landing.read_local(RESPONSE_HEADER_BYTES, size)
                    if self.result_sampler is not None:
                        self.result_sampler.observe(size)
                    if self.tracer is not None:
                        self._trace(
                            "fetch_success", seq=self.seq, attempts=failed + 1
                        )
                    stats.fetch_attempts.record(failed + 1)
                    if not slow_noted:
                        policy.note_fast_call()
                    stats.busy.add_busy(self.sim.now - self._call_started_at)
                    break
                failed += 1
                if failed >= config.retry_bound and not slow_noted:
                    slow_noted = True
                    if policy.note_slow_call():
                        # Switch mid-call: publish the flag, then wait for
                        # the push the server now owes this call.
                        self._trace("mode_switch", seq=self.seq, to="SERVER_REPLY")
                        stats.fetch_attempts.record(failed)
                        yield config.client_post_cpu_us
                        yield self._post_mode_flag(SERVER_REPLY)
                        stats.busy.add_busy(self.sim.now - self._call_started_at)
                        break
        if response is None:
            stats.reply_waits.value += 1
            reply_landing = self._reply_landing
            while True:
                yield channel.reply_store.get()
                yield config.client_wake_cpu_us
                status, size, time_tenths = unpack_response(
                    reply_landing.read_local(0, RESPONSE_HEADER_BYTES)
                )
                if status == parity:
                    break
                # A stale late reply from a previous call: ignore it.
            response = reply_landing.read_local(RESPONSE_HEADER_BYTES, size)
            if self.tracer is not None:
                self._trace("reply_received", seq=self.seq, bytes=size)
            if self.result_sampler is not None:
                self.result_sampler.observe(size)
            if policy.mode is SERVER_REPLY and policy.note_reply_time(
                time_tenths / 10.0
            ):
                self._trace("mode_switch", seq=self.seq, to="REMOTE_FETCH")
                yield config.client_post_cpu_us
                yield self._post_mode_flag(REMOTE_FETCH)
            if not fetching:
                # The client spun only while posting the request; the
                # reply wait itself is blocked (this is what Fig. 15
                # measures).
                stats.busy.add_busy(
                    (self._send_completed_at - self._call_started_at)
                    + config.client_wake_cpu_us
                    + config.client_parse_cpu_us
                )
        self._call_done(parity)
        return response

    # ------------------------------------------------------------------
    # Call bookkeeping shared by every path (none of these yield)
    # ------------------------------------------------------------------

    def _stage_request(self, payload: bytes) -> int:
        """Guard, number and stage one request; returns its parity."""
        if self._inflight_parity is not None:
            raise ProtocolError("client_send before receiving the previous response")
        limit = self.config.request_buffer_bytes - REQUEST_HEADER_BYTES
        if len(payload) > limit:
            raise ProtocolError(f"request of {len(payload)} B exceeds {limit} B")
        self._call_started_at = self.sim.now
        self.seq += 1
        parity = self.seq & 1
        self._request_staging.write_local(
            0, pack_request(parity, len(payload)) + payload
        )
        return parity

    def _request_sent(self, parity: int, size: int) -> None:
        """The request write completed: claim the channel for the call."""
        self._send_completed_at = self.sim.now
        # Re-check after resuming: the guard in _stage_request ran before
        # the process yielded, so a concurrent send interleaved at the
        # yields would slip past it and both would claim the channel.
        if self._inflight_parity is not None:
            raise ProtocolError(
                "concurrent client_send interleaved on one channel"
            )
        self._inflight_parity = parity
        if self.tracer is not None:
            self._trace("request_sent", seq=self.seq, bytes=size)

    def _call_done(self, parity: int) -> None:
        """Record the finished call and release the channel."""
        self.stats.calls.value += 1
        if self.tracer is not None:
            self._trace(
                "call_done",
                seq=self.seq,
                latency_us=round(self.sim.now - self._call_started_at, 3),
                mode=self.policy.mode.name,
            )
        # Re-check after the yields: only the call that owns the
        # in-flight parity may clear it (a concurrent recv interleaved
        # at the reply wait would otherwise clear someone else's).
        if self._inflight_parity != parity:
            raise ProtocolError(
                "concurrent client_recv interleaved on one channel"
            )
        self._inflight_parity = None

    def _request_delivered(self) -> None:
        """on_delivery hook of the request write (bound once per client)."""
        channel = self.channel
        channel.notify_request_delivery()
        self.server.enqueue(channel)

    def _post_mode_flag(self, new_mode: Mode) -> Event:
        """Publish the client's mode with a 1-byte one-sided write; the
        caller has already charged the post CPU."""
        self._flag_staging.write_local(0, bytes([new_mode.value]))
        channel = self.channel
        server = self.server
        self._trace("flag_published", seq=self.seq, mode=new_mode.name)
        return self.endpoint.post_write(
            self._flag_staging,
            0,
            channel.flag_region,
            0,
            1,
            on_delivery=lambda: server.on_mode_flag(channel, new_mode),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RfpClient({self.name}, mode={self.policy.mode.name})"
