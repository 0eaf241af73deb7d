"""Hybrid-mode state machine (paper §3.2).

A client starts in :attr:`Mode.REMOTE_FETCH`.  A call whose remote fetch
fails ``R`` times is *slow*.  The first slow call leaves the mode alone
(the client keeps fetching until the result appears); only after
``consecutive_slow_calls`` slow calls in a row does the client switch to
:attr:`Mode.SERVER_REPLY`, saving its own CPU and the server NIC's wasted
in-bound reads.  While in server-reply mode every response carries the
server's response time (the 16-bit ``time`` header field); once that
drops below the configured threshold the client switches back.

:class:`SwitchPolicy` is pure logic (no simulator types) so the paper's
flap-damping behaviour is unit-testable in isolation.
"""

from __future__ import annotations

import enum

from repro.core.config import RfpConfig

__all__ = ["Mode", "REMOTE_FETCH", "SERVER_REPLY", "SwitchPolicy"]


class Mode(enum.Enum):
    """Result-return mode for one ⟨client, RPC⟩ pair."""

    REMOTE_FETCH = 0
    SERVER_REPLY = 1


# A module global loads faster than an enum member (docs/sim.md).
REMOTE_FETCH = Mode.REMOTE_FETCH
SERVER_REPLY = Mode.SERVER_REPLY


class SwitchPolicy:
    """Decides mode transitions from per-call observations.

    The client calls exactly one of :meth:`note_fast_call` /
    :meth:`note_slow_call` per remote-fetch call, and
    :meth:`note_reply_time` per server-reply call.
    """

    def __init__(self, config: RfpConfig) -> None:
        self.config = config
        self.mode = REMOTE_FETCH
        self.consecutive_slow = 0
        self.switches_to_reply = 0
        self.switches_to_fetch = 0

    def note_fast_call(self) -> None:
        """A remote-fetch call succeeded within ``R`` failed retries."""
        # Tested inline: this runs once per fetched call.
        if self.mode is not REMOTE_FETCH:
            self._require(REMOTE_FETCH)
        self.consecutive_slow = 0

    def note_slow_call(self) -> bool:
        """A remote-fetch call hit ``R`` failed retries.

        Returns ``True`` when the client must switch to server-reply *for
        this call* (i.e. this is the ``consecutive_slow_calls``-th slow
        call in a row and the hybrid is enabled).
        """
        self._require(REMOTE_FETCH)
        self.consecutive_slow += 1
        if not self.config.hybrid_enabled:
            return False
        if self.consecutive_slow >= self.config.consecutive_slow_calls:
            self.mode = SERVER_REPLY
            self.consecutive_slow = 0
            self.switches_to_reply += 1
            return True
        return False

    def note_reply_time(self, response_time_us: float) -> bool:
        """A server-reply call completed; ``True`` => switch back now.

        The server got fast again when its observed response time dropped
        below the threshold that made remote fetching worthwhile.
        """
        if self.mode is not SERVER_REPLY:
            self._require(SERVER_REPLY)
        if not self.config.hybrid_enabled:
            return False
        if response_time_us < self.config.switch_back_process_time_us:
            self.mode = REMOTE_FETCH
            self.switches_to_fetch += 1
            return True
        return False

    def _require(self, mode: Mode) -> None:
        if self.mode is not mode:
            raise ValueError(f"observation valid in {mode}, current mode {self.mode}")
