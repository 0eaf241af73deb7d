"""Request/response buffer headers (paper Fig. 7).

The request header carries ``status`` (1 bit) and ``size`` (31 bits); the
response header additionally carries ``time`` (16 bits) — the server's
response time for the request, which clients use to decide when to switch
back from server-reply to remote fetching.

The 1-bit ``status`` is implemented as a **parity toggle**: request *n*
(1-based) and its response both carry ``n & 1``.  A remote fetch that
lands on the *previous* response sees the wrong parity and retries; no
extra RDMA operation is ever needed to reset the flag.  The server writes
the response payload first and the header last, so a fetch that races the
header write simply observes the old parity and retries — torn responses
are impossible to consume.

``time`` is encoded in tenths of a microsecond, saturating at the 16-bit
limit (≈ 6.5 ms).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProtocolError

__all__ = [
    "REQUEST_HEADER_BYTES",
    "RESPONSE_HEADER_BYTES",
    "RequestHeader",
    "ResponseHeader",
    "pack_request",
    "unpack_request",
    "pack_response",
    "pack_timed_response",
    "unpack_response",
]

#: status+size packed into 4 bytes (1 + 31 bits).
REQUEST_HEADER_BYTES = 4
#: status+size (4 bytes) + time (2 bytes) + padding (2 bytes).
RESPONSE_HEADER_BYTES = 8

_STATUS_MASK = 0x8000_0000
_SIZE_MASK = 0x7FFF_FFFF
_TIME_LIMIT = 0xFFFF

_REQUEST_STRUCT = struct.Struct("<I")
_RESPONSE_STRUCT = struct.Struct("<IHxx")
_RESPONSE_PREFIX_STRUCT = struct.Struct("<IH")


def _pack_status_size(status: int, size: int) -> int:
    if status not in (0, 1):
        raise ProtocolError(f"status is a single bit, got {status}")
    if not 0 <= size <= _SIZE_MASK:
        raise ProtocolError(f"size does not fit in 31 bits: {size}")
    return (status << 31) | size


# ----------------------------------------------------------------------
# Allocation-free wire helpers
#
# The dataclasses below are the readable API; these functions are the
# same wire format without a header object per op, for the request/fetch
# hot paths (hundreds of thousands of headers per bench run).
# ----------------------------------------------------------------------


def pack_request(status: int, size: int) -> bytes:
    """Wire bytes of a request header (see :class:`RequestHeader`)."""
    return _REQUEST_STRUCT.pack(_pack_status_size(status, size))


def unpack_request(raw: bytes) -> "tuple[int, int]":
    """``(status, size)`` from request-header bytes."""
    if len(raw) < REQUEST_HEADER_BYTES:
        raise ProtocolError(f"short request header: {len(raw)} bytes")
    word = _REQUEST_STRUCT.unpack_from(raw)[0]
    return word >> 31, word & _SIZE_MASK


def pack_response(status: int, size: int, time_tenths_us: int = 0) -> bytes:
    """Wire bytes of a response header (see :class:`ResponseHeader`)."""
    if not 0 <= time_tenths_us <= _TIME_LIMIT:
        raise ProtocolError(f"time field overflow: {time_tenths_us}")
    return _RESPONSE_STRUCT.pack(_pack_status_size(status, size), time_tenths_us)


def pack_timed_response(status: int, size: int, response_time_us: float) -> bytes:
    """:func:`pack_response` with the time field from
    :meth:`ResponseHeader.encode_time`, in one call (the server's
    publish path); same checks, same bytes."""
    if response_time_us < 0:
        raise ProtocolError(f"negative response time: {response_time_us}")
    return _RESPONSE_STRUCT.pack(
        _pack_status_size(status, size),
        min(_TIME_LIMIT, int(round(response_time_us * 10.0))),
    )


def unpack_response(raw: bytes) -> "tuple[int, int, int]":
    """``(status, size, time_tenths_us)`` from response-header bytes."""
    if len(raw) < RESPONSE_HEADER_BYTES:
        raise ProtocolError(f"short response header: {len(raw)} bytes")
    word, time_tenths = _RESPONSE_PREFIX_STRUCT.unpack_from(raw)
    return word >> 31, word & _SIZE_MASK, time_tenths


@dataclass(frozen=True)
class RequestHeader:
    """Header preceding a request payload in the server-side buffer."""

    status: int
    size: int

    def pack(self) -> bytes:
        return pack_request(self.status, self.size)

    @classmethod
    def unpack(cls, raw: bytes) -> "RequestHeader":
        status, size = unpack_request(raw)
        return cls(status=status, size=size)


@dataclass(frozen=True)
class ResponseHeader:
    """Header preceding a response payload in the server-side buffer.

    ``time_tenths_us`` is the server-side response time (queueing +
    processing) in 0.1 µs units.
    """

    status: int
    size: int
    time_tenths_us: int = 0

    def pack(self) -> bytes:
        return pack_response(self.status, self.size, self.time_tenths_us)

    @classmethod
    def unpack(cls, raw: bytes) -> "ResponseHeader":
        status, size, time_tenths = unpack_response(raw)
        return cls(status=status, size=size, time_tenths_us=time_tenths)

    @classmethod
    def encode_time(cls, response_time_us: float) -> int:
        """Convert a response time to the saturating 16-bit wire value."""
        if response_time_us < 0:
            raise ProtocolError(f"negative response time: {response_time_us}")
        return min(_TIME_LIMIT, int(round(response_time_us * 10.0)))

    @property
    def time_us(self) -> float:
        """Decoded response time in microseconds."""
        return self.time_tenths_us / 10.0
