"""A small RPC stub layer over the RFP primitives.

RFP exposes socket-like primitives (Table 2), so a conventional RPC
mechanism layers directly on top (Fig. 2): the client stub marshals a
function id and arguments into the request payload; the server stub
dispatches to a registered handler and returns its result.  Jakiro's
GET/PUT (Fig. 8a) are two registered functions.

Wire format: ``u8 function_id | u8 status | arguments...`` on requests,
``u8 status | result...`` on responses.
"""

from __future__ import annotations

import struct
from typing import Callable, Generator, List, Optional, Tuple

from repro.core.client import RfpClient
from repro.errors import ProtocolError

__all__ = [
    "RESPONSE_PREFIX_BYTES",
    "RpcClient",
    "RpcServer",
    "RPC_OK",
    "RPC_APP_ERROR",
    "RPC_NO_FUNCTION",
    "RPC_MALFORMED",
]

RPC_OK = 0
RPC_APP_ERROR = 1
RPC_NO_FUNCTION = 2
#: The request is shorter than its function-id and status prefix.
RPC_MALFORMED = 3

_REQUEST_PREFIX = struct.Struct("<BB")
_RESPONSE_PREFIX = struct.Struct("<B")
#: Bytes a response carries ahead of the handler's result.
RESPONSE_PREFIX_BYTES = _RESPONSE_PREFIX.size

#: ``handler(args, ctx) -> (status, result_bytes, process_time_us)``
RpcHandler = Callable[[bytes, object], Tuple[int, bytes, float]]


class RpcServer:
    """Function registry + dispatcher; plugs into ``RfpServer`` as handler."""

    def __init__(self) -> None:
        #: Handlers indexed by the request's function-id byte.
        self._table: List[Optional[RpcHandler]] = [None] * 256

    def register(self, function_id: int, handler: RpcHandler) -> None:
        if not 0 <= function_id <= 0xFF:
            raise ProtocolError(f"function id must fit a byte: {function_id}")
        if self._table[function_id] is not None:
            raise ProtocolError(f"function {function_id} registered twice")
        self._table[function_id] = handler

    def handle(self, payload: bytes, context) -> Tuple[bytes, float]:
        """The ``RfpServer`` handler: unmarshal, dispatch, marshal.  A runt
        request is answered with :data:`RPC_MALFORMED` at no cost, so the
        server thread goes on serving."""
        if len(payload) < _REQUEST_PREFIX.size:
            return _RESPONSE_PREFIX.pack(RPC_MALFORMED), 0.0
        handler = self._table[payload[0]]
        if handler is None:
            return _RESPONSE_PREFIX.pack(RPC_NO_FUNCTION), 0.0
        status, result, process_us = handler(
            payload[_REQUEST_PREFIX.size :], context
        )
        return _RESPONSE_PREFIX.pack(status) + result, process_us


class RpcClient:
    """Client stub: marshals calls through an :class:`RfpClient`.

    :meth:`encode` and :meth:`decode` are the whole stub; callers that
    hold the transport themselves (Jakiro's client) use them around
    ``transport.call`` directly.
    """

    def __init__(self, transport: RfpClient) -> None:
        self.transport = transport

    @staticmethod
    def encode(function_id: int, arguments: bytes) -> bytes:
        """Request payload invoking ``function_id`` with ``arguments``."""
        if not 0 <= function_id <= 0xFF:
            raise ProtocolError(f"function id must fit a byte: {function_id}")
        return _REQUEST_PREFIX.pack(function_id, 0) + arguments

    @staticmethod
    def decode(response: bytes) -> Tuple[int, bytes]:
        """``(status, result_bytes)`` of a response payload."""
        if len(response) < _RESPONSE_PREFIX.size:
            raise ProtocolError(f"runt RPC response of {len(response)} bytes")
        return response[0], response[_RESPONSE_PREFIX.size :]

    def call(self, function_id: int, arguments: bytes) -> Generator:
        """Process body: invoke a remote function.

        Returns ``(status, result_bytes)``::

            status, result = yield from rpc.call(GET, key_bytes)
        """
        request = self.encode(function_id, arguments)
        response = yield from self.transport.call(request)
        return self.decode(response)
