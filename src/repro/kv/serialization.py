"""GET/PUT wire format shared by Jakiro and the server-reply baselines.

Requests ride the RPC layer (:mod:`repro.core.rpc`), so this module only
defines the *argument* encodings:

- GET arguments:  ``u16 key_len | key``
- PUT arguments:  ``u16 key_len | key | value``
- GET result:     the raw value bytes (status byte handled by RPC)
- PUT result:     empty
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import ProtocolError

__all__ = [
    "GET_FUNCTION",
    "PUT_FUNCTION",
    "STATUS_OK",
    "STATUS_NOT_FOUND",
    "STATUS_TOO_LARGE",
    "STATUS_MALFORMED",
    "pack_get_request",
    "unpack_get_request",
    "pack_put_request",
    "unpack_put_request",
]

GET_FUNCTION = 1
PUT_FUNCTION = 2

# Application-level statuses carried in the RPC status byte.
STATUS_OK = 0
STATUS_NOT_FOUND = 16
#: The store rejected a key or value over its size limits.
STATUS_TOO_LARGE = 17
#: The arguments do not decode: a runt, a short key or trailing bytes.
STATUS_MALFORMED = 18

_KEY_LEN = struct.Struct("<H")


def pack_get_request(key: bytes) -> bytes:
    _check_key(key)
    return _KEY_LEN.pack(len(key)) + key


def unpack_get_request(arguments: bytes) -> bytes:
    key, rest = _split_key(arguments)
    if rest:
        raise ProtocolError(f"{len(rest)} trailing bytes after GET key")
    return key


def pack_put_request(key: bytes, value: bytes) -> bytes:
    _check_key(key)
    return _KEY_LEN.pack(len(key)) + key + value


def unpack_put_request(arguments: bytes) -> Tuple[bytes, bytes]:
    return _split_key(arguments)


def _check_key(key: bytes) -> None:
    if not key:
        raise ProtocolError("empty key")
    if len(key) > 0xFFFF:
        raise ProtocolError(f"key of {len(key)} B exceeds the u16 length field")


def _split_key(arguments: bytes) -> Tuple[bytes, bytes]:
    if len(arguments) < _KEY_LEN.size:
        raise ProtocolError(f"runt KV request of {len(arguments)} bytes")
    (key_len,) = _KEY_LEN.unpack_from(arguments)
    end = _KEY_LEN.size + key_len
    if len(arguments) < end:
        raise ProtocolError(
            f"declared key of {key_len} B, only {len(arguments) - _KEY_LEN.size} present"
        )
    return arguments[_KEY_LEN.size : end], arguments[end:]
