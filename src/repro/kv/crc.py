"""CRC64 (ECMA-182, reflected) — Pilaf's race-detection checksum.

Pilaf validates every remotely-read hash-table entry and data record with
CRC64 so a GET that races an in-progress PUT observes a checksum mismatch
and retries (§1, §2.3).  The implementation is the standard table-driven
reflected CRC-64/XZ variant (polynomial 0x42F0E1EBA9EA3693 reflected to
0xC96C5795D7870F42, init/xorout 0xFFFFFFFFFFFFFFFF).
:func:`crc64_many` computes the same digest for a whole batch of keys at
once with NumPy, for bulk loads.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["crc64", "crc64_many"]

_POLY_REFLECTED = 0xC96C5795D7870F42
_MASK = 0xFFFFFFFFFFFFFFFF


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table()
_TABLE_NP = np.array(_TABLE, dtype=np.uint64)


def crc64(data: bytes) -> int:
    """CRC-64/XZ of ``data`` as an unsigned 64-bit integer."""
    crc = _MASK
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ _MASK


def crc64_many(keys: Sequence[bytes]) -> List[int]:
    """``[crc64(key) for key in keys]``, vectorized.

    Keys of one length form a byte matrix whose CRCs advance together,
    one column (byte position) per table step.  The lengths are grouped
    with ``bincount``: ``np.unique`` imports ``numpy.ma`` on first use,
    which the first bulk load of every process would pay for.
    """
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    starts = np.cumsum(lengths) - lengths
    stream = np.frombuffer(b"".join(keys), dtype=np.uint8)
    digests = np.full(len(keys), _MASK, dtype=np.uint64)
    eight = np.uint64(8)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == length)
        data = stream[starts[rows, None] + np.arange(length)]
        crc = digests[rows]
        for column in range(length):
            low = crc.astype(np.uint8) ^ data[:, column]
            crc = _TABLE_NP[low] ^ (crc >> eight)
        digests[rows] = crc
    return (digests ^ np.uint64(_MASK)).tolist()
