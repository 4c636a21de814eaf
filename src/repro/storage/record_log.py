"""Append-only record log framing for the durable chain store.

Every mutation of the full node's chain is one framed record appended to
``chain.log``:

* ``BLOCK``    — a block appended at the next height: ``var_bytes(body)
  + var_bytes(header)``.  The header rides along so recovery can
  cross-check the header it rebuilds from the body byte for byte.
* ``ROLLBACK`` — a fork switch popped every block above the carried
  height (little-endian ``u32``).

Frame layout (all integers little-endian)::

    type (1 byte) | payload length (u32) | payload | crc32 (u32)

The CRC covers type + length + payload, so a frame whose tail was torn
by a crash — truncated payload, half-written CRC — never parses as
valid.  :func:`walk_records` stops at the first bad frame and reports
its offset; the *caller* decides whether that offset is a torn tail to
truncate (at or beyond the manifest's committed length) or corruption to
reject (below it).  Payload-level damage inside a CRC-valid frame can
never be produced by a torn write, so :func:`replay_records` treats it
as corruption unconditionally.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.crypto.encoding import ByteReader, write_var_bytes
from repro.errors import ChainError, EncodingError

RECORD_BLOCK = 1
RECORD_ROLLBACK = 2

_FRAME_HEAD = struct.Struct("<BI")  # record type, payload length
_FRAME_CRC = struct.Struct("<I")
FRAME_OVERHEAD = _FRAME_HEAD.size + _FRAME_CRC.size

#: Hard ceiling on one record's payload (a block body plus header); a
#: length field beyond this is treated as frame damage, not an
#: instruction to allocate gigabytes.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


class LogRecord:
    """One parsed frame plus its byte extent inside the log."""

    __slots__ = ("rtype", "payload", "offset", "end_offset")

    def __init__(
        self, rtype: int, payload: bytes, offset: int, end_offset: int
    ) -> None:
        self.rtype = rtype
        self.payload = payload
        self.offset = offset
        self.end_offset = end_offset

    def __repr__(self) -> str:
        return (
            f"LogRecord(type={self.rtype}, bytes=[{self.offset},"
            f"{self.end_offset}))"
        )


def encode_record(rtype: int, payload: bytes) -> bytes:
    """Frame one record: type + length + payload + CRC32."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ChainError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    head = _FRAME_HEAD.pack(rtype, len(payload))
    crc = zlib.crc32(head + payload)
    return head + payload + _FRAME_CRC.pack(crc)


def block_record(body_bytes: bytes, header_bytes: bytes) -> bytes:
    """Frame a ``BLOCK`` record for one appended block."""
    return encode_record(
        RECORD_BLOCK, write_var_bytes(body_bytes) + write_var_bytes(header_bytes)
    )


def rollback_record(height: int) -> bytes:
    """Frame a ``ROLLBACK`` record popping every block above ``height``."""
    if not 0 <= height <= 0xFFFF_FFFF:
        raise ChainError(f"rollback height {height} does not fit in u32")
    return encode_record(RECORD_ROLLBACK, struct.pack("<I", height))


def walk_records(
    raw: bytes,
) -> Tuple[List[LogRecord], Optional[int], Optional[str]]:
    """Parse frames until the bytes run out or a frame is damaged.

    Returns ``(records, bad_offset, reason)``; ``bad_offset`` is ``None``
    on a fully clean walk, otherwise the offset of the first frame that
    failed its length or CRC check (every record before it is intact).
    """
    records: List[LogRecord] = []
    offset = 0
    total = len(raw)
    while offset < total:
        if offset + _FRAME_HEAD.size > total:
            return records, offset, "truncated frame header"
        rtype, length = _FRAME_HEAD.unpack_from(raw, offset)
        if length > MAX_PAYLOAD_BYTES:
            return records, offset, f"implausible payload length {length}"
        end = offset + _FRAME_HEAD.size + length + _FRAME_CRC.size
        if end > total:
            return records, offset, "truncated frame body"
        payload = raw[offset + _FRAME_HEAD.size : end - _FRAME_CRC.size]
        (stored_crc,) = _FRAME_CRC.unpack_from(raw, end - _FRAME_CRC.size)
        computed = zlib.crc32(raw[offset : end - _FRAME_CRC.size])
        if stored_crc != computed:
            return records, offset, "CRC mismatch"
        records.append(LogRecord(rtype, payload, offset, end))
        offset = end
    return records, None, None


def replay_records(
    records: List[LogRecord],
) -> List[Tuple[bytes, bytes]]:
    """Fold the record sequence into the surviving chain.

    Returns ``(body_bytes, header_bytes)`` per height, genesis first.
    Raises :class:`ChainError` on semantic damage — an unknown record
    type, a rollback past the current tip, an unparseable block payload.
    These are real corruption (the frame's CRC already passed), never a
    torn tail, so no caller should downgrade them to truncation.
    """
    entries: List[Tuple[bytes, bytes]] = []
    for record in records:
        if record.rtype == RECORD_BLOCK:
            try:
                reader = ByteReader(record.payload)
                body = reader.var_bytes()
                header = reader.var_bytes()
                reader.finish()
            except EncodingError as exc:
                raise ChainError(
                    f"corrupt block record at offset {record.offset}: {exc}"
                ) from exc
            entries.append((body, header))
        elif record.rtype == RECORD_ROLLBACK:
            if len(record.payload) != 4:
                raise ChainError(
                    f"corrupt rollback record at offset {record.offset}"
                )
            (height,) = struct.unpack("<I", record.payload)
            if height >= len(entries):
                raise ChainError(
                    f"rollback record at offset {record.offset} targets "
                    f"height {height} but only {len(entries)} blocks exist"
                )
            del entries[height + 1 :]
        else:
            raise ChainError(
                f"unknown record type {record.rtype} at offset "
                f"{record.offset}"
            )
    return entries
