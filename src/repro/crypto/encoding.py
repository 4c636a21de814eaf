"""Byte-level encodings: Bitcoin varints, Base58(Check), safe readers.

Serialization matters in this reproduction because the evaluation metric of
the paper is *bytes on the wire*.  Every proof object serializes through
these helpers, and reported sizes are ``len(serialize())`` — never an
estimate.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256d
from repro.errors import EncodingError

_BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_BASE58_INDEX = {char: value for value, char in enumerate(_BASE58_ALPHABET)}


def write_varint(value: int) -> bytes:
    """Encode ``value`` as a Bitcoin CompactSize varint."""
    if value < 0:
        raise EncodingError(f"varint cannot encode negative value {value}")
    if value < 0xFD:
        return value.to_bytes(1, "little")
    if value <= 0xFFFF:
        return b"\xfd" + value.to_bytes(2, "little")
    if value <= 0xFFFF_FFFF:
        return b"\xfe" + value.to_bytes(4, "little")
    if value <= 0xFFFF_FFFF_FFFF_FFFF:
        return b"\xff" + value.to_bytes(8, "little")
    raise EncodingError(f"varint overflow: {value}")


def varint_size(value: int) -> int:
    """Number of bytes :func:`write_varint` uses for ``value``."""
    if value < 0:
        raise EncodingError(f"varint cannot encode negative value {value}")
    if value < 0xFD:
        return 1
    if value <= 0xFFFF:
        return 3
    if value <= 0xFFFF_FFFF:
        return 5
    if value <= 0xFFFF_FFFF_FFFF_FFFF:
        return 9
    raise EncodingError(f"varint overflow: {value}")


def read_varint(data: bytes, offset: int = 0) -> "tuple[int, int]":
    """Decode a varint at ``offset``; return ``(value, next_offset)``."""
    if offset >= len(data):
        raise EncodingError("varint: out of data")
    first = data[offset]
    if first < 0xFD:
        return first, offset + 1
    widths = {0xFD: 2, 0xFE: 4, 0xFF: 8}
    width = widths[first]
    end = offset + 1 + width
    if end > len(data):
        raise EncodingError("varint: truncated payload")
    value = int.from_bytes(data[offset + 1 : end], "little")
    # Reject non-canonical encodings so every value has exactly one form.
    if varint_size(value) != 1 + width:
        raise EncodingError(f"varint: non-canonical encoding of {value}")
    return value, end


class ByteReader:
    """Cursor over immutable bytes with canonical-decode helpers.

    Proof deserializers use this instead of hand-threading offsets; it
    raises :class:`EncodingError` on any truncation and exposes
    :meth:`finish` to assert that no trailing garbage remains.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    @property
    def buffer(self) -> bytes:
        """The whole underlying byte string (for structure scans that
        take one slice with :meth:`bytes` once they know its length)."""
        return self._data

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def bytes(self, length: int) -> bytes:
        start = self._offset
        end = start + length
        if length < 0 or end > len(self._data):
            raise EncodingError(
                f"expected {length} bytes at offset {start}, "
                f"have {len(self._data) - start}"
            )
        self._offset = end
        return self._data[start:end]

    def varint(self) -> int:
        offset = self._offset
        if offset < len(self._data):
            first = self._data[offset]
            if first < 0xFD:  # one-byte form, canonical by construction
                self._offset = offset + 1
                return first
        value, self._offset = read_varint(self._data, offset)
        return value

    def uint(self, width: int) -> int:
        return int.from_bytes(self.bytes(width), "little")

    def var_bytes(self) -> bytes:
        return self.bytes(self.varint())

    def finish(self) -> None:
        if self.remaining:
            raise EncodingError(f"{self.remaining} trailing bytes after decode")


def write_var_bytes(payload: bytes) -> bytes:
    """Length-prefixed byte string (varint length + raw bytes)."""
    return write_varint(len(payload)) + payload


def base58_encode(payload: bytes) -> str:
    """Plain Base58 encoding (Bitcoin alphabet, leading-zero aware)."""
    zeros = 0
    for byte in payload:
        if byte:
            break
        zeros += 1
    number = int.from_bytes(payload, "big")
    digits = []
    while number:
        number, rem = divmod(number, 58)
        digits.append(_BASE58_ALPHABET[rem])
    return "1" * zeros + "".join(reversed(digits))


def base58_decode(text: str) -> bytes:
    """Inverse of :func:`base58_encode`; raises on foreign characters."""
    number = 0
    for char in text:
        if char not in _BASE58_INDEX:
            raise EncodingError(f"invalid base58 character {char!r}")
        number = number * 58 + _BASE58_INDEX[char]
    zeros = 0
    for char in text:
        if char != "1":
            break
        zeros += 1
    body = number.to_bytes((number.bit_length() + 7) // 8, "big")
    return b"\x00" * zeros + body


def base58check_encode(version: int, payload: bytes) -> str:
    """Base58Check: version byte + payload + 4-byte double-SHA checksum."""
    if not 0 <= version <= 0xFF:
        raise EncodingError(f"version byte out of range: {version}")
    body = bytes([version]) + payload
    return base58_encode(body + sha256d(body)[:4])


def base58check_decode(text: str) -> "tuple[int, bytes]":
    """Decode Base58Check; return ``(version, payload)``; verify checksum."""
    raw = base58_decode(text)
    if len(raw) < 5:
        raise EncodingError("base58check string too short")
    body, checksum = raw[:-4], raw[-4:]
    if sha256d(body)[:4] != checksum:
        raise EncodingError("base58check checksum mismatch")
    return body[0], body[1:]
