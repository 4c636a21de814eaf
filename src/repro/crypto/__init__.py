"""Cryptographic primitives: hashing and byte-level encodings."""

from repro.crypto.hashing import (
    HASH_SIZE,
    sha256,
    sha256d,
    tagged_hash,
    hash160,
)
from repro.crypto.encoding import (
    read_varint,
    write_varint,
    varint_size,
    base58_encode,
    base58_decode,
    base58check_encode,
    base58check_decode,
    ByteReader,
)

__all__ = [
    "HASH_SIZE",
    "sha256",
    "sha256d",
    "tagged_hash",
    "hash160",
    "read_varint",
    "write_varint",
    "varint_size",
    "base58_encode",
    "base58_decode",
    "base58check_encode",
    "base58check_decode",
    "ByteReader",
]
