"""Hash functions used throughout the LVQ reproduction.

The paper writes ``H(...)`` without pinning down an encoding.  We use
SHA-256 everywhere, with two refinements that are standard practice in
authenticated data structures:

* ``sha256d`` (double SHA-256) for transaction ids and the classic Bitcoin
  Merkle tree, matching Bitcoin's actual construction.
* ``tagged_hash`` for the SMT and BMT nodes: the digest is computed over
  ``sha256(tag) || sha256(tag) || payload`` (the BIP-340 convention), so a
  leaf hash can never be confused with an interior-node hash and an SMT
  proof can never be replayed against a BMT root.  This is strictly
  stronger than the paper's unspecified ``H`` and changes no sizes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

#: Size in bytes of every digest in this library.
HASH_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Single SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    """Double SHA-256, Bitcoin's workhorse hash (txids, block ids, MT)."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash160(data: bytes) -> bytes:
    """RIPEMD-160(SHA-256(data)) when available, else a truncated SHA-256.

    Real Bitcoin addresses commit to ``hash160`` of the public key.  Some
    Python builds ship without RIPEMD-160 in OpenSSL, so we fall back to
    the first 20 bytes of a tagged SHA-256 — the reproduction only needs a
    20-byte collision-resistant commitment, not RIPEMD itself.
    """
    inner = hashlib.sha256(data).digest()
    try:
        ripemd = hashlib.new("ripemd160")
    except ValueError:
        return tagged_hash("hash160-fallback", inner)[:20]
    ripemd.update(inner)
    return ripemd.digest()


@lru_cache(maxsize=64)
def _tag_context(tag: str) -> "hashlib._Hash":
    """A SHA-256 context primed with ``sha256(tag) || sha256(tag)``.

    The prefix is exactly one 64-byte SHA-256 block, so a copy of the
    primed context skips compressing it again on every call.  The shared
    context is never updated after this, only copied.
    """
    tag_digest = hashlib.sha256(tag.encode("ascii")).digest()
    return hashlib.sha256(tag_digest + tag_digest)


def tagged_hash(tag: str, *chunks: bytes) -> bytes:
    """Domain-separated SHA-256: ``sha256(sha256(tag)*2 || chunks...)``.

    ``tag`` names the structure and node kind ("smt/leaf", "bmt/node", ...)
    so digests from different structures live in disjoint codomains.
    """
    ctx = _tag_context(tag).copy()
    for chunk in chunks:
        ctx.update(chunk)
    return ctx.digest()
