"""Aggregated batch encoding: cross-fragment node deduplication.

The plain :meth:`BatchQueryResult.serialize` writes every proof fragment
independently, so material shared across fragments ships repeatedly:
sibling hashes of SMT/Merkle branches that answer the same block for
several addresses, BMT child hashes along overlapping frontiers, Bloom
filters of endpoint nodes two addresses both descend through, and raw
transactions that involve more than one queried address.  vChain
(SIGMOD 2019) shows that merging shared authentication-path nodes across
a batch collapses proof size; this module is LVQ's version of that idea
at the *encoding* layer, where it needs no new commitments and no new
verification logic.

The aggregated frame is::

    [varint table_len]
    [var_bytes blob] * table_len          -- first-use order
    [body]

The body is the plain batch serialization with every *blob slot* — a
32-byte hash, a Bloom-filter image, a transaction payload, an integral
block body, an address string — replaced by ``varint k``: ``k = 0``
means the blob follows inline (raw for fixed-length slots, var_bytes for
variable-length ones), ``k >= 1`` means "table entry ``k-1``".  Only
blobs that occur at least twice enter the table, so a batch with nothing
shared costs one extra byte total.

The layout is stated once, in :func:`_walk`: one walk of the plain
image's structure (batch header, segments, multiproof node tags,
resolution tags and flags, SMT branches, hash lists) that hands every
blob slot to one of two slot readers.  The encoder serializes the batch
plainly and walks that image with the *plain* reader, which cuts it into
the bytes between slots and the slots' blobs; it counts the blobs, then
writes each slot as a marker or a reference.  Decoding is the same walk
over the frame with the *table* reader, :func:`expand_aggregated_batch`,
which writes the plain image back: each ``k = 0`` marker is dropped,
each reference is replaced by its table blob, and every other byte is
copied as it came.  That image then goes through the one plain decoder,
:meth:`BatchQueryResult.deserialize`, with the light node's memo, so
"the verifier sees exactly the plain batch" holds by construction, and
a resolution the memo already accepted is neither decoded nor verified
again however it was framed.  There is no second, object-building
decoder to keep in step.  The plain encoding stays the equivalence
oracle (``tests/query/test_aggregate.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.crypto.encoding import read_varint, write_var_bytes, write_varint
from repro.crypto.hashing import HASH_SIZE
from repro.errors import EncodingError, ProofError
from repro.merkle.bmt import _TAG_HASHES, _TAG_INTERNAL
from repro.query.batch import BatchQueryResult, batch_of_results
from repro.query.config import SystemConfig
from repro.query.fragments import (
    _ANSWER_EMPTY,
    _RES_EXISTENCE,
    _RES_FPM,
    _RES_INTEGRAL,
)
from repro.query.result import QueryResult

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo

#: Blobs shorter than this never enter the table — a back-reference plus
#: the table entry's length prefix would cost as much as shipping them.
_MIN_SHARED_LEN = 4
#: Sanity cap on the node-table length; far above any real batch.
_MAX_TABLE = 1_000_000


# ---------------------------------------------------------------------------
# the walk


def _walk(
    data: bytes, config: SystemConfig, aggregated: bool
) -> Tuple[List[bytes], List[bytes]]:
    """One walk of the plain batch layout (the one
    :meth:`BatchQueryResult.serialize` writes) over ``data``:
    ``(out, keys)``.

    The walk reads only what locates the blob slots — counts, tags,
    flags — and hands each slot to one of two readers:

    * plain (``aggregated=False``, ``data`` a plain image): ``out``
      alternates the bytes before each slot with the slot's image, and
      ``keys`` holds each slot's blob (its bytes without a length
      prefix), the encoder's dedup key;
    * aggregated (``data`` an aggregated frame, its blob table first):
      each slot's marker is dropped or its reference replaced by the
      table blob, so ``b"".join(out)`` is the plain image.

    A dangling reference, a wrong-length blob, an unknown tag or flag,
    truncation or trailing bytes raises :class:`EncodingError`; every
    other check is left to the plain decoder that reads the image.
    """
    bf_bytes = config.bf_bytes
    # Each table entry as a fixed slot's bytes and as a var slot's
    # var_bytes image.
    blobs: List[bytes] = []
    framed: List[bytes] = []
    table_len = 0
    out: List[bytes] = []
    keys: List[bytes] = []
    pos = mark = 0  # ``mark``: first byte not yet in ``out``

    def varint() -> int:
        nonlocal pos
        first = data[pos]
        if first < 0xFD:
            pos += 1
            return first
        value, pos = read_varint(data, pos)
        return value

    def byte() -> int:
        nonlocal pos
        pos += 1
        return data[pos - 1]

    def plain_slot(length: int) -> None:
        """One blob slot: ``length`` bytes, or var_bytes when 0."""
        nonlocal pos, mark
        out.append(data[mark:pos])
        if length:
            mark = pos + length
            blob = data[pos:mark]
            out.append(blob)
        else:
            start = pos
            length = varint()
            mark = pos + length
            blob = data[pos:mark]
            out.append(data[start:mark])
        keys.append(blob)
        pos = mark

    def table_slot(length: int) -> None:
        """One blob slot: ``length`` bytes, or var_bytes when 0."""
        nonlocal pos, mark
        out.append(data[mark:pos])
        k = data[pos]
        if k == 0:
            pos += 1
            mark = pos
            if not length:
                length = varint()
            pos += length
            return
        if k < 0xFD:
            pos += 1
        else:
            k, pos = read_varint(data, pos)
        mark = pos
        if k > table_len:
            raise EncodingError(
                f"dangling blob reference {k} (table has {table_len} entries)"
            )
        if not length:
            out.append(framed[k - 1])
            return
        blob = blobs[k - 1]
        if len(blob) != length:
            raise EncodingError(
                f"blob reference {k} carries {len(blob)} bytes where "
                f"{length} are required"
            )
        out.append(blob)

    slot = table_slot if aggregated else plain_slot

    def hashes() -> None:
        for _ in range(varint()):
            slot(HASH_SIZE)

    def smt_branch() -> None:
        slot(0)  # leaf address
        varint()  # leaf count
        varint()  # leaf index
        hashes()

    def resolution(tag: int) -> None:
        if tag == _RES_EXISTENCE:
            has_smt = byte()
            if has_smt == 1:
                smt_branch()
            elif has_smt:
                raise EncodingError(f"bad SMT flag {has_smt}")
            for _ in range(varint()):
                slot(0)  # transaction
                slot(HASH_SIZE)  # Merkle leaf hash
                varint()  # leaf index
                hashes()
        elif tag == _RES_FPM:
            flags = byte()
            if flags not in (1, 2, 3):
                raise EncodingError(f"bad SMT inexistence flags {flags}")
            if flags & 1:
                smt_branch()
            if flags & 2:
                smt_branch()
        elif tag == _RES_INTEGRAL:
            slot(0)
        else:
            raise EncodingError(f"unknown resolution tag {tag}")

    def multiproof() -> None:
        # Every node is at least its tag byte, so the walk ends within
        # the frame; the plain decoder bounds the nesting.
        nonlocal pos
        subtrees = 1  # still to read
        while subtrees:
            tag = data[pos]
            pos += 1
            if tag == _TAG_INTERNAL:
                subtrees += 1
                continue
            subtrees -= 1
            node_hashes = _TAG_HASHES.get(tag)
            if node_hashes is None:
                raise EncodingError(f"unknown BMT multiproof tag {tag}")
            if node_hashes:
                slot(HASH_SIZE)
                if node_hashes == 2:
                    slot(HASH_SIZE)
            slot(bf_bytes)

    try:
        if aggregated:
            table_len = varint()
            if table_len > _MAX_TABLE:
                raise EncodingError(f"implausible blob table length {table_len}")
            for _ in range(table_len):
                start = pos
                size = varint()
                end = pos + size
                blobs.append(data[pos:end])
                framed.append(data[start:end])
                pos = end
            mark = pos
        addresses = varint()
        for _ in range(addresses):
            slot(0)
        varint()  # tip height
        first_height = varint()
        last_height = varint()
        if config.uses_bmt:
            for _ in range(addresses):
                for _ in range(varint()):  # segments
                    varint()  # anchor
                    varint()  # start
                    varint()  # end
                    multiproof()
                    for _ in range(varint()):  # resolutions
                        varint()  # height
                        resolution(byte())
        else:
            num_blocks = last_height - first_height + 1
            if config.ships_block_filters:
                for _ in range(num_blocks):
                    slot(bf_bytes)
            for _ in range(addresses * num_blocks):
                tag = byte()
                if tag != _ANSWER_EMPTY:
                    resolution(tag)
    except IndexError:  # read past the end: table indexes are checked
        pos = len(data) + 1
    if pos > len(data):
        raise EncodingError("aggregated batch is truncated")
    if pos < len(data):
        raise EncodingError(f"{len(data) - pos} trailing bytes after decode")
    out.append(data[mark:])
    return out, keys


# ---------------------------------------------------------------------------
# encoder and decoder


def encode_aggregated_batch(
    batch: BatchQueryResult, config: SystemConfig
) -> bytes:
    """Serialize ``batch`` with cross-fragment blob deduplication."""
    if config.kind is not batch.kind:
        raise ProofError(
            f"batch built for {batch.kind.value} aggregated with a "
            f"{config.kind.value} config"
        )
    out, keys = _walk(batch.serialize(config), config, aggregated=False)
    counts: Dict[bytes, int] = {}
    for blob in keys:
        if len(blob) >= _MIN_SHARED_LEN:
            counts[blob] = counts.get(blob, 0) + 1
    table: Dict[bytes, int] = {}
    for blob, occurrences in counts.items():
        if occurrences >= 2:
            table[blob] = len(table)
    if len(table) > _MAX_TABLE:  # pragma: no cover - needs a absurd batch
        raise EncodingError(f"blob table overflows: {len(table)} entries")
    parts = [write_varint(len(table))]
    parts.extend(write_var_bytes(blob) for blob in table)
    for raw, image, blob in zip(out[::2], out[1::2], keys):
        parts.append(raw)
        index = table.get(blob)
        if index is None:
            parts += (b"\x00", image)
        else:
            parts.append(write_varint(index + 1))
    parts.append(out[-1])
    return b"".join(parts)


def expand_aggregated_batch(payload: bytes, config: SystemConfig) -> bytes:
    """The plain :meth:`BatchQueryResult.serialize` image of an
    aggregated batch: every slot's marker dropped or reference replaced
    by its table blob, every other byte copied as it came.

    Malformed frames raise :class:`EncodingError` (:func:`_walk`), and
    so does an image larger than a plain frame may be.
    """
    from repro.node.transport import DEFAULT_MAX_FRAME_BYTES

    out, _keys = _walk(payload, config, aggregated=True)
    if sum(map(len, out)) > DEFAULT_MAX_FRAME_BYTES:
        raise EncodingError(
            f"aggregated batch expands past the {DEFAULT_MAX_FRAME_BYTES}"
            "-byte frame limit"
        )
    return b"".join(out)


def decode_aggregated_batch(
    payload: bytes,
    config: SystemConfig,
    memo: "Optional[VerifierMemo]" = None,
) -> BatchQueryResult:
    """Inverse of :func:`encode_aggregated_batch`: the plain decoder
    (with ``memo``) on the expanded image, so the verifier sees exactly
    the batch a plain frame of those bytes carries.

    Malformed input — dangling back-references, wrong-length blobs,
    truncation, trailing bytes, any structural violation — raises
    :class:`EncodingError`; the verifier then never sees the batch.
    """
    plain = expand_aggregated_batch(payload, config)
    try:
        return BatchQueryResult.deserialize(plain, config, memo=memo)
    except ProofError as exc:
        raise EncodingError(str(exc)) from exc


def batch_of_result(result: QueryResult) -> BatchQueryResult:
    """View a single-address :class:`QueryResult` as a batch of one.

    This is how per-query tooling (``SizeBreakdown``, the CLI) reports
    aggregated wire sizes without a separate single-result encoder.
    """
    return batch_of_results([result])
