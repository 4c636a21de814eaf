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

Verification is unchanged by construction: :func:`decode_aggregated_batch`
rebuilds a :class:`BatchQueryResult` whose plain serialization is
byte-for-byte identical to the original's, and the verifier only ever
sees that object.  The plain path is retained as the equivalence oracle
(``tests/query/test_aggregate.py``), exactly as PR 1 kept the naive
prover.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bloom.filter import BloomFilter
from repro.chain.transaction import Transaction
from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.crypto.hashing import HASH_SIZE
from repro.errors import EncodingError, ProofError
from repro.merkle.bmt import (
    _MAX_NESTING,
    _TAG_BYTES,
    _TAG_HASHES,
    _TAG_INTERNAL,
    BmtMultiProof,
)
from repro.merkle.sorted_tree import SmtBranch, SmtInexistenceProof, SmtLeaf
from repro.merkle.tree import MerkleBranch
from repro.query.batch import BatchQueryResult
from repro.query.config import SystemConfig
from repro.query.fragments import (
    _ANSWER_EMPTY,
    _RES_EXISTENCE,
    _RES_FPM,
    _RES_INTEGRAL,
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    SegmentProof,
    TxWithBranch,
)
from repro.query.result import QueryResult

#: Blobs shorter than this never enter the table — a back-reference plus
#: the table entry's length prefix would cost as much as shipping them.
_MIN_SHARED_LEN = 4
#: Sanity cap on the node-table length; far above any real batch.
_MAX_TABLE = 1_000_000


# ---------------------------------------------------------------------------
# encoder sink / decoder source


#: Token kinds of one walk: bytes written as they are, and the two blob
#: slots (fixed-length, var_bytes-framed) that may become references.
_RAW, _FIXED, _VAR = 0, 1, 2


class _Tokens:
    """One walk of a batch: the body as ``(kind, bytes)`` tokens, read by
    both the counting and the emitting pass so the batch is walked (and
    its transactions serialized) once."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: "List[Tuple[int, bytes]]" = []

    def raw(self, data: bytes) -> None:
        self.items.append((_RAW, data))

    def varint(self, value: int) -> None:
        self.items.append((_RAW, write_varint(value)))

    def fixed_blob(self, data: bytes) -> None:
        self.items.append((_FIXED, data))

    def var_blob(self, data: bytes) -> None:
        self.items.append((_VAR, data))


class _Source:
    """Decoder cursor resolving back-references against the blob table."""

    __slots__ = ("_reader", "_table")

    def __init__(self, reader: ByteReader, table: List[bytes]) -> None:
        self._reader = reader
        self._table = table

    def raw(self, length: int) -> bytes:
        return self._reader.bytes(length)

    def varint(self) -> int:
        return self._reader.varint()

    def fixed_blob(self, length: int) -> bytes:
        k = self._reader.varint()
        if k == 0:
            return self._reader.bytes(length)
        data = self._lookup(k)
        if len(data) != length:
            raise EncodingError(
                f"blob reference {k} carries {len(data)} bytes where "
                f"{length} are required"
            )
        return data

    def var_blob(self) -> bytes:
        k = self._reader.varint()
        if k == 0:
            return self._reader.var_bytes()
        return self._lookup(k)

    def _lookup(self, k: int) -> bytes:
        if k > len(self._table):
            raise EncodingError(
                f"dangling blob reference {k} (table has "
                f"{len(self._table)} entries)"
            )
        return self._table[k - 1]


# ---------------------------------------------------------------------------
# structure walkers (encoder side)


def _walk_smt_branch(branch: SmtBranch, sink) -> None:
    sink.var_blob(branch.leaf.address.encode("utf-8"))
    sink.varint(branch.leaf.count)
    sink.varint(branch.leaf_index)
    sink.varint(len(branch.siblings))
    for sibling in branch.siblings:
        sink.fixed_blob(sibling)


def _walk_merkle_branch(branch: MerkleBranch, sink) -> None:
    sink.fixed_blob(branch.leaf_hash)
    sink.varint(branch.leaf_index)
    sink.varint(len(branch.siblings))
    for sibling in branch.siblings:
        sink.fixed_blob(sibling)


def _walk_resolution(resolution, sink) -> None:
    sink.raw(bytes([resolution.tag]))
    if isinstance(resolution, ExistenceResolution):
        sink.raw(b"\x01" if resolution.smt_branch is not None else b"\x00")
        if resolution.smt_branch is not None:
            _walk_smt_branch(resolution.smt_branch, sink)
        sink.varint(len(resolution.entries))
        for entry in resolution.entries:
            sink.var_blob(entry.transaction.serialize())
            _walk_merkle_branch(entry.branch, sink)
    elif isinstance(resolution, FpmResolution):
        proof = resolution.proof
        flags = (1 if proof.predecessor else 0) | (2 if proof.successor else 0)
        sink.raw(bytes([flags]))
        if proof.predecessor is not None:
            _walk_smt_branch(proof.predecessor, sink)
        if proof.successor is not None:
            _walk_smt_branch(proof.successor, sink)
    elif isinstance(resolution, IntegralBlockResolution):
        sink.var_blob(resolution.body)
    else:  # pragma: no cover - fragment constructors reject unknown types
        raise ProofError(f"unknown resolution type {type(resolution).__name__}")


def _walk_multiproof(proof: BmtMultiProof, sink) -> None:
    for tag, hashes, bf in proof.nodes():
        sink.raw(_TAG_BYTES[tag])
        for node_hash in hashes:
            sink.fixed_blob(node_hash)
        if bf is not None:
            sink.fixed_blob(bf)


def _walk_segment(segment: SegmentProof, sink) -> None:
    sink.varint(segment.anchor)
    sink.varint(segment.start)
    sink.varint(segment.end)
    _walk_multiproof(segment.multiproof, sink)
    sink.varint(len(segment.resolutions))
    for height in sorted(segment.resolutions):
        sink.varint(height)
        _walk_resolution(segment.resolutions[height], sink)


def _walk_batch(batch: BatchQueryResult, config: SystemConfig, sink) -> None:
    sink.varint(len(batch.addresses))
    for address in batch.addresses:
        sink.var_blob(address.encode("utf-8"))
    sink.varint(batch.tip_height)
    sink.varint(batch.first_height)
    sink.varint(batch.last_height)
    if config.uses_bmt:
        assert batch.per_address_segments is not None
        for segments in batch.per_address_segments:
            sink.varint(len(segments))
            for segment in segments:
                _walk_segment(segment, sink)
        return
    assert batch.per_address_answers is not None
    if config.ships_block_filters:
        if batch.shared_filters is None or len(batch.shared_filters) != (
            batch.num_blocks
        ):
            raise ProofError("batch must ship one filter per block")
        for bf in batch.shared_filters:
            sink.fixed_blob(bf.to_bytes())
    for answers in batch.per_address_answers:
        for resolution in answers:
            if resolution is None:
                sink.raw(bytes([_ANSWER_EMPTY]))
            else:
                _walk_resolution(resolution, sink)


# ---------------------------------------------------------------------------
# structure readers (decoder side)


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not UTF-8: {exc}") from exc


def _read_smt_branch(src: _Source) -> SmtBranch:
    address = _utf8(src.var_blob())
    count = src.varint()
    # Mirror SmtLeaf.deserialize: bypass the constructor's sentinel-space
    # check so honest sentinel leaves (and the oracle) round-trip exactly.
    leaf = SmtLeaf.__new__(SmtLeaf)
    leaf.address = address
    leaf.count = count
    leaf_index = src.varint()
    depth = src.varint()
    if depth > 64:
        raise EncodingError(f"implausible SMT branch depth {depth}")
    siblings = [src.fixed_blob(HASH_SIZE) for _ in range(depth)]
    return SmtBranch(leaf, leaf_index, siblings)


def _read_merkle_branch(src: _Source) -> MerkleBranch:
    leaf_hash = src.fixed_blob(HASH_SIZE)
    leaf_index = src.varint()
    depth = src.varint()
    if depth > 64:
        raise EncodingError(f"implausible branch depth {depth}")
    siblings = [src.fixed_blob(HASH_SIZE) for _ in range(depth)]
    return MerkleBranch(leaf_hash, leaf_index, siblings)


def _read_resolution_body(tag: int, src: _Source):
    if tag == _RES_EXISTENCE:
        has_smt = src.raw(1)[0]
        if has_smt not in (0, 1):
            raise EncodingError(f"bad SMT flag {has_smt}")
        smt_branch = _read_smt_branch(src) if has_smt else None
        count = src.varint()
        if count == 0 or count > 1_000_000:
            raise EncodingError(f"implausible entry count {count}")
        entries = []
        for _ in range(count):
            transaction = Transaction.from_bytes(src.var_blob())
            entries.append(TxWithBranch(transaction, _read_merkle_branch(src)))
        return ExistenceResolution(smt_branch, entries)
    if tag == _RES_FPM:
        flags = src.raw(1)[0]
        if flags not in (1, 2, 3):
            raise EncodingError(f"bad SMT inexistence flags {flags}")
        predecessor = _read_smt_branch(src) if flags & 1 else None
        successor = _read_smt_branch(src) if flags & 2 else None
        return FpmResolution(SmtInexistenceProof(predecessor, successor))
    if tag == _RES_INTEGRAL:
        return IntegralBlockResolution(src.var_blob())
    raise EncodingError(f"unknown resolution tag {tag}")


def _read_multiproof(src: _Source, bf_bytes: int) -> BmtMultiProof:
    """Gather one multiproof's nodes, back-references resolved, into
    its plain wire image (PROTOCOL.md §4.2)."""
    parts: List[bytes] = []
    pending = [0]  # nesting depth of each subtree still to read
    while pending:
        depth = pending.pop()
        if depth > _MAX_NESTING:
            raise EncodingError("BMT multiproof nests implausibly deep")
        tag_byte = src.raw(1)
        parts.append(tag_byte)
        tag = tag_byte[0]
        if tag == _TAG_INTERNAL:
            pending.extend((depth + 1, depth + 1))
            continue
        hashes = _TAG_HASHES.get(tag)
        if hashes is None:
            raise EncodingError(f"unknown BMT multiproof tag {tag}")
        for _ in range(hashes):
            parts.append(src.fixed_blob(HASH_SIZE))
        parts.append(src.fixed_blob(bf_bytes))
    return BmtMultiProof(b"".join(parts), bf_bytes)


def _read_segment(src: _Source, config: SystemConfig) -> SegmentProof:
    anchor = src.varint()
    start = src.varint()
    end = src.varint()
    multiproof = _read_multiproof(src, config.bf_bytes)
    count = src.varint()
    if count > end - start + 1:
        raise EncodingError(
            f"{count} resolutions for a {end - start + 1}-block segment"
        )
    resolutions: Dict[int, object] = {}
    for _ in range(count):
        height = src.varint()
        if height in resolutions:
            raise EncodingError(f"duplicate resolution height {height}")
        tag = src.raw(1)[0]
        resolutions[height] = _read_resolution_body(tag, src)
    return SegmentProof(anchor, start, end, multiproof, resolutions)


def _read_batch(src: _Source, config: SystemConfig) -> BatchQueryResult:
    count = src.varint()
    if count == 0 or count > 10_000:
        raise EncodingError(f"implausible batch address count {count}")
    addresses = [_utf8(src.var_blob()) for _ in range(count)]
    tip_height = src.varint()
    first_height = src.varint()
    last_height = src.varint()
    if not 1 <= first_height <= last_height <= tip_height:
        raise EncodingError(f"bad batch range [{first_height},{last_height}]")
    num_blocks = last_height - first_height + 1

    if config.uses_bmt:
        per_address_segments = []
        for _ in range(count):
            segment_count = src.varint()
            if segment_count > num_blocks:
                raise EncodingError("more segments than blocks")
            per_address_segments.append(
                [_read_segment(src, config) for _ in range(segment_count)]
            )
        return BatchQueryResult(
            config.kind,
            addresses,
            tip_height,
            first_height,
            last_height,
            per_address_segments=per_address_segments,
        )

    shared_filters = None
    if config.ships_block_filters:
        shared_filters = [
            BloomFilter.from_bytes(
                src.fixed_blob(config.bf_bytes), config.num_hashes
            )
            for _ in range(num_blocks)
        ]
    per_address_answers: List[List[object]] = []
    for _ in range(count):
        answers: List[object] = []
        for _height in range(num_blocks):
            tag = src.raw(1)[0]
            if tag == _ANSWER_EMPTY:
                answers.append(None)
            else:
                answers.append(_read_resolution_body(tag, src))
        per_address_answers.append(answers)
    return BatchQueryResult(
        config.kind,
        addresses,
        tip_height,
        first_height,
        last_height,
        shared_filters=shared_filters,
        per_address_answers=per_address_answers,
    )


# ---------------------------------------------------------------------------
# public API


def encode_aggregated_batch(
    batch: BatchQueryResult, config: SystemConfig
) -> bytes:
    """Serialize ``batch`` with cross-fragment blob deduplication."""
    if config.kind is not batch.kind:
        raise ProofError(
            f"batch built for {batch.kind.value} aggregated with a "
            f"{config.kind.value} config"
        )
    tokens = _Tokens()
    _walk_batch(batch, config, tokens)
    counts: Dict[bytes, int] = {}
    for kind, data in tokens.items:
        if kind != _RAW and len(data) >= _MIN_SHARED_LEN:
            counts[data] = counts.get(data, 0) + 1
    table: Dict[bytes, int] = {}
    for data, occurrences in counts.items():
        if occurrences >= 2:
            table[data] = len(table)
    if len(table) > _MAX_TABLE:  # pragma: no cover - needs a absurd batch
        raise EncodingError(f"blob table overflows: {len(table)} entries")
    parts = [write_varint(len(table))]
    parts.extend(write_var_bytes(data) for data in table)
    for kind, data in tokens.items:
        if kind == _RAW:
            parts.append(data)
            continue
        index = table.get(data)
        if index is not None:
            parts.append(write_varint(index + 1))
        elif kind == _FIXED:
            parts.append(b"\x00")
            parts.append(data)
        else:
            parts.append(b"\x00")
            parts.append(write_var_bytes(data))
    return b"".join(parts)


def decode_aggregated_batch(
    payload: bytes, config: SystemConfig
) -> BatchQueryResult:
    """Inverse of :func:`encode_aggregated_batch`.

    Malformed input — dangling back-references, wrong-length blobs,
    truncation, trailing bytes, any structural violation — raises
    :class:`EncodingError`; the verifier then never sees the batch.
    """
    reader = ByteReader(payload)
    count = reader.varint()
    if count > _MAX_TABLE:
        raise EncodingError(f"implausible blob table length {count}")
    table = [reader.var_bytes() for _ in range(count)]
    src = _Source(reader, table)
    try:
        batch = _read_batch(src, config)
    except ProofError as exc:
        raise EncodingError(str(exc)) from exc
    reader.finish()
    return batch


def aggregated_size_bytes(batch: BatchQueryResult, config: SystemConfig) -> int:
    return len(encode_aggregated_batch(batch, config))


def batch_of_result(result: QueryResult) -> BatchQueryResult:
    """View a single-address :class:`QueryResult` as a batch of one.

    This is how per-query tooling (``SizeBreakdown``, the CLI) reports
    aggregated wire sizes without a separate single-result encoder.
    """
    if result.segments is not None:
        return BatchQueryResult(
            result.kind,
            [result.address],
            result.tip_height,
            result.first_height,
            result.last_height,
            per_address_segments=[result.segments],
        )
    assert result.blocks is not None
    filters = None
    if result.blocks and result.blocks[0].bf is not None:
        filters = [answer.bf for answer in result.blocks]
    return BatchQueryResult(
        result.kind,
        [result.address],
        result.tip_height,
        result.first_height,
        result.last_height,
        shared_filters=filters,
        per_address_answers=[[answer.resolution for answer in result.blocks]],
    )
