"""Batch queries: one verifiable answer for several addresses.

A batch is a view of N single-address answers over one range and one
tip, and has no proof logic of its own.  The prover answers each
address with :func:`~repro.query.prover.answer_query` under one read
lock and joins the answers with :func:`batch_of_results`; the verifier
checks each address with the single-address checks of
:mod:`repro.query.verifier`.

What the view changes is the wire shape.  On the hash-committed non-BMT
systems (strawman, LVQ-no-BMT) the dominant cost is shipping every
block's filter; the N answers carry the same filters, so a batch ships
each filter **once** and shares it across all queried addresses, and the
marginal cost of an extra address is just its resolutions.  On BMT
systems each address needs its own multiproof (its checked bit positions
differ), so a batch is the concatenation of per-address segment proofs —
still one message, no filter sharing to exploit.

Verification amortizes the same way: each shared filter is
authenticated against its header once, by the single verifier's filter
authenticator, then every address's Eq-4 check (evidence exactly where
the filter check fails) runs against the authenticated filters.  On BMT
systems each address's segments go through ``verify_result``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bloom.filter import BloomFilter
from repro.chain.block import BlockHeader
from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.errors import (
    CompletenessError,
    EncodingError,
    ProofError,
    QueryError,
    VerificationError,
)
from repro.query.builder import BuiltSystem
from repro.query.config import SystemConfig
from repro.query.fragments import (
    _ANSWER_EMPTY,
    SegmentProof,
    _resolution_after_tag,
    _serialize_resolution,
)
from repro.query.memo import VerifierMemo
from repro.query.prover import answer_query
from repro.query.result import QueryResult
from repro.query.verifier import (
    VerifiedHistory,
    _authenticated_filters,
    _verify_blocks,
    verify_result,
)


class BatchQueryResult:
    """Wire answer for a multi-address query."""

    __slots__ = (
        "kind",
        "addresses",
        "tip_height",
        "first_height",
        "last_height",
        "shared_filters",
        "per_address_answers",
        "per_address_segments",
    )

    def __init__(
        self,
        kind,
        addresses: List[str],
        tip_height: int,
        first_height: int,
        last_height: int,
        shared_filters: Optional[List[BloomFilter]] = None,
        per_address_answers: Optional[List[List[object]]] = None,
        per_address_segments: Optional[List[List[SegmentProof]]] = None,
    ) -> None:
        if not addresses:
            raise ProofError("batch query needs at least one address")
        if len(set(addresses)) != len(addresses):
            raise ProofError("batch addresses must be distinct")
        if (per_address_answers is None) == (per_address_segments is None):
            raise ProofError(
                "a batch carries either per-block answers or segment proofs"
            )
        if not 1 <= first_height <= last_height <= tip_height:
            raise ProofError(
                f"bad query range [{first_height},{last_height}] for tip "
                f"{tip_height}"
            )
        self.kind = kind
        self.addresses = addresses
        self.tip_height = tip_height
        self.first_height = first_height
        self.last_height = last_height
        self.shared_filters = shared_filters
        self.per_address_answers = per_address_answers
        self.per_address_segments = per_address_segments

    @property
    def num_blocks(self) -> int:
        return self.last_height - self.first_height + 1

    # -- serialization -----------------------------------------------------

    def serialize(self, config: SystemConfig) -> bytes:
        parts = [write_varint(len(self.addresses))]
        parts.extend(
            write_var_bytes(address.encode("utf-8"))
            for address in self.addresses
        )
        parts.append(write_varint(self.tip_height))
        parts.append(write_varint(self.first_height))
        parts.append(write_varint(self.last_height))
        if config.uses_bmt:
            assert self.per_address_segments is not None
            for segments in self.per_address_segments:
                parts.append(write_varint(len(segments)))
                parts.extend(segment.serialize() for segment in segments)
            return b"".join(parts)

        assert self.per_address_answers is not None
        if config.ships_block_filters:
            if self.shared_filters is None or len(self.shared_filters) != (
                self.num_blocks
            ):
                raise ProofError("batch must ship one filter per block")
            parts.extend(bf.to_bytes() for bf in self.shared_filters)
        for answers in self.per_address_answers:
            for resolution in answers:
                if resolution is None:
                    parts.append(bytes([_ANSWER_EMPTY]))
                else:
                    parts.append(_serialize_resolution(resolution))
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: Optional[VerifierMemo] = None,
    ) -> "BatchQueryResult":
        """Decode a batch; ``memo`` is handed to every segment proof
        with the address its list answers
        (:meth:`SegmentProof.deserialize`) and unused on per-block
        systems."""
        reader = ByteReader(payload)
        count = reader.varint()
        if count == 0 or count > 10_000:
            raise EncodingError(f"implausible batch address count {count}")
        addresses = []
        for _ in range(count):
            try:
                addresses.append(reader.var_bytes().decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError(f"batch address not UTF-8: {exc}") from exc
        tip_height = reader.varint()
        first_height = reader.varint()
        last_height = reader.varint()
        if not 1 <= first_height <= last_height <= tip_height:
            raise EncodingError(
                f"bad batch range [{first_height},{last_height}]"
            )
        num_blocks = last_height - first_height + 1

        if config.uses_bmt:
            per_address_segments = []
            for address in addresses:
                segment_count = reader.varint()
                if segment_count > num_blocks:
                    raise EncodingError("more segments than blocks")
                per_address_segments.append(
                    [
                        SegmentProof.deserialize(reader, config, memo, address)
                        for _ in range(segment_count)
                    ]
                )
            reader.finish()
            return cls(
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
                    reader.bytes(config.bf_bytes), config.num_hashes
                )
                for _ in range(num_blocks)
            ]
        per_address_answers: List[List[object]] = []
        for _ in range(count):
            answers: List[object] = []
            for _height in range(num_blocks):
                tag = reader.bytes(1)[0]
                if tag == _ANSWER_EMPTY:
                    answers.append(None)
                else:
                    answers.append(_resolution_after_tag(tag, reader))
            per_address_answers.append(answers)
        reader.finish()
        return cls(
            config.kind,
            addresses,
            tip_height,
            first_height,
            last_height,
            shared_filters=shared_filters,
            per_address_answers=per_address_answers,
        )

    def size_bytes(self, config: SystemConfig) -> int:
        return len(self.serialize(config))


def batch_of_results(results: Sequence[QueryResult]) -> BatchQueryResult:
    """The batch view of single-address answers over one range and tip.

    Per-block answers share one filter list, taken from the first
    answer: the honest prover's answers all carry the chain's filters.
    """
    first = results[0]
    addresses = [result.address for result in results]
    span = (first.tip_height, first.first_height, first.last_height)
    if first.segments is not None:
        return BatchQueryResult(
            first.kind,
            addresses,
            *span,
            per_address_segments=[result.segments for result in results],
        )
    assert first.blocks is not None
    filters = None
    if first.blocks and first.blocks[0].bf is not None:
        filters = [answer.bf for answer in first.blocks]
    return BatchQueryResult(
        first.kind,
        addresses,
        *span,
        shared_filters=filters,
        per_address_answers=[
            [answer.resolution for answer in result.blocks]
            for result in results
        ],
    )


# ---------------------------------------------------------------------------
# prover side


def answer_batch_query(
    system: BuiltSystem,
    addresses: Sequence[str],
    first_height: int = 1,
    last_height: "int | None" = None,
) -> BatchQueryResult:
    """The honest full node's shared answer for several addresses: one
    :func:`answer_query` per address, viewed as one batch.

    Runs under the system's read lock (reentrantly shared with the
    nested per-address ``answer_query`` calls), so the whole batch is
    answered against one consistent tip.
    """
    if not addresses:
        raise QueryError("batch query needs at least one address")
    if any(not address for address in addresses):
        raise QueryError("empty address in batch query")
    with system.lock.read():
        return batch_of_results(
            [
                answer_query(system, address, first_height, last_height)
                for address in addresses
            ]
        )


# ---------------------------------------------------------------------------
# verifier side


def verify_batch_result(
    batch: BatchQueryResult,
    headers: Sequence[BlockHeader],
    config: SystemConfig,
    expected_addresses: Optional[Sequence[str]] = None,
    expected_range: Optional[Tuple[int, int]] = None,
    memo: Optional[VerifierMemo] = None,
) -> Dict[str, VerifiedHistory]:
    """Verify a batch answer; returns one verified history per address.

    ``memo`` is passed to every per-address BMT verification."""
    if batch.kind is not config.kind:
        raise VerificationError(
            f"batch claims system {batch.kind.value}, chain runs "
            f"{config.kind.value}"
        )
    if expected_addresses is not None and list(expected_addresses) != (
        batch.addresses
    ):
        raise VerificationError("batch answers a different address list")
    tip_height = len(headers) - 1
    if batch.tip_height != tip_height:
        raise CompletenessError(
            f"batch covers up to height {batch.tip_height}, local tip is "
            f"{tip_height}"
        )
    if expected_range is not None and expected_range != (
        batch.first_height,
        batch.last_height,
    ):
        raise CompletenessError(
            f"asked about heights {expected_range}, batch answers "
            f"[{batch.first_height},{batch.last_height}]"
        )

    if config.uses_bmt:
        assert batch.per_address_segments is not None
        if len(batch.per_address_segments) != len(batch.addresses):
            raise CompletenessError("segment lists do not match addresses")
        histories = {}
        for address, segments in zip(
            batch.addresses, batch.per_address_segments
        ):
            result = QueryResult(
                config.kind,
                address,
                batch.tip_height,
                segments=segments,
                first_height=batch.first_height,
                last_height=batch.last_height,
            )
            histories[address] = verify_result(
                result, headers, config, address, memo=memo
            )
        return histories

    assert batch.per_address_answers is not None
    if len(batch.per_address_answers) != len(batch.addresses):
        raise CompletenessError("answer lists do not match addresses")
    first, last = batch.first_height, batch.last_height
    # Authenticate every shared filter once (the amortized step); a
    # system whose headers hold the filters ships none.
    shipped = batch.shared_filters or [None] * batch.num_blocks
    filters = _authenticated_filters(shipped, first, last, headers, config)
    return {
        address: _verify_blocks(
            address, first, last, filters, answers, headers, config
        )
        for address, answers in zip(
            batch.addresses, batch.per_address_answers
        )
    }
