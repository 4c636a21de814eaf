"""Query results and their size accounting.

A :class:`QueryResult` is the complete wire answer a full node returns for
one address.  The evaluation section of the paper measures exactly one
thing — the size of this object — so :meth:`QueryResult.size_bytes` is the
library's headline metric, and :meth:`QueryResult.breakdown` splits it
into the categories Fig 14 plots (BMT branches vs everything else).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.errors import EncodingError, ProofError
from repro.query.config import SystemConfig, SystemKind
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    PerBlockAnswer,
    SegmentProof,
    WireResolution,
)

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo


class SizeBreakdown:
    """Bytes of a result attributed to each proof component."""

    __slots__ = (
        "bf_bytes",
        "bmt_bytes",
        "smt_bytes",
        "mt_bytes",
        "tx_bytes",
        "ib_bytes",
        "framing_bytes",
        "total_bytes",
        "aggregated_bytes",
        "compressed_bytes",
    )

    def __init__(self) -> None:
        self.bf_bytes = 0  # per-block filters shipped by non-BMT systems
        self.bmt_bytes = 0  # BMT multiproofs (filters + hashes inside them)
        self.smt_bytes = 0  # SMT existence branches + inexistence pairs
        self.mt_bytes = 0  # transaction Merkle branches
        self.tx_bytes = 0  # raw transactions in existence resolutions
        self.ib_bytes = 0  # integral block bodies
        self.framing_bytes = 0  # tags, varints, message header
        self.total_bytes = 0
        self.aggregated_bytes = 0  # §8.1 blob-table re-encoding of the result
        self.compressed_bytes = 0  # aggregated frame after per-frame zlib

    def bmt_ratio(self) -> float:
        """Fraction of the result occupied by BMT branches (Fig 14)."""
        if self.total_bytes == 0:
            return 0.0
        return self.bmt_bytes / self.total_bytes

    def as_dict(self) -> Dict[str, int]:
        return {
            "bf": self.bf_bytes,
            "bmt": self.bmt_bytes,
            "smt": self.smt_bytes,
            "mt": self.mt_bytes,
            "tx": self.tx_bytes,
            "ib": self.ib_bytes,
            "framing": self.framing_bytes,
            "total": self.total_bytes,
            "aggregated": self.aggregated_bytes,
            "compressed": self.compressed_bytes,
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SizeBreakdown({fields})"


class QueryResult:
    """Everything a full node returns for one address query.

    ``first_height``/``last_height`` bound the queried slice of the chain
    (defaults: the whole chain, heights ``1..tip_height``) — the §V
    protocol plus the range-query extension documented in DESIGN.md.
    """

    __slots__ = (
        "kind",
        "address",
        "tip_height",
        "first_height",
        "last_height",
        "segments",
        "blocks",
    )

    def __init__(
        self,
        kind: SystemKind,
        address: str,
        tip_height: int,
        segments: Optional[List[SegmentProof]] = None,
        blocks: Optional[List[PerBlockAnswer]] = None,
        first_height: int = 1,
        last_height: Optional[int] = None,
    ) -> None:
        if (segments is None) == (blocks is None):
            raise ProofError(
                "a result carries either segment proofs or per-block answers"
            )
        if last_height is None:
            last_height = tip_height
        if not 1 <= first_height <= last_height <= tip_height:
            raise ProofError(
                f"bad query range [{first_height},{last_height}] for tip "
                f"{tip_height}"
            )
        self.kind = kind
        self.address = address
        self.tip_height = tip_height
        self.first_height = first_height
        self.last_height = last_height
        self.segments = segments
        self.blocks = blocks

    @property
    def is_full_range(self) -> bool:
        return self.first_height == 1 and self.last_height == self.tip_height

    # -- statistics ----------------------------------------------------------

    def num_endpoints(self) -> int:
        """Total BMT endpoint nodes across all segments (Fig 15/16)."""
        if self.segments is None:
            raise ProofError(f"{self.kind.value} results have no BMT endpoints")
        return sum(seg.multiproof.num_endpoints() for seg in self.segments)

    def size_bytes(self, config: SystemConfig) -> int:
        return len(self.serialize(config))

    def breakdown(self, config: SystemConfig) -> SizeBreakdown:
        """Attribute every byte of the serialized result to a component."""
        sizes = SizeBreakdown()
        sizes.total_bytes = self.size_bytes(config)
        if self.segments is not None:
            for segment in self.segments:
                sizes.bmt_bytes += segment.multiproof.size_bytes()
                for resolution in segment.resolutions.values():
                    _account_resolution(resolution, sizes)
        else:
            assert self.blocks is not None
            for answer in self.blocks:
                if answer.bf is not None:
                    sizes.bf_bytes += answer.bf.size_bytes
                if answer.resolution is not None:
                    _account_resolution(answer.resolution, sizes)
        attributed = (
            sizes.bf_bytes
            + sizes.bmt_bytes
            + sizes.smt_bytes
            + sizes.mt_bytes
            + sizes.tx_bytes
            + sizes.ib_bytes
        )
        sizes.framing_bytes = sizes.total_bytes - attributed
        # Wire sizes: the §8.1 aggregated re-encoding of this result and
        # that frame after per-frame compression.  Lazy imports break the
        # result → aggregate → batch → result cycle.
        from repro.node.transport import compress_frame
        from repro.query.aggregate import batch_of_result, encode_aggregated_batch

        aggregated = encode_aggregated_batch(batch_of_result(self), config)
        sizes.aggregated_bytes = len(aggregated)
        sizes.compressed_bytes = len(compress_frame(aggregated))
        return sizes

    # -- serialization ---------------------------------------------------------

    def serialize(self, config: SystemConfig) -> bytes:
        if config.kind is not self.kind:
            raise ProofError(
                f"result built for {self.kind.value} serialized with a "
                f"{config.kind.value} config"
            )
        parts = [
            write_var_bytes(self.address.encode("utf-8")),
            write_varint(self.tip_height),
            write_varint(self.first_height),
            write_varint(self.last_height),
        ]
        if self.segments is not None:
            parts.append(write_varint(len(self.segments)))
            parts.extend(segment.serialize() for segment in self.segments)
        else:
            assert self.blocks is not None
            parts.append(write_varint(len(self.blocks)))
            parts.extend(answer.serialize(config) for answer in self.blocks)
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
    ) -> "QueryResult":
        """Decode a result; ``memo`` is handed to every segment proof
        (:meth:`SegmentProof.deserialize`) and unused on per-block
        systems."""
        reader = ByteReader(payload)
        try:
            address = reader.var_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"result address is not UTF-8: {exc}") from exc
        tip_height = reader.varint()
        first_height = reader.varint()
        last_height = reader.varint()
        count = reader.varint()
        if count > 10_000_000:
            raise EncodingError(f"implausible element count {count}")
        segments = None
        blocks = None
        if config.uses_bmt:
            segments = [
                SegmentProof.deserialize(reader, config, memo, address)
                for _ in range(count)
            ]
        else:
            blocks = [
                PerBlockAnswer.deserialize(reader, config) for _ in range(count)
            ]
        reader.finish()
        try:
            return cls(
                config.kind,
                address,
                tip_height,
                segments,
                blocks,
                first_height,
                last_height,
            )
        except ProofError as exc:
            raise EncodingError(str(exc)) from exc

    def __repr__(self) -> str:
        if self.segments is not None:
            shape = f"{len(self.segments)} segments"
        else:
            assert self.blocks is not None
            shape = f"{len(self.blocks)} blocks"
        return f"QueryResult({self.kind.value}, {self.address[:12]}…, {shape})"


def _account_resolution(resolution, sizes: SizeBreakdown) -> None:
    # A wire resolution (the prover's answers carry them) is accounted
    # by its decoded components: the same bytes, so the same split.
    if isinstance(resolution, WireResolution):
        resolution = resolution.decoded()
    if isinstance(resolution, ExistenceResolution):
        sizes.smt_bytes += resolution.smt_bytes()
        sizes.mt_bytes += resolution.mt_bytes()
        sizes.tx_bytes += resolution.tx_bytes()
    elif isinstance(resolution, FpmResolution):
        sizes.smt_bytes += resolution.smt_bytes()
    elif isinstance(resolution, IntegralBlockResolution):
        sizes.ib_bytes += resolution.ib_bytes()
    else:  # pragma: no cover - constructor already rejects unknown types
        raise ProofError(f"unknown resolution type {type(resolution).__name__}")
