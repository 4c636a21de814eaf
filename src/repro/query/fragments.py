"""Proof payloads carried by query results (Eq 4 fragments and successors).

Three *resolutions* can answer "what about block ``h``, whose filter check
failed?":

* :class:`ExistenceResolution` — the address really is in the block: the
  SMT count branch (on SMT systems) plus one ``(transaction, Merkle
  branch)`` pair per appearance (Fig 10);
* :class:`FpmResolution` — false positive: the SMT predecessor/successor
  pair (Fig 9);
* :class:`IntegralBlockResolution` — the whole serialized body (the
  strawman's "IB" fragment, and the only completeness-preserving answer
  on systems without an SMT).

Non-BMT systems answer with one :class:`PerBlockAnswer` per block
(shipping the block filter when the header stores only its hash); BMT
systems answer with one :class:`SegmentProof` per covering (sub-)segment.

Every class serializes byte-exactly; reported result sizes are always
``len(serialize())``.

:class:`WireResolution` — a resolution held as its exact wire bytes —
is used on both sides of the wire.  The prover memoizes each resolution
once, as those bytes, and answers with a fresh :class:`WireResolution`
over them, so shipping one is a join, not an encode.  A light node
decodes segment proofs with its :class:`~repro.query.memo.VerifierMemo`
(``memo=``): each resolution then arrives as a :class:`WireResolution`,
and one whose exact bytes the memo already accepted for the same address
and height is not decoded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bloom.filter import BloomFilter
from repro.chain.transaction import Transaction
from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.errors import EncodingError, ProofError
from repro.merkle.bmt import BmtMultiProof
from repro.merkle.sorted_tree import SmtBranch, SmtInexistenceProof
from repro.merkle.tree import MerkleBranch
from repro.query.config import SystemConfig

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo

_RES_EXISTENCE = 0
_RES_FPM = 1
_RES_INTEGRAL = 2
_ANSWER_EMPTY = 0xFF


class TxWithBranch:
    """One transaction plus the Merkle branch anchoring it in its block."""

    __slots__ = ("transaction", "branch")

    def __init__(self, transaction: Transaction, branch: MerkleBranch) -> None:
        self.transaction = transaction
        self.branch = branch

    def serialize(self) -> bytes:
        return write_var_bytes(self.transaction.serialize()) + self.branch.serialize()

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "TxWithBranch":
        transaction = Transaction.from_bytes(reader.var_bytes())
        branch = MerkleBranch.deserialize(reader)
        return cls(transaction, branch)

    def tx_bytes(self) -> int:
        payload = self.transaction.serialize()
        return len(write_var_bytes(payload))

    def branch_bytes(self) -> int:
        return self.branch.size_bytes()


class ExistenceResolution:
    """The address appears in the block; prove exactly how often."""

    __slots__ = ("smt_branch", "entries")

    tag = _RES_EXISTENCE

    def __init__(
        self, smt_branch: Optional[SmtBranch], entries: List[TxWithBranch]
    ) -> None:
        if not entries:
            raise ProofError("existence resolution needs at least one tx")
        self.smt_branch = smt_branch
        self.entries = entries

    def serialize(self) -> bytes:
        parts = [bytes([1 if self.smt_branch is not None else 0])]
        if self.smt_branch is not None:
            parts.append(self.smt_branch.serialize())
        parts.append(write_varint(len(self.entries)))
        parts.extend(entry.serialize() for entry in self.entries)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "ExistenceResolution":
        has_smt = reader.bytes(1)[0]
        if has_smt not in (0, 1):
            raise EncodingError(f"bad SMT flag {has_smt}")
        smt_branch = SmtBranch.deserialize(reader) if has_smt else None
        count = reader.varint()
        if count == 0 or count > 1_000_000:
            raise EncodingError(f"implausible entry count {count}")
        entries = [TxWithBranch.deserialize(reader) for _ in range(count)]
        return cls(smt_branch, entries)

    def smt_bytes(self) -> int:
        return self.smt_branch.size_bytes() if self.smt_branch else 0

    def mt_bytes(self) -> int:
        return sum(entry.branch_bytes() for entry in self.entries)

    def tx_bytes(self) -> int:
        return sum(entry.tx_bytes() for entry in self.entries)


class FpmResolution:
    """BF false positive, refuted by an SMT inexistence proof."""

    __slots__ = ("proof",)

    tag = _RES_FPM

    def __init__(self, proof: SmtInexistenceProof) -> None:
        self.proof = proof

    def serialize(self) -> bytes:
        return self.proof.serialize()

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "FpmResolution":
        return cls(SmtInexistenceProof.deserialize(reader))

    def smt_bytes(self) -> int:
        return self.proof.size_bytes()


class IntegralBlockResolution:
    """The whole block body — the heavyweight fallback ("IB")."""

    __slots__ = ("body", "_transactions")

    tag = _RES_INTEGRAL

    def __init__(self, body: bytes) -> None:
        if not body:
            raise ProofError("integral block body cannot be empty")
        self.body = body
        self._transactions: "Optional[List[Transaction]]" = None

    def transactions(self) -> List[Transaction]:
        if self._transactions is None:
            from repro.chain.block import Block

            self._transactions = Block.body_from_bytes(self.body)
        return self._transactions

    def serialize(self) -> bytes:
        return write_var_bytes(self.body)

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "IntegralBlockResolution":
        return cls(reader.var_bytes())

    def ib_bytes(self) -> int:
        return len(write_var_bytes(self.body))


#: Union alias for type hints and isinstance checks.
BlockResolution = (ExistenceResolution, FpmResolution, IntegralBlockResolution)

_RESOLUTION_BY_TAG = {
    _RES_EXISTENCE: ExistenceResolution,
    _RES_FPM: FpmResolution,
    _RES_INTEGRAL: IntegralBlockResolution,
}


def _serialize_resolution(resolution) -> bytes:
    """The tag-first wire bytes of any resolution."""
    if isinstance(resolution, WireResolution):
        return resolution.wire
    return bytes([resolution.tag]) + resolution.serialize()


def _resolution_after_tag(tag: int, reader: ByteReader):
    """The resolution whose tag byte ``tag`` was just read."""
    cls = _RESOLUTION_BY_TAG.get(tag)
    if cls is None:
        raise EncodingError(f"unknown resolution tag {tag}")
    return cls.deserialize(reader)


def _deserialize_resolution(reader: ByteReader):
    return _resolution_after_tag(reader.bytes(1)[0], reader)


class WireResolution:
    """A resolution held as its exact wire bytes, tag byte first.

    What the prover answers with (``wire`` is its memo's entry), and
    what a segment proof decoded with ``memo=`` carries per height
    (``wire`` is what the verifier's memo is keyed on).  :meth:`decoded`
    is the resolution object — built at decode time on a verifier memo
    miss, and otherwise only on first use.
    """

    __slots__ = ("wire", "_decoded")

    def __init__(self, wire: bytes, decoded=None) -> None:
        self.wire = wire
        self._decoded = decoded

    @property
    def tag(self) -> int:
        return self.wire[0]

    def decoded(self):
        if self._decoded is None:
            reader = ByteReader(self.wire)
            self._decoded = _deserialize_resolution(reader)
            reader.finish()
        return self._decoded


#: What a :class:`SegmentProof` or :class:`PerBlockAnswer` may carry as
#: a resolution.
_RESOLUTION_TYPES = BlockResolution + (WireResolution,)


def _read_wire_resolution(
    reader: ByteReader, memo: "VerifierMemo", key: "tuple"
) -> WireResolution:
    """The resolution at ``reader`` as a :class:`WireResolution`; not
    decoded when it starts with the exact bytes ``memo`` accepted under
    ``key``.  The encoding is self-delimiting — every field is a fixed
    width or carries its own length or count — so bytes that begin with
    an accepted resolution decode to exactly it and end where it ends."""
    data = reader.buffer
    start = reader.offset
    entry = memo.resolutions.get(key)
    if entry is not None and data.startswith(entry[0], start):
        return WireResolution(reader.bytes(len(entry[0])))
    resolution = _deserialize_resolution(reader)
    return WireResolution(data[start : reader.offset], resolution)


class PerBlockAnswer:
    """One block's answer on a non-BMT system (the strawman's fragment).

    ``bf`` ships only when the header stores a hash of the filter;
    ``resolution`` is ``None`` for the Eq-4 "∅" fragment (the filter
    check itself witnesses inexistence).
    """

    __slots__ = ("bf", "resolution")

    def __init__(self, bf: Optional[BloomFilter], resolution) -> None:
        if resolution is not None and not isinstance(
            resolution, _RESOLUTION_TYPES
        ):
            raise ProofError(f"bad resolution type {type(resolution).__name__}")
        self.bf = bf
        self.resolution = resolution

    def serialize(self, config: SystemConfig) -> bytes:
        parts = []
        if config.ships_block_filters:
            if self.bf is None:
                raise ProofError("this system must ship the block filter")
            parts.append(self.bf.to_bytes())
        elif self.bf is not None:
            raise ProofError("this system must not ship block filters")
        if self.resolution is None:
            parts.append(bytes([_ANSWER_EMPTY]))
        else:
            parts.append(_serialize_resolution(self.resolution))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, reader: ByteReader, config: SystemConfig) -> "PerBlockAnswer":
        bf = None
        if config.ships_block_filters:
            bf = BloomFilter.from_bytes(
                reader.bytes(config.bf_bytes), config.num_hashes
            )
        tag = reader.bytes(1)[0]
        if tag == _ANSWER_EMPTY:
            return cls(bf, None)
        return cls(bf, _resolution_after_tag(tag, reader))


class SegmentProof:
    """One covering (sub-)segment's proof on a BMT system (Fig 11).

    ``multiproof`` is verified against the BMT root in the *anchor*
    block's header; ``resolutions`` maps each failed-leaf height to its
    block-level evidence.
    """

    __slots__ = ("anchor", "start", "end", "multiproof", "resolutions")

    def __init__(
        self,
        anchor: int,
        start: int,
        end: int,
        multiproof: BmtMultiProof,
        resolutions: "Dict[int, object]",
    ) -> None:
        if not start <= end or anchor != end:
            raise ProofError(
                f"segment anchor must be its last block: anchor={anchor}, "
                f"range=[{start},{end}]"
            )
        for height, resolution in resolutions.items():
            if not start <= height <= end:
                raise ProofError(
                    f"resolution height {height} outside [{start},{end}]"
                )
            if not isinstance(resolution, _RESOLUTION_TYPES):
                raise ProofError(
                    f"bad resolution type {type(resolution).__name__}"
                )
        self.anchor = anchor
        self.start = start
        self.end = end
        self.multiproof = multiproof
        self.resolutions = dict(resolutions)

    @property
    def num_blocks(self) -> int:
        return self.end - self.start + 1

    def serialize(self) -> bytes:
        parts = [
            write_varint(self.anchor),
            write_varint(self.start),
            write_varint(self.end),
            self.multiproof.serialize(),
            write_varint(len(self.resolutions)),
        ]
        for height in sorted(self.resolutions):
            parts.append(write_varint(height))
            parts.append(_serialize_resolution(self.resolutions[height]))
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls,
        reader: ByteReader,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
        address: str = "",
    ) -> "SegmentProof":
        """Decode one segment proof.  With ``memo``, every resolution is
        a :class:`WireResolution`, and one whose bytes ``memo`` accepted
        for ``(height, address)`` is not decoded at all."""
        anchor = reader.varint()
        start = reader.varint()
        end = reader.varint()
        multiproof = BmtMultiProof.deserialize(reader, config.bf_bits)
        count = reader.varint()
        if count > end - start + 1:
            raise EncodingError(
                f"{count} resolutions for a {end - start + 1}-block segment"
            )
        resolutions: "Dict[int, object]" = {}
        for _ in range(count):
            height = reader.varint()
            if height in resolutions:
                raise EncodingError(f"duplicate resolution height {height}")
            if memo is None:
                resolutions[height] = _deserialize_resolution(reader)
            else:
                resolutions[height] = _read_wire_resolution(
                    reader, memo, (height, address)
                )
        return cls(anchor, start, end, multiproof, resolutions)
