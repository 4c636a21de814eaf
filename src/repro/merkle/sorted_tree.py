"""Sorted Merkle Tree over (address, appearance-count) leaves (§III-A, §IV-B2).

Each LVQ block commits to an SMT whose leaves are the unique addresses
appearing in the block, each paired with the number of transactions that
involve it, sorted lexicographically.  Two kinds of proofs come out of it:

* an **existence branch** — authenticates ``(address, count)``, pinning the
  exact appearance count and thereby solving the paper's Challenge 3;
* an **inexistence proof** — the predecessor and successor branches around
  the queried address (Fig 9).  Adjacent leaf indices plus the sort order
  prove that nothing between the two leaves exists, which resolves Bloom
  filter false positives without shipping the integral block (Challenge 2).

Deviation from the paper (documented in DESIGN.md): the leaf list is padded
to a power of two with ``+∞`` sentinel leaves so that "the queried address
sorts after every real leaf" is provable with an ordinary adjacent pair.
When the real leaf count is already a power of two no sentinel exists, and
the right-edge case is instead proven by a predecessor branch whose index
is the all-ones path (the provably-last slot).  Branch direction bits prove
leaf indices, which is what makes adjacency verifiable at all.
"""

from __future__ import annotations

import bisect
from array import array
from typing import List, Optional, Sequence, Tuple

from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.crypto.hashing import HASH_SIZE, tagged_hash
from repro.errors import EncodingError, ProofError, VerificationError

#: Sorts strictly after every Base58 string (Base58 is pure ASCII < 0x7f).
SMT_SENTINEL = "\x7f"

_LEAF_TAG = "smt/leaf"
_NODE_TAG = "smt/node"


class SmtLeaf:
    """One SMT leaf: an address and its appearance count in the block."""

    __slots__ = ("address", "count")

    def __init__(self, address: str, count: int) -> None:
        if count < 0:
            raise ValueError(f"negative appearance count {count}")
        if address != SMT_SENTINEL and address >= SMT_SENTINEL:
            raise ValueError("address collides with the SMT sentinel space")
        self.address = address
        self.count = count

    @classmethod
    def sentinel(cls) -> "SmtLeaf":
        return cls(SMT_SENTINEL, 0)

    @property
    def is_sentinel(self) -> bool:
        return self.address == SMT_SENTINEL

    def hash(self) -> bytes:
        return tagged_hash(_LEAF_TAG, self.serialize())

    def serialize(self) -> bytes:
        return write_var_bytes(self.address.encode("utf-8")) + write_varint(
            self.count
        )

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "SmtLeaf":
        raw_address = reader.var_bytes()
        try:
            address = raw_address.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"SMT leaf address is not UTF-8: {exc}") from exc
        count = reader.varint()
        leaf = cls.__new__(cls)
        leaf.address = address
        leaf.count = count
        return leaf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmtLeaf):
            return NotImplemented
        return self.address == other.address and self.count == other.count

    def __repr__(self) -> str:
        label = "<sentinel>" if self.is_sentinel else self.address
        return f"SmtLeaf({label}, count={self.count})"


class SmtBranch:
    """Authentication path for one SMT leaf, index included."""

    __slots__ = ("leaf", "leaf_index", "siblings")

    def __init__(
        self, leaf: SmtLeaf, leaf_index: int, siblings: Sequence[bytes]
    ) -> None:
        if leaf_index < 0 or leaf_index >> len(siblings):
            raise ProofError(
                f"leaf index {leaf_index} does not fit in depth {len(siblings)}"
            )
        for sibling in siblings:
            if len(sibling) != HASH_SIZE:
                raise ProofError(f"sibling hash must be {HASH_SIZE} bytes")
        self.leaf = leaf
        self.leaf_index = leaf_index
        self.siblings = list(siblings)

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def compute_root(self) -> bytes:
        node = self.leaf.hash()
        index = self.leaf_index
        for sibling in self.siblings:
            if index & 1:
                node = tagged_hash(_NODE_TAG, sibling, node)
            else:
                node = tagged_hash(_NODE_TAG, node, sibling)
            index >>= 1
        return node

    def verify(self, root: bytes) -> bool:
        return self.compute_root() == root

    def serialize(self) -> bytes:
        parts = [
            self.leaf.serialize(),
            write_varint(self.leaf_index),
            write_varint(len(self.siblings)),
        ]
        parts.extend(self.siblings)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "SmtBranch":
        leaf = SmtLeaf.deserialize(reader)
        leaf_index = reader.varint()
        count = reader.varint()
        if count > 64:
            raise EncodingError(f"implausible SMT branch depth {count}")
        siblings = [reader.bytes(HASH_SIZE) for _ in range(count)]
        return cls(leaf, leaf_index, siblings)

    def size_bytes(self) -> int:
        return len(self.serialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmtBranch):
            return NotImplemented
        return (
            self.leaf == other.leaf
            and self.leaf_index == other.leaf_index
            and self.siblings == other.siblings
        )

    def __repr__(self) -> str:
        return f"SmtBranch(index={self.leaf_index}, leaf={self.leaf!r})"


class SmtInexistenceProof:
    """Predecessor/successor branch pair proving an address is absent.

    Exactly three shapes are valid:

    * both branches — adjacent indices with ``pred.addr < a < succ.addr``;
    * successor only at index 0 — ``a`` sorts before every leaf;
    * predecessor only at the all-ones index — ``a`` sorts after every leaf
      of a sentinel-free (full power-of-two) tree.
    """

    __slots__ = ("predecessor", "successor")

    def __init__(
        self,
        predecessor: Optional[SmtBranch],
        successor: Optional[SmtBranch],
    ) -> None:
        if predecessor is None and successor is None:
            raise ProofError("inexistence proof needs at least one branch")
        self.predecessor = predecessor
        self.successor = successor

    def verify(self, root: bytes, address: str) -> None:
        """Raise :class:`VerificationError` unless the proof is sound."""
        pred, succ = self.predecessor, self.successor
        if pred is not None and not pred.verify(root):
            raise VerificationError("SMT predecessor branch does not match root")
        if succ is not None and not succ.verify(root):
            raise VerificationError("SMT successor branch does not match root")

        if pred is not None and succ is not None:
            if pred.depth != succ.depth:
                raise VerificationError("SMT branch depths disagree")
            if succ.leaf_index != pred.leaf_index + 1:
                raise VerificationError(
                    "SMT predecessor/successor leaves are not adjacent: "
                    f"indices {pred.leaf_index} and {succ.leaf_index}"
                )
            if not pred.leaf.address < address < succ.leaf.address:
                raise VerificationError(
                    f"address {address!r} does not fall strictly between "
                    f"{pred.leaf.address!r} and {succ.leaf.address!r}"
                )
            return

        if succ is not None:  # address sorts before the whole tree
            if succ.leaf_index != 0:
                raise VerificationError(
                    "successor-only proof requires leaf index 0, got "
                    f"{succ.leaf_index}"
                )
            if not address < succ.leaf.address:
                raise VerificationError(
                    f"address {address!r} does not sort before the first leaf"
                )
            return

        # Predecessor-only: the right edge of a sentinel-free full tree.
        assert pred is not None
        last_index = (1 << pred.depth) - 1
        if pred.leaf_index != last_index:
            raise VerificationError(
                "predecessor-only proof requires the last leaf slot "
                f"{last_index}, got {pred.leaf_index}"
            )
        if pred.leaf.is_sentinel:
            raise VerificationError(
                "predecessor-only proof cannot end on a sentinel leaf"
            )
        if not address > pred.leaf.address:
            raise VerificationError(
                f"address {address!r} does not sort after the last leaf"
            )

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        flags = (1 if self.predecessor else 0) | (2 if self.successor else 0)
        parts = [bytes([flags])]
        if self.predecessor is not None:
            parts.append(self.predecessor.serialize())
        if self.successor is not None:
            parts.append(self.successor.serialize())
        return b"".join(parts)

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "SmtInexistenceProof":
        flags = reader.bytes(1)[0]
        if flags not in (1, 2, 3):
            raise EncodingError(f"bad SMT inexistence flags {flags}")
        predecessor = SmtBranch.deserialize(reader) if flags & 1 else None
        successor = SmtBranch.deserialize(reader) if flags & 2 else None
        return cls(predecessor, successor)

    def size_bytes(self) -> int:
        return len(self.serialize())

    def __repr__(self) -> str:
        return (
            f"SmtInexistenceProof(pred={self.predecessor!r}, "
            f"succ={self.successor!r})"
        )


#: Every padding slot hashes to this one digest.
_SENTINEL_HASH = SmtLeaf.sentinel().hash()


class SortedMerkleTree:
    """The per-block SMT: sorted unique (address, count) leaves.

    A full node keeps one of these per block for the life of the chain,
    so the tree is stored packed (DESIGN.md §8): the real addresses as
    one tuple, their counts as one ``array``, and each hash level as one
    ``bytes`` of 32·n.  Sentinel slots are implied by position, and
    :class:`SmtLeaf` / :class:`SmtBranch` objects exist only while a
    proof is being answered.
    """

    __slots__ = ("_addresses", "_counts", "_levels")

    def __init__(self, leaves: Sequence[SmtLeaf]) -> None:
        addresses = [leaf.address for leaf in leaves]
        if SMT_SENTINEL in addresses:
            raise ValueError("sentinel leaves are added automatically")
        if sorted(set(addresses)) != addresses:
            raise ValueError("SMT leaves must be strictly sorted and unique")
        slots = 1
        while slots < len(leaves):
            slots <<= 1
        level = b"".join([leaf.hash() for leaf in leaves]) + _SENTINEL_HASH * (
            slots - len(leaves)
        )
        levels = [level]
        pair = 2 * HASH_SIZE
        while len(level) > HASH_SIZE:
            level = b"".join(
                [
                    tagged_hash(_NODE_TAG, level[i : i + pair])
                    for i in range(0, len(level), pair)
                ]
            )
            levels.append(level)
        self._addresses = tuple(addresses)
        self._counts = array("Q", [leaf.count for leaf in leaves])
        self._levels = tuple(levels)

    @classmethod
    def from_counts(cls, counts: "dict[str, int]") -> "SortedMerkleTree":
        """Build from an address → appearance-count mapping."""
        leaves = [
            SmtLeaf(address, count) for address, count in sorted(counts.items())
        ]
        return cls(leaves)

    # -- inspection --------------------------------------------------------

    @property
    def root(self) -> bytes:
        return self._levels[-1]

    @property
    def num_leaves(self) -> int:
        """Total leaf slots, sentinels included (a power of two)."""
        return len(self._levels[0]) // HASH_SIZE

    @property
    def num_real_leaves(self) -> int:
        return len(self._addresses)

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def leaf(self, index: int) -> SmtLeaf:
        if not 0 <= index < self.num_leaves:
            raise IndexError(f"leaf index {index} out of range")
        if index >= len(self._addresses):
            return SmtLeaf.sentinel()
        return SmtLeaf(self._addresses[index], self._counts[index])

    def count_of(self, address: str) -> int:
        """Appearance count of ``address`` (0 when absent)."""
        index = self._find(address)
        return self._counts[index] if index is not None else 0

    def __contains__(self, address: str) -> bool:
        return self._find(address) is not None

    # -- proofs ------------------------------------------------------------

    def branch(self, index: int) -> SmtBranch:
        leaf = self.leaf(index)
        siblings: List[bytes] = []
        position = index
        for level in self._levels[:-1]:
            offset = (position ^ 1) * HASH_SIZE
            siblings.append(level[offset : offset + HASH_SIZE])
            position >>= 1
        return SmtBranch(leaf, index, siblings)

    def prove_existence(self, address: str) -> SmtBranch:
        index = self._find(address)
        if index is None:
            raise ProofError(f"address {address!r} is not in this SMT")
        return self.branch(index)

    def prove_inexistence(self, address: str) -> SmtInexistenceProof:
        if self._find(address) is not None:
            raise ProofError(
                f"address {address!r} exists; use prove_existence instead"
            )
        # Sentinels sort after every address, so the insertion point
        # among the real leaves is the insertion point among all slots.
        insertion = bisect.bisect_left(self._addresses, address)
        if insertion == 0:
            return SmtInexistenceProof(None, self.branch(0))
        if insertion == self.num_leaves:
            return SmtInexistenceProof(self.branch(self.num_leaves - 1), None)
        return SmtInexistenceProof(
            self.branch(insertion - 1), self.branch(insertion)
        )

    def __repr__(self) -> str:
        return (
            f"SortedMerkleTree(real={self.num_real_leaves}, "
            f"slots={self.num_leaves})"
        )

    # -- internals ---------------------------------------------------------

    def _find(self, address: str) -> Optional[int]:
        index = bisect.bisect_left(self._addresses, address)
        if index < len(self._addresses) and self._addresses[index] == address:
            return index
        return None


def appearance_counts(
    transactions: Sequence[Tuple[bytes, Sequence[str]]]
) -> "dict[str, int]":
    """Count, per address, the number of *distinct transactions* touching it.

    ``transactions`` is a sequence of ``(txid, addresses)`` pairs.  An
    address occurring several times inside one transaction (say, as both
    sender and change receiver) counts once — the SMT commits to "how many
    transactions must the existence proof exhibit", and proofs are
    per-transaction Merkle branches.
    """
    counts: "dict[str, int]" = {}
    for _txid, addresses in transactions:
        for address in set(addresses):
            counts[address] = counts.get(address, 0) + 1
    return counts
