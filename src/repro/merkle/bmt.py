"""Bloom-filter-integrated Merkle Tree (paper §III-B2, §IV-B1, Fig 3-5, 11).

A BMT node carries both a hash and a Bloom filter:

* ``node.bf = left.bf | right.bf``                       (Eq 3)
* ``node.hash = H(left.hash, right.hash, node.bf)``      (Eq 2, layer > 0)
* ``leaf.hash = H(leaf.bf)``                             (Eq 2, layer = 0)

Binding the BF into the hash is what makes BMT branches unforgeable
(§VI): a tampered filter changes every ancestor hash.

Each leaf is the address filter of one block; a tree over ``2^d``
consecutive blocks lets a single *successful check* (some checked bit
position is 0) prove an address absent from all ``2^d`` blocks at once.
Checking descends from the root and stops at **endpoint nodes**: either a
node whose check succeeds (a ``CLEAN`` endpoint — inexistence proven for
its whole subtree) or a leaf whose check fails (``LEAF_FAILED`` — the
address is either really in that block or a false positive; block-level
SMT evidence resolves which).

A built node holds its filter as the bytes a proof ships (``raw``),
made once when the node is built: the OR of Eq 3 runs on ``int`` images
at build time only, and a descent tests the item's ``(byte, bit)``
pairs straight on those bytes.

Queries ship :class:`BmtMultiProof`, the merged proof of Fig 11.
Because a failed check always explores *both* children, the union of
all endpoint paths is a full frontier of the tree, so the merged proof
is simply a recursive partial-tree encoding in which every interior
``(hash, bf)`` is recomputed by the verifier and only endpoint filters
ship.  The proof object *is* that encoding: the prover joins its nodes'
``raw`` bytes, and the verifier replays the wire bytes directly, never
building a filter object per node.

A verifier memo (``nodes`` of :class:`repro.query.memo.VerifierMemo`)
lets a verifier skip hash work an earlier replay already did at the same
dyadic position, on exactly the same inputs.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bloom.bitarray import BitArray
from repro.bloom.filter import BloomFilter, bloom_positions
from repro.crypto.encoding import ByteReader
from repro.crypto.hashing import HASH_SIZE, tagged_hash
from repro.errors import EncodingError, VerificationError

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo

_LEAF_TAG = "bmt/leaf"
_NODE_TAG = "bmt/node"

# Multiproof node tags (serialized as single bytes).
_TAG_INTERNAL = 0
_TAG_CLEAN_LEAF = 1
_TAG_CLEAN_INTERNAL = 2
_TAG_FAILED_LEAF = 3
# Range-query stubs: subtrees entirely outside the queried height range
# contribute only the material needed to recompute ancestors (§V extension
# "a query of larger range can be performed similarly" — and of *smaller*
# range, symmetrically).  A leaf stub is just its filter (its hash is
# H(bf)); an internal stub is its hash plus its filter.
_TAG_STUB_LEAF = 4
_TAG_STUB_INTERNAL = 5
#: Hashes each non-internal tag carries before its filter.
_TAG_HASHES = {
    _TAG_CLEAN_LEAF: 0,
    _TAG_CLEAN_INTERNAL: 2,
    _TAG_FAILED_LEAF: 0,
    _TAG_STUB_LEAF: 0,
    _TAG_STUB_INTERNAL: 1,
}
_TAG_BYTES = [bytes([tag]) for tag in range(6)]
#: Deepest nesting a decoded multiproof may have (a 2^64-block tree).
_MAX_NESTING = 64


class EndpointKind(enum.Enum):
    """Why the BMT descent stopped at a node."""

    CLEAN = "clean"  # check succeeded: address absent from the subtree
    LEAF_FAILED = "leaf_failed"  # bottom layer reached with all bits set


def leaf_hash(raw: bytes) -> bytes:
    """Eq 2 at layer 0, over a leaf filter's bytes."""
    return tagged_hash(_LEAF_TAG, raw)


def node_hash(left_hash: bytes, right_hash: bytes, raw: bytes) -> bytes:
    """Eq 2 above layer 0, over the node filter's bytes."""
    return tagged_hash(_NODE_TAG, left_hash, right_hash, raw)


#: Checked-bit positions as ``(byte index, bit mask)`` pairs into a
#: filter's bytes (bit ``i`` is bit ``i % 8`` of byte ``i // 8``).
Probes = Tuple[Tuple[int, int], ...]


def _probes(positions: Sequence[int]) -> Probes:
    return tuple((position >> 3, 1 << (position & 7)) for position in positions)


def _check_fails(raw: bytes, probes: Probes) -> bool:
    """The paper's failed check on a filter's bytes: every checked bit
    position is set."""
    for index, bit in probes:
        if not raw[index] & bit:
            return False
    return True


class BmtNode:
    """One node of a built BMT; leaves know which block height they cover.

    ``raw`` is the node's filter as shipped: the leaf filter's bytes, or
    the bytes of ``left | right`` (Eq 3).
    """

    __slots__ = ("hash", "raw", "layer", "start", "end", "left", "right")

    def __init__(
        self,
        hash_value: bytes,
        raw: bytes,
        layer: int,
        start: int,
        end: int,
        left: "Optional[BmtNode]" = None,
        right: "Optional[BmtNode]" = None,
    ) -> None:
        self.hash = hash_value
        self.raw = raw
        self.layer = layer
        self.start = start  # first covered block height (inclusive)
        self.end = end  # last covered block height (inclusive)
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.layer == 0

    @property
    def num_blocks(self) -> int:
        return self.end - self.start + 1

    def __repr__(self) -> str:
        return f"BmtNode(layer={self.layer}, blocks=[{self.start},{self.end}])"


def _leaf(height: int, bf: BloomFilter) -> BmtNode:
    raw = bf.to_bytes()
    return BmtNode(leaf_hash(raw), raw, 0, height, height)


def _parent(left: BmtNode, right: BmtNode) -> BmtNode:
    """The node over two adjacent siblings: its filter is their OR
    (Eq 3), done on ``int`` images once, here."""
    width = len(left.raw)
    if len(right.raw) != width:
        raise ValueError(
            f"BMT filter width mismatch: {width} vs {len(right.raw)} bytes"
        )
    raw = (
        int.from_bytes(left.raw, "little") | int.from_bytes(right.raw, "little")
    ).to_bytes(width, "little")
    return BmtNode(
        node_hash(left.hash, right.hash, raw),
        raw,
        left.layer + 1,
        left.start,
        right.end,
        left,
        right,
    )


class BmtEndpoint:
    """An endpoint node found by the existence check."""

    __slots__ = ("node", "kind")

    def __init__(self, node: BmtNode, kind: EndpointKind) -> None:
        self.node = node
        self.kind = kind

    def __repr__(self) -> str:
        return f"BmtEndpoint({self.kind.value}, {self.node!r})"


class BmtTree:
    """A built BMT over the Bloom filters of consecutive blocks.

    ``num_hashes`` is the filters' hash count, the one part of their
    geometry the bytes do not carry; the width is ``len(root.raw)``.
    """

    def __init__(self, root: BmtNode, num_hashes: int) -> None:
        self.root = root
        self.num_hashes = num_hashes

    @classmethod
    def build(cls, leaves: Sequence[Tuple[int, BloomFilter]]) -> "BmtTree":
        """Build over ``(height, bf)`` pairs.

        Heights must be consecutive and the count a power of two — the
        merge sets of Algorithm 1 always satisfy both.
        """
        if not leaves:
            raise ValueError("BMT needs at least one leaf")
        count = len(leaves)
        if count & (count - 1):
            raise ValueError(f"BMT leaf count must be a power of two: {count}")
        heights = [height for height, _bf in leaves]
        if heights != list(range(heights[0], heights[0] + count)):
            raise ValueError("BMT leaves must cover consecutive heights")
        num_hashes = leaves[0][1].num_hashes
        if any(bf.num_hashes != num_hashes for _height, bf in leaves):
            raise ValueError("BMT leaves must share one hash count")
        nodes = [_leaf(height, bf) for height, bf in leaves]
        while len(nodes) > 1:
            nodes = [
                _parent(nodes[i], nodes[i + 1]) for i in range(0, len(nodes), 2)
            ]
        return cls(nodes[0], num_hashes)

    # -- inspection --------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return self.root.num_blocks

    @property
    def bf_bytes(self) -> int:
        return len(self.root.raw)

    @property
    def depth(self) -> int:
        return self.root.layer

    @property
    def start(self) -> int:
        return self.root.start

    @property
    def end(self) -> int:
        return self.root.end

    # -- checking ----------------------------------------------------------

    def find_endpoints(
        self, item: bytes, positions: "Optional[List[int]]" = None
    ) -> List[BmtEndpoint]:
        """Top-down existence check; returns endpoints left to right.

        ``positions`` lets the caller supply the item's precomputed
        checked-bit positions for this tree's geometry (derived once per
        query instead of once per tree).
        """
        if positions is None:
            positions = self._positions(item)
        endpoints: List[BmtEndpoint] = []
        self._descend(self.root, _probes(positions), endpoints)
        return endpoints

    def _positions(self, item: bytes) -> List[int]:
        return bloom_positions(item, self.num_hashes, self.bf_bytes * 8)

    @staticmethod
    def _descend(node: BmtNode, probes: Probes, out: List[BmtEndpoint]) -> None:
        if not _check_fails(node.raw, probes):
            out.append(BmtEndpoint(node, EndpointKind.CLEAN))
            return
        if node.is_leaf:
            out.append(BmtEndpoint(node, EndpointKind.LEAF_FAILED))
            return
        assert node.left is not None and node.right is not None
        BmtTree._descend(node.left, probes, out)
        BmtTree._descend(node.right, probes, out)

    # -- proofs ------------------------------------------------------------

    def multiproof(
        self,
        item: bytes,
        query_range: "Optional[Tuple[int, int]]" = None,
        positions: "Optional[List[int]]" = None,
    ) -> "BmtMultiProof":
        """Merged inexistence/endpoint proof (Fig 11) for ``item``: the
        wire encoding of :meth:`frontier`."""
        return BmtMultiProof.encode(
            self.frontier(item, query_range, positions), self.bf_bytes
        )

    def frontier(
        self,
        item: bytes,
        query_range: "Optional[Tuple[int, int]]" = None,
        positions: "Optional[List[int]]" = None,
    ) -> "List[Tuple[int, BmtNode]]":
        """The nodes a multiproof for ``item`` ships, as ``(tag, node)``
        pairs in pre-order (the order they are written on the wire).

        With ``query_range=(first, last)`` the proof is *restricted*:
        subtrees entirely outside that height range ship as ``(hash, bf)``
        stubs, supporting verifiable range queries over a slice of the
        blocks the tree covers.

        ``positions`` optionally supplies precomputed checked-bit
        positions (one derivation per query instead of per tree).

        The pairs reference the tree's own nodes, so a frontier costs one
        tuple per shipped node and copies no filter.
        """
        if positions is None:
            positions = self._positions(item)
        if query_range is None:
            query_range = (self.start, self.end)
        first, last = query_range
        if first > last or first > self.end or last < self.start:
            raise ValueError(
                f"query range [{first},{last}] does not intersect the tree "
                f"range [{self.start},{self.end}]"
            )
        out: "List[Tuple[int, BmtNode]]" = []
        self._collect(self.root, _probes(positions), first, last, out)
        return out

    @staticmethod
    def _collect(
        node: BmtNode,
        probes: Probes,
        first: int,
        last: int,
        out: "List[Tuple[int, BmtNode]]",
    ) -> None:
        if node.end < first or node.start > last:  # fully outside the range
            out.append(
                (_TAG_STUB_LEAF if node.is_leaf else _TAG_STUB_INTERNAL, node)
            )
            return
        if not _check_fails(node.raw, probes):
            out.append(
                (_TAG_CLEAN_LEAF if node.is_leaf else _TAG_CLEAN_INTERNAL, node)
            )
            return
        if node.is_leaf:
            out.append((_TAG_FAILED_LEAF, node))
            return
        assert node.left is not None and node.right is not None
        out.append((_TAG_INTERNAL, node))
        BmtTree._collect(node.left, probes, first, last, out)
        BmtTree._collect(node.right, probes, first, last, out)

    def __repr__(self) -> str:
        return f"BmtTree(blocks=[{self.start},{self.end}], depth={self.depth})"


#: A :class:`SpanImage` keeps its parts and stops in pieces of this many,
#: each small enough for CPython's small-object allocator (512 bytes):
#: flat ones came from the C heap and fragmented it (DESIGN.md §8).
_PIECE = 56
#: Object headers of one piece (tuple and array), and of one memoized
#: image with its key and LRU slot, as ``tracemalloc`` counts them.
_PIECE_OVERHEAD = 120
_ENTRY_OVERHEAD = 512


class SpanImage:
    """An item's whole-span multiproof over the tree at ``root``, built in
    one pre-order pass (``positions`` are the item's checked bits) and
    held as references, that answers any clipped range in O(depth) node
    visits (§V: a narrower range stubs the subtrees outside it).

    Part ``p`` is what :meth:`BmtMultiProof.encode` writes ``p``-th for
    the whole-span frontier: a tag byte, or a hash or filter the forest
    holds.  The subtree of the node whose parts start at ``p`` ends at
    stop ``p``; ``failed`` holds the failed-leaf heights, ascending.
    ``held_bytes`` weighs what a memo holds for the image: a reference
    and a stop per part, the heights and the objects' headers.
    """

    __slots__ = ("root", "parts", "stops", "failed", "held_bytes")

    def __init__(self, root: BmtNode, positions: Sequence[int]) -> None:
        probes = _probes(positions)
        internal = _TAG_BYTES[_TAG_INTERNAL]
        parts: List[bytes] = []
        starts: List[int] = []  # where each node's parts start, pre-order
        failed: List[int] = []
        stack = [root]
        while stack:  # a node without a left child is a leaf
            node = stack.pop()
            starts.append(len(parts))
            if not _check_fails(node.raw, probes):
                if node.left is None:
                    parts += (_TAG_BYTES[_TAG_CLEAN_LEAF], node.raw)
                else:
                    assert node.right is not None
                    hashes = (node.left.hash, node.right.hash)
                    parts += (_TAG_BYTES[_TAG_CLEAN_INTERNAL], *hashes, node.raw)
            elif node.left is None:
                failed.append(node.start)
                parts += (_TAG_BYTES[_TAG_FAILED_LEAF], node.raw)
            else:
                assert node.right is not None
                parts.append(internal)
                stack += (node.right, node.left)
        # An endpoint stops where the next node starts; an internal node
        # where its right child stops, which starts where its left stops.
        stops = [0] * len(parts)
        after = len(parts)
        for at in reversed(starts):
            stops[at] = stops[stops[at + 1]] if parts[at] is internal else after
            after = at
        self.root = root
        cuts = range(0, len(parts), _PIECE)
        self.parts = tuple(tuple(parts[at : at + _PIECE]) for at in cuts)
        code = "H" if len(parts) <= 0xFFFF else "I"
        self.stops = tuple(array(code, stops[at : at + _PIECE]) for at in cuts)
        self.failed = array("I", failed)
        self.held_bytes = _ENTRY_OVERHEAD + _PIECE_OVERHEAD * len(cuts) + (
            (8 + self.stops[0].itemsize) * len(parts) + 4 * len(failed)
        )

    def restrict(self, first: int, last: int) -> "Tuple[bytes, Sequence[int]]":
        """The image of ``multiproof(item, query_range=(first, last))``
        and the failed-leaf heights inside ``[first, last]``."""
        out: List[bytes] = []
        self._restrict(self.root, 0, first, last, out)
        failed = self.failed
        low, high = bisect_left(failed, first), bisect_right(failed, last)
        return b"".join(out), failed[low:high]

    def _restrict(
        self, node: BmtNode, at: int, first: int, last: int, out: List[bytes]
    ) -> None:
        # Only the two boundary paths recurse: a subtree wholly outside
        # the range is a stub, one inside (or an endpoint) a run of parts.
        if node.end < first or node.start > last:
            if node.is_leaf:
                out += (_TAG_BYTES[_TAG_STUB_LEAF], node.raw)
            else:
                out += (_TAG_BYTES[_TAG_STUB_INTERNAL], node.hash, node.raw)
            return
        piece, index = divmod(at, _PIECE)
        if (first <= node.start and node.end <= last) or (
            self.parts[piece][index] is not _TAG_BYTES[_TAG_INTERNAL]
        ):
            stop = self.stops[piece][index]
            while at < stop:  # the run, piece by piece
                piece, index = divmod(at, _PIECE)
                run = self.parts[piece][index : index + stop - at]
                out += run
                at += len(run)
            return
        assert node.left is not None and node.right is not None
        out.append(_TAG_BYTES[_TAG_INTERNAL])
        self._restrict(node.left, at + 1, first, last, out)
        piece, index = divmod(at + 1, _PIECE)
        self._restrict(node.right, self.stops[piece][index], first, last, out)


class VerifiedBmt:
    """Outcome of a successful multiproof verification."""

    __slots__ = ("clean_ranges", "failed_heights", "num_endpoints")

    def __init__(
        self,
        clean_ranges: List[Tuple[int, int]],
        failed_heights: List[int],
        num_endpoints: int,
    ) -> None:
        #: Height ranges proven to not contain the address.
        self.clean_ranges = clean_ranges
        #: Heights whose per-block filter check failed (need SMT evidence).
        self.failed_heights = failed_heights
        self.num_endpoints = num_endpoints


class BmtMultiProof:
    """Merged endpoint proof for one BMT (the form LVQ queries ship).

    The object is its wire image (PROTOCOL.md §4.2): the pre-order node
    encoding :meth:`serialize` returns, plus ``bf_bytes``, the filter
    width it was encoded or decoded with.  Verification replays those
    bytes in one recursive pass and builds no filter object per node.
    """

    __slots__ = ("_raw", "bf_bytes")

    def __init__(self, raw: bytes, bf_bytes: int) -> None:
        """Wrap a structurally valid image — one produced by
        :meth:`encode` or :meth:`deserialize`."""
        self._raw = raw
        self.bf_bytes = bf_bytes

    @classmethod
    def encode(
        cls, frontier: "Sequence[Tuple[int, BmtNode]]", bf_bytes: int
    ) -> "BmtMultiProof":
        """Write a :meth:`BmtTree.frontier` as a multiproof: a join of
        tag bytes, hashes and the nodes' own ``raw`` filter bytes."""
        parts: List[bytes] = []
        for tag, node in frontier:
            parts.append(_TAG_BYTES[tag])
            if tag == _TAG_INTERNAL:
                continue
            if tag == _TAG_CLEAN_INTERNAL:
                assert node.left is not None and node.right is not None
                parts.append(node.left.hash)
                parts.append(node.right.hash)
            elif tag == _TAG_STUB_INTERNAL:
                parts.append(node.hash)
            parts.append(node.raw)
        return cls(b"".join(parts), bf_bytes)

    # -- verification ------------------------------------------------------

    def verify(
        self,
        expected_root: bytes,
        item: bytes,
        start_height: int,
        num_blocks: int,
        size_bits: int,
        num_hashes: int,
        query_range: "Optional[Tuple[int, int]]" = None,
        positions: "Optional[List[int]]" = None,
        memo: "Optional[VerifierMemo]" = None,
    ) -> VerifiedBmt:
        """Check the proof against a trusted ``expected_root``.

        ``positions`` optionally supplies the item's precomputed
        checked-bit positions for ``(num_hashes, size_bits)`` — the
        caller must have derived them for exactly that geometry.
        ``memo`` reuses and records node hashes across proofs, and
        returns the recorded outcome for a proof it accepted before with
        the same bytes, root, geometry, segment, range and item; the
        outcome is the same with or without it.

        Raises :class:`VerificationError` on any inconsistency.  On
        success, the union of ``clean_ranges`` and ``failed_heights``
        covers ``[start_height, start_height + num_blocks)`` exactly — the
        structural guarantee completeness verification builds on.

        Contract: ``start_height`` and ``num_blocks`` must come from the
        verifier's own trusted chain state (the covering-segment
        computation), never from the prover.  Eq 2 hashes do not encode a
        node's layer, so the claimed block count is what anchors endpoint
        ranges; LVQ's light node always derives it from its header count.

        ``query_range=(first, last)`` verifies a *restricted* proof: stub
        nodes are accepted only for subtrees entirely outside that range,
        so on success the clean/failed partition still covers every
        in-range block.  Without it, stub nodes are rejected outright.
        """
        if num_blocks <= 0 or num_blocks & (num_blocks - 1):
            raise VerificationError(
                f"BMT block count must be a power of two: {num_blocks}"
            )
        if query_range is None:
            query_range = (start_height, start_height + num_blocks - 1)
        first, last = query_range
        if first > last:
            raise VerificationError(f"empty query range [{first},{last}]")
        # Every filter in the image has the width it was decoded with.
        if self.bf_bytes * 8 != size_bits:
            raise VerificationError(
                f"BF size {self.bf_bytes * 8} bits differs from the chain "
                f"parameter {size_bits}"
            )
        if memo is not None:
            key = (start_height, num_blocks, first, last, item)
            entry = memo.proofs.get(key)
            if (
                entry is not None
                and entry[0] == self._raw
                and entry[1] == expected_root
                and entry[2] == self.bf_bytes
                and entry[3] == num_hashes
            ):
                return VerifiedBmt(list(entry[4]), list(entry[5]), entry[6])
        if positions is None:
            positions = bloom_positions(item, num_hashes, size_bits)
        result = VerifiedBmt([], [], 0)
        hash_value = _replay(
            self._raw,
            self.bf_bytes,
            BitArray.positions_mask(positions),
            first,
            last,
            result,
            num_blocks.bit_length() - 1,
            start_height,
            memo,
        )
        if hash_value != expected_root:
            raise VerificationError("BMT multiproof root hash mismatch")
        result.num_endpoints = len(result.clean_ranges) + len(
            result.failed_heights
        )
        if memo is not None:
            memo.remember_proof(
                key,
                (
                    self._raw,
                    expected_root,
                    self.bf_bytes,
                    num_hashes,
                    tuple(result.clean_ranges),
                    tuple(result.failed_heights),
                    result.num_endpoints,
                ),
            )
        return result

    # -- inspection --------------------------------------------------------

    def nodes(
        self,
    ) -> "Iterator[Tuple[int, Tuple[bytes, ...], Optional[bytes]]]":
        """``(tag, hashes, filter)`` per node in pre-order (wire order).

        ``hashes`` are the 32-byte hashes the node carries (two child
        hashes for a clean internal endpoint, the subtree hash for an
        internal stub, none otherwise); ``filter`` is ``None`` for an
        internal (descended) node.  Node ``i`` starts at byte
        ``sum(1 + 32·len(hashes) + len(filter))`` over nodes before it.
        """
        data = self._raw
        width = self.bf_bytes
        pos = 0
        while pos < len(data):
            tag = data[pos]
            pos += 1
            if tag == _TAG_INTERNAL:
                yield tag, (), None
                continue
            if tag == _TAG_CLEAN_INTERNAL:
                middle = pos + HASH_SIZE
                hashes = (data[pos:middle], data[middle : middle + HASH_SIZE])
            elif tag == _TAG_STUB_INTERNAL:
                hashes = (data[pos : pos + HASH_SIZE],)
            else:
                hashes = ()
            pos += HASH_SIZE * len(hashes)
            yield tag, hashes, data[pos : pos + width]
            pos += width

    def _count(self, tags: "Tuple[int, ...]") -> int:
        return sum(1 for tag, _hashes, _bf in self.nodes() if tag in tags)

    def num_endpoints(self) -> int:
        return self._count(
            (_TAG_CLEAN_LEAF, _TAG_CLEAN_INTERNAL, _TAG_FAILED_LEAF)
        )

    def num_stubs(self) -> int:
        return self._count((_TAG_STUB_LEAF, _TAG_STUB_INTERNAL))

    def failed_leaf_count(self) -> int:
        return self._count((_TAG_FAILED_LEAF,))

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        return self._raw

    @classmethod
    def deserialize(cls, reader: ByteReader, size_bits: int) -> "BmtMultiProof":
        """Scan one multiproof's structure at the reader and take it as a
        single slice; filters are ``size_bits // 8`` bytes each."""
        bf_bytes = size_bits // 8
        data = reader.buffer
        start = pos = reader.offset
        pending = [0]  # nesting depth of each subtree still to read
        while pending:
            depth = pending.pop()
            if depth > _MAX_NESTING:
                raise EncodingError("BMT multiproof nests implausibly deep")
            if pos >= len(data):
                raise EncodingError(f"BMT multiproof truncated at offset {pos}")
            tag = data[pos]
            pos += 1
            if tag == _TAG_INTERNAL:
                pending.extend((depth + 1, depth + 1))
                continue
            hashes = _TAG_HASHES.get(tag)
            if hashes is None:
                raise EncodingError(f"unknown BMT multiproof tag {tag}")
            pos += HASH_SIZE * hashes + bf_bytes
        return cls(reader.bytes(pos - start), bf_bytes)

    def size_bytes(self) -> int:
        return len(self._raw)


def _replay(
    data: bytes,
    width: int,
    mask: int,
    first: int,
    last: int,
    result: VerifiedBmt,
    depth: int,
    start_height: int,
    memo: "Optional[VerifierMemo]",
) -> bytes:
    """Replay a multiproof image bottom-up; returns the root hash.

    Every shipped filter is hashed as received and read into an ``int``
    once, for the checked-bit test and its parent's OR (Eq 3); every
    recomputed parent is ``left | right`` turned back into bytes once,
    for its Eq-2 hash.  With a ``memo``, a node whose inputs equal its
    position's entry takes the entry's ``int`` and hash instead, and a
    node that computed them records them there.
    """
    clean_ranges = result.clean_ranges
    failed_heights = result.failed_heights
    if memo is not None:
        recall = memo.nodes.get
        remember = memo.remember_node

    def leaf_digest(entry, start: int, bf: bytes, bits: int) -> bytes:
        # Only leaves record entries at layer 0, so a matching entry
        # holds H(bf).
        if entry is not None:
            return entry[0]
        hash_value = tagged_hash(_LEAF_TAG, bf)
        if memo is not None:
            remember((start, 0), (hash_value, bits, bf, None))
        return hash_value

    def node(pos: int, layer: int, start: int) -> Tuple[bytes, int, int]:
        tag = data[pos]
        pos += 1
        if tag == _TAG_INTERNAL:
            if layer == 0:
                raise VerificationError("internal proof node at leaf layer")
            left_hash, left_bits, pos = node(pos, layer - 1, start)
            right_hash, right_bits, pos = node(
                pos, layer - 1, start + (1 << (layer - 1))
            )
            bits = left_bits | right_bits
            if bits & mask != mask:
                raise VerificationError(
                    "descent past a node whose check already succeeds "
                    f"(layer {layer}, start {start}) — proof is not minimal"
                )
            if memo is not None:
                children = left_hash + right_hash
                entry = recall((start, layer))
                if (
                    entry is not None
                    and entry[3] == children
                    and entry[1] == bits
                    and len(entry[2]) == width
                ):
                    return entry[0], bits, pos
            merged = bits.to_bytes(width, "little")
            parent_hash = tagged_hash(_NODE_TAG, left_hash, right_hash, merged)
            if memo is not None:
                remember((start, layer), (parent_hash, bits, merged, children))
            return parent_hash, bits, pos

        hashes = _TAG_HASHES.get(tag)
        if hashes is None:
            raise VerificationError(f"unknown multiproof node tag {tag}")
        bf_start = pos + HASH_SIZE * hashes
        end = bf_start + width
        entry = None
        if memo is not None:
            entry = recall((start, layer))
            # The filter is compared where it lies, without a slice.
            if entry is not None and not (
                len(entry[2]) == width and data.startswith(entry[2], bf_start)
            ):
                entry = None
        if entry is None:
            bf = data[bf_start:end]
            bits = int.from_bytes(bf, "little")
        else:
            bits, bf = entry[1], entry[2]
        span = 1 << layer

        if tag == _TAG_STUB_LEAF or tag == _TAG_STUB_INTERNAL:
            stop = start + span - 1
            if not (stop < first or start > last):
                raise VerificationError(
                    f"stub node covering [{start},{stop}] intrudes into the "
                    f"queried range [{first},{last}]"
                )
            if tag == _TAG_STUB_LEAF:
                if layer != 0:
                    raise VerificationError("leaf stub above layer 0")
                return leaf_digest(entry, start, bf, bits), bits, end
            if layer == 0:
                raise VerificationError("internal stub at leaf layer")
            return data[pos:bf_start], bits, end

        check_failed = bits & mask == mask

        if tag == _TAG_CLEAN_LEAF:
            if layer != 0:
                raise VerificationError("clean-leaf endpoint above layer 0")
            if check_failed:
                raise VerificationError(
                    f"endpoint at height {start} claims a successful check "
                    "but every checked bit position is set"
                )
            clean_ranges.append((start, start))
            return leaf_digest(entry, start, bf, bits), bits, end

        if tag == _TAG_CLEAN_INTERNAL:
            if layer == 0:
                raise VerificationError("internal endpoint at leaf layer")
            if check_failed:
                raise VerificationError(
                    f"endpoint covering [{start},{start + span - 1}] claims "
                    "a successful check but every checked bit position is set"
                )
            clean_ranges.append((start, start + span - 1))
            children = data[pos:bf_start]
            if entry is not None and entry[3] == children:
                return entry[0], bits, end
            endpoint_hash = tagged_hash(_NODE_TAG, children, bf)
            if memo is not None:
                remember((start, layer), (endpoint_hash, bits, bf, children))
            return endpoint_hash, bits, end

        # _TAG_FAILED_LEAF
        if layer != 0:
            raise VerificationError("failed endpoint above layer 0")
        if not first <= start <= last:
            raise VerificationError(
                f"failed endpoint at height {start} lies outside the "
                f"queried range [{first},{last}] — it must be a stub"
            )
        if not check_failed:
            raise VerificationError(
                f"endpoint at height {start} claims a failed check but "
                "some checked bit position is clear"
            )
        failed_heights.append(start)
        return leaf_digest(entry, start, bf, bits), bits, end

    return node(0, depth, start_height)[0]


class BmtForest:
    """Shared-subtree cache over a chain's per-block filters.

    Merge sets produced by Algorithm 1 are aligned dyadic ranges, so the
    BMT of a later block reuses the subtrees of earlier ones verbatim.
    The forest memoizes every ``(start, end)`` node, making the cost of
    indexing a whole segment O(M) tree nodes instead of O(M log M).
    """

    def __init__(self) -> None:
        self._bfs: Dict[int, BloomFilter] = {}
        self._nodes: Dict[Tuple[int, int], BmtNode] = {}
        self._num_hashes: Optional[int] = None

    def add_block(self, height: int, bf: BloomFilter) -> None:
        if height in self._bfs:
            raise ValueError(f"height {height} already registered")
        if self._num_hashes is None:
            self._num_hashes = bf.num_hashes
        elif bf.num_hashes != self._num_hashes:
            raise ValueError("BMT leaves must share one hash count")
        self._bfs[height] = bf

    @property
    def max_height(self) -> int:
        """Highest registered block height (``-1`` when empty)."""
        return max(self._bfs) if self._bfs else -1

    def rollback_to(self, height: int) -> None:
        """Forget every filter above ``height`` and every memoized node
        whose span reaches above it.

        Nodes covering only heights ``<= height`` are untouched, so a
        later re-append over the same prefix rebuilds exactly the merge
        sets that changed — the BMT half of a reorg is O(affected spans),
        not O(chain).
        """
        for stale in [h for h in self._bfs if h > height]:
            del self._bfs[stale]
        for key in [key for key in self._nodes if key[1] > height]:
            del self._nodes[key]

    def node(self, start: int, end: int) -> BmtNode:
        """The BMT node covering heights ``[start, end]`` (dyadic range)."""
        key = (start, end)
        cached = self._nodes.get(key)
        if cached is not None:
            return cached
        count = end - start + 1
        if count <= 0 or count & (count - 1):
            raise ValueError(f"[{start},{end}] is not a power-of-two range")
        if count == 1:
            bf = self._bfs.get(start)
            if bf is None:
                raise ValueError(f"no Bloom filter registered for height {start}")
            built = _leaf(start, bf)
        else:
            mid = start + count // 2
            built = _parent(self.node(start, mid - 1), self.node(mid, end))
        self._nodes[key] = built
        return built

    def tree(self, start: int, end: int) -> BmtTree:
        root = self.node(start, end)
        assert self._num_hashes is not None  # node() found registered filters
        return BmtTree(root, self._num_hashes)
