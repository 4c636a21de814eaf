"""Chain assembly: wrap workload bodies in system-specific headers + indexes.

``build_system`` is the one place that constructs header commitments, so
the prover and the chain can never drift apart: the BFs, SMTs, MTs and the
BMT forest stored in :class:`BuiltSystem` are exactly the objects whose
roots the headers commit to.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.bloom.filter import BloomFilter
from repro.chain.address import address_item
from repro.chain.block import (
    Block,
    BlockHeader,
    BloomExtension,
    BloomHashExtension,
    BloomHashSmtExtension,
    BmtExtension,
    HeaderExtension,
    LvqExtension,
)
from repro.chain.blockchain import Blockchain
from repro.chain.segments import merge_span
from repro.chain.transaction import Transaction
from repro.crypto.hashing import HASH_SIZE
from repro.errors import ChainError, QueryError
from repro.merkle.bmt import BmtForest, BmtTree
from repro.merkle.sorted_tree import SortedMerkleTree
from repro.merkle.tree import MerkleTree
from repro.query.cache import QueryCaches, RWLock
from repro.query.config import SystemConfig, SystemKind, bf_commitment
from repro.query.index import AddressIndex


class BuiltSystem:
    """A chain plus the full-node-side indexes for one prototype system.

    Concurrency contract (DESIGN.md §8): readers (the query path) hold
    ``lock.read()``; the writers are :meth:`append_block` and the reorg
    pair :meth:`rollback_to` / :meth:`reorg`, all of which hold
    ``lock.write()``.  Everything a query touches — chain, filters,
    SMTs, Merkle trees, forest, inverted index — is immutable below the
    tip between writes, so readers running concurrently with each other
    are always safe; the lock fences them against a half-appended block
    or a half-switched fork.
    """

    __slots__ = (
        "config",
        "chain",
        "filters",
        "smts",
        "merkle_trees",
        "forest",
        "address_index",
        "caches",
        "lock",
        "_append_listeners",
        "_reorg_listeners",
    )

    def __init__(
        self,
        config: SystemConfig,
        chain: Blockchain,
        filters: List[BloomFilter],
        smts: List[Optional[SortedMerkleTree]],
        merkle_trees: List[MerkleTree],
        forest: Optional[BmtForest],
        address_index: AddressIndex,
        caches: Optional[QueryCaches] = None,
    ) -> None:
        self.config = config
        self.chain = chain
        #: Per-height address Bloom filter (index = height).
        self.filters = filters
        #: Per-height SMT (``None`` entries on non-SMT systems).
        self.smts = smts
        #: Per-height transaction Merkle tree.
        self.merkle_trees = merkle_trees
        #: BMT subtree cache (``None`` on non-BMT systems).
        self.forest = forest
        #: Inverted ``address → (height, tx_index)`` postings — how the
        #: prover finds an address's transactions in a block.
        self.address_index = address_index
        #: Bounded, thread-safe memo caches: ``resolutions`` (block
        #: evidence keyed ``(address, height)``) and ``segments``
        #: (whole-span multiproof images keyed ``(address, anchor,
        #: start, end)``).  Both hold append-stable values; see
        #: :mod:`repro.query.cache` for the invalidation rules.
        self.caches = caches if caches is not None else QueryCaches()
        #: Readers/writer lock fencing queries against ``append_block``.
        self.lock = RWLock()
        #: Tip-change callbacks (e.g. per-node response caches); fired
        #: after each append, while the write lock is still held.
        self._append_listeners: "List[Callable[[], None]]" = []
        #: Fork-switch callbacks, fired with the fork height after every
        #: rollback, while the write lock is still held.
        self._reorg_listeners: "List[Callable[[int], None]]" = []

    def clear_query_caches(self) -> None:
        """Drop memoized query state (for cold-cache benchmarking)."""
        self.caches.clear()
        for listener in self._append_listeners:
            listener()

    def add_append_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after every appended block.

        Used by serving-side caches whose entries are keyed by tip (the
        response-byte caches on :class:`~repro.node.full_node.FullNode`).
        """
        self._append_listeners.append(listener)

    def add_reorg_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired with the fork height after every
        rollback (and therefore at the start of every reorg).

        Append listeners only understand chain *growth*; anything keyed
        by tip height would silently alias across forks of equal length,
        so serving-side caches must register here too and drop their
        state when the chain shrinks.
        """
        self._reorg_listeners.append(listener)

    @property
    def tip_height(self) -> int:
        return self.chain.tip_height

    def headers(self) -> List[BlockHeader]:
        """What the corresponding light node stores."""
        return self.chain.headers()

    def bmt_tree(self, anchor_height: int) -> BmtTree:
        """The BMT committed by the header at ``anchor_height``."""
        if self.forest is None or self.config.segment_len is None:
            raise QueryError(f"{self.config.kind.value} has no BMTs")
        start, end = merge_span(anchor_height, self.config.segment_len)
        return self.forest.tree(start, end)

    def append_block(self, transactions: Sequence[Transaction]) -> None:
        """Extend the chain by one block (the full node's mining path).

        Computes the same per-block indexes and header commitments as
        :func:`build_system`, so a chain grown block-by-block is
        byte-identical to one built in a single pass.  Holds the write
        lock for the whole append, then notifies tip listeners.
        """
        with self.lock.write():
            height = len(self.chain)
            prev_hash = self.chain.header_at(height - 1).block_id()
            block, bf, smt = _assemble_block(
                self.config, height, prev_hash, list(transactions), self.forest
            )
            self.chain.append(block)
            self.filters.append(bf)
            self.smts.append(smt)
            self.merkle_trees.append(block.merkle_tree())
            self.address_index.add_block(height, block.transactions)
            for listener in self._append_listeners:
                listener()

    def rollback_to(self, height: int) -> int:
        """Pop every block above ``height`` (a fork switch's first half).

        Unwinds exactly the per-height state :meth:`append_block` adds —
        chain suffix, filters, SMTs, Merkle trees, forest spans reaching
        past the fork, inverted-index postings — and evicts the memo
        entries :meth:`~repro.query.cache.QueryCaches.on_reorg` marks
        stale, so the surviving state is byte-identical to a fresh
        :func:`build_system` of the truncated chain.  Holds the write
        lock throughout, then notifies reorg listeners (still under the
        lock, so no query can observe a half-switched fork or a stale
        cache entry).  Returns the number of blocks removed.
        """
        with self.lock.write():
            if not 0 <= height <= self.tip_height:
                raise ChainError(
                    f"cannot roll back to height {height}; tip is "
                    f"{self.tip_height}"
                )
            removed = self.tip_height - height
            if removed == 0:
                return 0
            self.chain.truncate(height)
            del self.filters[height + 1 :]
            del self.smts[height + 1 :]
            del self.merkle_trees[height + 1 :]
            if self.forest is not None:
                self.forest.rollback_to(height)
            self.address_index.rollback_to(height)
            self.caches.on_reorg(height)
            for listener in self._reorg_listeners:
                listener(height)
            return removed

    def reorg(
        self,
        fork_height: int,
        new_bodies: Sequence[Sequence[Transaction]],
    ) -> "tuple[int, int]":
        """Switch to a fork: pop blocks above ``fork_height``, then append
        ``new_bodies`` in order.

        One write-lock hold covers the whole switch, so concurrent
        queries see either the old fork or the new one — never a mix —
        and in-flight answers finish against the tip they started under.
        Returns ``(replaced, appended)``.
        """
        with self.lock.write():
            replaced = self.rollback_to(fork_height)
            for transactions in new_bodies:
                self.append_block(transactions)
            return replaced, len(new_bodies)


def _extension_for(
    config: SystemConfig,
    height: int,
    bf: BloomFilter,
    smt: Optional[SortedMerkleTree],
    forest: Optional[BmtForest],
) -> HeaderExtension:
    kind = config.kind
    if kind is SystemKind.STRAWMAN_HEADER_BF:
        return BloomExtension(bf)
    if kind is SystemKind.STRAWMAN:
        return BloomHashExtension(bf_commitment(bf))
    if kind is SystemKind.LVQ_NO_BMT:
        assert smt is not None
        return BloomHashSmtExtension(bf_commitment(bf), smt.root)
    # BMT systems: the genesis block (height 0) is outside the paper's
    # 1-indexed merge scheme; its header commits to a single-leaf tree of
    # its own filter so the extension layout stays uniform.
    assert forest is not None and config.segment_len is not None
    if height == 0:
        bmt_root = BmtTree.build([(0, bf)]).root.hash
    else:
        start, end = merge_span(height, config.segment_len)
        bmt_root = forest.node(start, end).hash
    if kind is SystemKind.LVQ_NO_SMT:
        return BmtExtension(bmt_root)
    assert smt is not None
    return LvqExtension(bmt_root, smt.root)


def _assemble_block(
    config: SystemConfig,
    height: int,
    prev_hash: bytes,
    transactions: List[Transaction],
    forest: Optional[BmtForest],
) -> "tuple[Block, BloomFilter, Optional[SortedMerkleTree]]":
    """Build one block plus its filter and SMT; registers the BF in the
    forest.

    One pass over ``transaction.addresses()`` feeds both the Bloom
    filter (unique addresses) and the SMT (appearance counts).
    """
    merkle_tree = MerkleTree([tx.txid() for tx in transactions])
    counts: "dict[str, int]" = {}
    for transaction in transactions:
        for address in transaction.addresses():
            counts[address] = counts.get(address, 0) + 1
    bf = BloomFilter.from_items(
        (address_item(address) for address in sorted(counts)),
        config.bf_bits,
        config.num_hashes,
    )
    smt = SortedMerkleTree.from_counts(counts) if config.uses_smt else None
    if forest is not None and height >= 1:
        forest.add_block(height, bf)
    header = BlockHeader(
        prev_hash=prev_hash,
        merkle_root=merkle_tree.root,
        timestamp=1_230_000_000 + height * 600,  # ten-minute cadence
        extension=_extension_for(config, height, bf, smt, forest),
    )
    # Hand the freshly built tree to the block so Blockchain.append's
    # Merkle-root validation reuses it instead of re-hashing every txid.
    return Block(header, transactions, height, merkle_tree), bf, smt


def build_system(
    bodies: Sequence[Sequence[Transaction]],
    config: SystemConfig,
    *,
    caches: Optional[QueryCaches] = None,
) -> BuiltSystem:
    """Assemble a chain from workload ``bodies`` under ``config``.

    ``bodies[h]`` is the transaction list of height ``h``; index 0 is the
    genesis block.  Raises :class:`QueryError` on an empty workload.
    """
    if not bodies:
        raise QueryError("cannot build a chain from an empty workload")

    chain = Blockchain()
    filters: List[BloomFilter] = []
    smts: List[Optional[SortedMerkleTree]] = []
    merkle_trees: List[MerkleTree] = []
    forest = BmtForest() if config.uses_bmt else None
    address_index = AddressIndex()

    prev_hash = b"\x00" * HASH_SIZE
    for height, transactions in enumerate(bodies):
        block, bf, smt = _assemble_block(
            config, height, prev_hash, list(transactions), forest
        )
        chain.append(block)
        prev_hash = block.header.block_id()
        filters.append(bf)
        smts.append(smt)
        merkle_trees.append(block.merkle_tree())
        address_index.add_block(height, block.transactions)

    return BuiltSystem(
        config,
        chain,
        filters,
        smts,
        merkle_trees,
        forest,
        address_index,
        caches=caches,
    )
