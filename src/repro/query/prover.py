"""Full-node-side proof generation (§V) — the query-serving fast path.

``answer_query`` builds the complete, honest answer for one address under
the system's config.  The structure mirrors §V exactly:

* BMT systems produce one :class:`SegmentProof` per covering
  (sub-)segment (complete segments first, then the Table-II binary
  decomposition of the last partial segment); each segment carries the
  merged multiproof and a block-level resolution for every failed leaf;
* non-BMT systems walk the chain block by block, shipping the filter
  (when the header holds only its hash) plus the Eq-4 fragment.

Three prover-side optimizations make this the *fast* path (the original
algorithms live on as the oracle in :mod:`repro.query.naive`, and the
equivalence tests pin both to byte-identical output):

1. **Descend once per address and span** — the segment memo holds a
   span's whole-span multiproof (:class:`~repro.merkle.bmt.SpanImage`,
   references to the forest's bytes, failed-leaf heights included), and
   every range over the span is a slice of it (O(depth) node visits);
2. **Position caching** — the item's checked-bit positions are derived
   once per (query, geometry) via :class:`PositionCache` and threaded
   through every tree descent and per-block check;
3. **Inverted address index** — block-level resolutions fetch the
   involved transactions from :class:`repro.query.index.AddressIndex`
   instead of scanning every transaction in the block, and each
   resolved ``(address, height)`` is memoized on the system once, as
   the tag-first wire bytes it ships as (blocks are immutable, so a
   resolution never goes stale; ``BuiltSystem.clear_query_caches``
   drops the memo for cold-cache measurements).  An answer carries a
   fresh :class:`~repro.query.fragments.WireResolution` over those
   bytes, so a warm resolution costs no encode at all; likewise every
   BMT node holds its filter as the bytes a multiproof ships.

Dishonest behaviours for the security tests live in
:mod:`repro.query.adversary`, not here.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bloom.filter import PositionCache
from repro.chain.address import address_item
from repro.chain.block import Block
from repro.chain.segments import covering_spans
from repro.errors import QueryError
from repro.merkle.bmt import BmtMultiProof, SpanImage
from repro.query.builder import BuiltSystem
from repro.query.config import SystemKind
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    PerBlockAnswer,
    SegmentProof,
    TxWithBranch,
    WireResolution,
    _serialize_resolution,
)
from repro.query.result import QueryResult


def answer_query(
    system: BuiltSystem,
    address: str,
    first_height: int = 1,
    last_height: "int | None" = None,
) -> QueryResult:
    """The honest full node's complete answer for ``address``.

    ``first_height``/``last_height`` restrict the query to a height range
    (defaults: the whole chain) — the range-query extension.  On BMT
    systems, segments partially overlapping the range ship restricted
    multiproofs whose out-of-range subtrees are ``(hash, bf)`` stubs.

    The whole answer is produced under the system's read lock, so the
    tip observed here cannot advance mid-proof: concurrent queries run
    in parallel, but ``append_block`` waits until every in-flight
    answer is complete (and vice versa).
    """
    with system.lock.read():
        if system.tip_height < 1:
            raise QueryError("chain has no queryable blocks (only genesis)")
        if last_height is None:
            last_height = system.tip_height
        if not 1 <= first_height <= last_height <= system.tip_height:
            raise QueryError(
                f"bad query range [{first_height},{last_height}] for tip "
                f"{system.tip_height}"
            )
        if system.config.uses_bmt:
            return _answer_with_segments(
                system, address, first_height, last_height
            )
        return _answer_per_block(system, address, first_height, last_height)


# ---------------------------------------------------------------------------
# BMT path (LVQ and LVQ-no-SMT)


def _answer_with_segments(
    system: BuiltSystem, address: str, first: int, last: int
) -> QueryResult:
    config = system.config
    assert config.segment_len is not None and system.forest is not None
    item = address_item(address)
    cache = PositionCache(item)
    segments: List[SegmentProof] = []
    for anchor, start, end in covering_spans(system.tip_height, config.segment_len):
        if end < first or start > last:
            continue  # segment entirely outside the queried range
        # A BMT over a fixed span is immutable once merged, so its
        # whole-span image is memoizable forever, and every range that
        # clips the span is a slice of it (DESIGN.md §8).
        seg_key = (address, anchor, start, end)
        image = system.caches.segments.get(seg_key)
        if image is None:
            image = SpanImage(
                system.forest.node(start, end),
                cache.positions(config.num_hashes, config.bf_bits),
            )
            system.caches.segments[seg_key] = image
        raw, failed = image.restrict(max(start, first), min(end, last))
        multiproof = BmtMultiProof(raw, config.bf_bytes)
        resolutions: Dict[int, WireResolution] = {
            height: _resolve_block(system, height, address)
            for height in failed
        }
        segments.append(SegmentProof(anchor, start, end, multiproof, resolutions))
    return QueryResult(
        config.kind,
        address,
        system.tip_height,
        segments=segments,
        first_height=first,
        last_height=last,
    )


# ---------------------------------------------------------------------------
# per-block path (strawman and LVQ-no-BMT)


def _answer_per_block(
    system: BuiltSystem, address: str, first: int, last: int
) -> QueryResult:
    config = system.config
    item = address_item(address)
    cache = PositionCache(item)
    answers: List[PerBlockAnswer] = []
    for height in range(first, last + 1):
        bf = system.filters[height]
        shipped = bf if config.ships_block_filters else None
        if not cache.check_fails(bf):
            answers.append(PerBlockAnswer(shipped, None))  # Eq 4: ∅
            continue
        answers.append(PerBlockAnswer(shipped, _resolve_block(system, height, address)))
    return QueryResult(
        config.kind,
        address,
        system.tip_height,
        blocks=answers,
        first_height=first,
        last_height=last,
    )


# ---------------------------------------------------------------------------
# block-level resolutions


def _resolve_block(
    system: BuiltSystem, height: int, address: str
) -> WireResolution:
    """Evidence for a block whose filter check failed for ``address``.

    Resolutions are memoized per ``(address, height)`` as their tag-first
    wire bytes: blocks are immutable once appended, so the evidence for
    a block never changes.  Repeat queries for hot addresses (and
    overlapping range queries) hit the memo instead of re-proving and
    re-encoding.  Every call returns a fresh :class:`WireResolution`
    over immutable bytes, so nothing a caller does to its answer can
    reach the memo (the adversary decodes its own copy to tamper with,
    :func:`repro.query.adversary.materialize`).
    """
    caches = system.caches
    key = (address, height)
    wire = caches.resolution_wire(key)
    if wire is None:
        wire = _serialize_resolution(_build_resolution(system, height, address))
        caches.remember_resolution(key, wire)
    return WireResolution(wire)


def _build_resolution(system: BuiltSystem, height: int, address: str):
    config = system.config
    block = system.chain.block_at(height)

    if not config.uses_smt:
        if config.kind is SystemKind.LVQ_NO_SMT:
            # No per-block count commitment exists, so completeness can
            # only be proven by shipping the whole body (DESIGN.md §5).
            return IntegralBlockResolution(block.body_bytes())
        # Strawman Eq 4: Merkle branches when present, IB on an FPM.  The
        # branches cannot pin the appearance count — Challenge 3's gap.
        entries = _existence_entries(system, block, address)
        if entries:
            return ExistenceResolution(None, entries)
        return IntegralBlockResolution(block.body_bytes())

    smt = system.smts[height]
    assert smt is not None
    if address in smt:
        entries = _existence_entries(system, block, address)
        return ExistenceResolution(smt.prove_existence(address), entries)
    return FpmResolution(smt.prove_inexistence(address))


def _existence_entries(
    system: BuiltSystem, block: Block, address: str
) -> List[TxWithBranch]:
    """``(transaction, Merkle branch)`` pairs for every appearance,
    O(appearances) through the inverted index."""
    merkle_tree = system.merkle_trees[block.height]
    return [
        TxWithBranch(block.transactions[i], merkle_tree.branch(i))
        for i in system.address_index.tx_indices(address, block.height)
    ]
