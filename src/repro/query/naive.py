"""The pre-fast-path reference prover (the tests' oracle).

This module preserves, verbatim, the original O(chain) proof-generation
algorithms that :mod:`repro.query.prover` used before the query-serving
fast path landed:

* BMT segments are traversed **twice** — once by ``find_endpoints`` to
  discover failed leaves, once by ``multiproof`` to build the shipped
  proof;
* checked-bit positions are re-derived from SHA-256 at every use site;
* every failed filter check is resolved by linearly scanning **all**
  transactions of the block with :meth:`Transaction.involves`;
* nothing is memoized across queries.

It exists so the fast path has a trustworthy yardstick: the equivalence
tests (``tests/query/test_fastpath.py``) assert that
:func:`answer_query_naive` and :func:`repro.query.prover.answer_query`
produce **byte-identical** serialized results on every system kind.  Do
not "optimize" this module — being the unoptimized original is its
purpose.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.chain.address import address_item
from repro.chain.block import Block
from repro.chain.segments import covering_spans
from repro.errors import QueryError
from repro.merkle.bmt import EndpointKind
from repro.query.batch import BatchQueryResult
from repro.query.builder import BuiltSystem
from repro.query.config import SystemKind
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    PerBlockAnswer,
    SegmentProof,
    TxWithBranch,
)
from repro.query.result import QueryResult


def answer_query_naive(
    system: BuiltSystem,
    address: str,
    first_height: int = 1,
    last_height: "int | None" = None,
) -> QueryResult:
    """The original, index-free honest answer for ``address``."""
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
        return _answer_with_segments_naive(
            system, address, first_height, last_height
        )
    return _answer_per_block_naive(system, address, first_height, last_height)


def _answer_with_segments_naive(
    system: BuiltSystem, address: str, first: int, last: int
) -> QueryResult:
    config = system.config
    assert config.segment_len is not None and system.forest is not None
    item = address_item(address)
    segments: List[SegmentProof] = []
    for anchor, start, end in covering_spans(system.tip_height, config.segment_len):
        if end < first or start > last:
            continue  # segment entirely outside the queried range
        clipped = (max(start, first), min(end, last))
        tree = system.forest.tree(start, end)
        multiproof = tree.multiproof(item, query_range=clipped)
        resolutions: Dict[int, object] = {}
        for endpoint in tree.find_endpoints(item):
            if endpoint.kind is EndpointKind.LEAF_FAILED:
                height = endpoint.node.start
                if clipped[0] <= height <= clipped[1]:
                    resolutions[height] = _resolve_block_naive(
                        system, height, address
                    )
        segments.append(SegmentProof(anchor, start, end, multiproof, resolutions))
    return QueryResult(
        config.kind,
        address,
        system.tip_height,
        segments=segments,
        first_height=first,
        last_height=last,
    )


def _answer_per_block_naive(
    system: BuiltSystem, address: str, first: int, last: int
) -> QueryResult:
    config = system.config
    item = address_item(address)
    answers: List[PerBlockAnswer] = []
    for height in range(first, last + 1):
        bf = system.filters[height]
        shipped = bf if config.ships_block_filters else None
        if not bf.might_contain(item):
            answers.append(PerBlockAnswer(shipped, None))  # Eq 4: ∅
            continue
        answers.append(
            PerBlockAnswer(shipped, _resolve_block_naive(system, height, address))
        )
    return QueryResult(
        config.kind,
        address,
        system.tip_height,
        blocks=answers,
        first_height=first,
        last_height=last,
    )


def _resolve_block_naive(system: BuiltSystem, height: int, address: str):
    """Original block-level evidence: whole-block scans, no caching."""
    config = system.config
    block = system.chain.block_at(height)

    if not config.uses_smt:
        if config.kind is SystemKind.LVQ_NO_SMT:
            return IntegralBlockResolution(block.body_bytes())
        entries = _existence_entries_naive(system, block, address)
        if entries:
            return ExistenceResolution(None, entries)
        return IntegralBlockResolution(block.body_bytes())

    smt = system.smts[height]
    assert smt is not None
    if address in smt:
        entries = _existence_entries_naive(system, block, address)
        return ExistenceResolution(smt.prove_existence(address), entries)
    return FpmResolution(smt.prove_inexistence(address))


def _existence_entries_naive(
    system: BuiltSystem, block: Block, address: str
) -> List[TxWithBranch]:
    """The O(block) scan the inverted address index replaces."""
    merkle_tree = system.merkle_trees[block.height]
    return [
        TxWithBranch(transaction, merkle_tree.branch(index))
        for index, transaction in enumerate(block.transactions)
        if transaction.involves(address)
    ]


def answer_batch_query_naive(
    system: BuiltSystem,
    addresses: Sequence[str],
    first_height: int = 1,
    last_height: "int | None" = None,
) -> BatchQueryResult:
    """The original shared answer for several addresses."""
    if not addresses:
        raise QueryError("batch query needs at least one address")
    if last_height is None:
        last_height = system.tip_height
    config = system.config

    if config.uses_bmt:
        per_address_segments = []
        for address in addresses:
            result = answer_query_naive(
                system, address, first_height, last_height
            )
            assert result.segments is not None
            per_address_segments.append(result.segments)
        return BatchQueryResult(
            config.kind,
            list(addresses),
            system.tip_height,
            first_height,
            last_height,
            per_address_segments=per_address_segments,
        )

    if not 1 <= first_height <= last_height <= system.tip_height:
        raise QueryError(
            f"bad query range [{first_height},{last_height}] for tip "
            f"{system.tip_height}"
        )
    shared_filters = [
        system.filters[height]
        for height in range(first_height, last_height + 1)
    ]
    per_address_answers: List[List[object]] = []
    for address in addresses:
        item = address_item(address)
        answers: List[object] = []
        for offset, bf in enumerate(shared_filters):
            height = first_height + offset
            if not bf.might_contain(item):
                answers.append(None)
            else:
                answers.append(_resolve_block_naive(system, height, address))
        per_address_answers.append(answers)
    return BatchQueryResult(
        config.kind,
        list(addresses),
        system.tip_height,
        first_height,
        last_height,
        shared_filters=shared_filters if config.ships_block_filters else [],
        per_address_answers=per_address_answers,
    )
