"""Light-node-side verification (§V, §VI).

``verify_result`` accepts nothing on faith: it holds only the header list
(the light node's storage) and the chain's :class:`SystemConfig`, and it
re-derives every expectation — the covering segments, the checked bit
positions, every Merkle/SMT/BMT root — before accepting a single
transaction into the history.

Error discipline:

* :class:`CorrectnessError` — the result contains data that is not on
  chain (a branch that does not meet its root, a transaction that does
  not involve the address, a filter that does not match its commitment);
* :class:`CompletenessError` — the result omits something it must prove
  (an uncovered block range, a missing resolution, fewer transactions
  than the SMT count, a non-adjacent predecessor/successor pair).

Both derive from :class:`VerificationError` for callers that only care
about accept/reject.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bloom.filter import BloomFilter, PositionCache
from repro.chain.address import address_item
from repro.chain.block import (
    Block,
    BlockHeader,
    BloomExtension,
    BloomHashExtension,
    BloomHashSmtExtension,
    BmtExtension,
    LvqExtension,
)
from repro.chain.segments import covering_spans
from repro.chain.transaction import Transaction
from repro.chain.utxo import balance_from_history
from repro.errors import (
    CompletenessError,
    CorrectnessError,
    VerificationError,
)
from repro.merkle.tree import MerkleTree
from repro.query.config import SystemConfig, SystemKind, bf_commitment
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    WireResolution,
)
from repro.query.memo import VerifierMemo
from repro.query.result import QueryResult


class VerifiedHistory:
    """The accepted outcome of a query: a provably complete history."""

    __slots__ = ("address", "transactions", "num_endpoints")

    def __init__(
        self,
        address: str,
        transactions: List[Tuple[int, Transaction]],
        num_endpoints: Optional[int],
    ) -> None:
        self.address = address
        #: ``(height, transaction)`` pairs, ascending by height.
        self.transactions = transactions
        #: BMT endpoint count (``None`` on non-BMT systems) — Fig 15/16.
        self.num_endpoints = num_endpoints

    def balance(self) -> int:
        """Equation 1 over the verified history."""
        return balance_from_history(
            self.address, (tx for _height, tx in self.transactions)
        )

    def heights(self) -> List[int]:
        return sorted({height for height, _tx in self.transactions})

    def counts_by_height(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for height, _tx in self.transactions:
            counts[height] = counts.get(height, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"VerifiedHistory({self.address[:12]}…, "
            f"txs={len(self.transactions)}, blocks={len(self.heights())})"
        )


def verify_result(
    result: QueryResult,
    headers: Sequence[BlockHeader],
    config: SystemConfig,
    expected_address: Optional[str] = None,
    expected_range: "Optional[Tuple[int, int]]" = None,
    memo: "Optional[VerifierMemo]" = None,
) -> VerifiedHistory:
    """Verify ``result`` against trusted ``headers``; raise on any flaw.

    ``expected_range`` pins the height range the caller asked for; when
    given, a result answering a different slice is rejected before any
    proof is examined (so a prover cannot silently narrow the question).
    ``memo`` carries BMT hash work and accepted resolutions across calls
    (a light node passes its own); it never changes the outcome.
    """
    if result.kind is not config.kind:
        raise VerificationError(
            f"result claims system {result.kind.value}, chain runs "
            f"{config.kind.value}"
        )
    if expected_address is not None and result.address != expected_address:
        raise VerificationError(
            f"result answers {result.address!r}, asked about "
            f"{expected_address!r}"
        )
    tip_height = len(headers) - 1
    if tip_height < 1:
        raise VerificationError("need at least one block beyond genesis")
    if result.tip_height != tip_height:
        raise CompletenessError(
            f"result covers up to height {result.tip_height}, local chain "
            f"tip is {tip_height}"
        )
    if expected_range is not None:
        if (result.first_height, result.last_height) != expected_range:
            raise CompletenessError(
                f"asked about heights {expected_range}, result answers "
                f"[{result.first_height},{result.last_height}]"
            )
    if not 1 <= result.first_height <= result.last_height <= tip_height:
        raise VerificationError(
            f"result range [{result.first_height},{result.last_height}] "
            f"is not a valid slice of heights 1..{tip_height}"
        )
    if config.uses_bmt:
        return _verify_segments(result, headers, config, memo)
    return _verify_per_block(result, headers, config)


# ---------------------------------------------------------------------------
# BMT systems


def _verify_segments(
    result: QueryResult,
    headers: Sequence[BlockHeader],
    config: SystemConfig,
    memo: "Optional[VerifierMemo]",
) -> VerifiedHistory:
    assert config.segment_len is not None and result.segments is not None
    item = address_item(result.address)
    cache = PositionCache(item)
    first, last = result.first_height, result.last_height
    expected = [
        span
        for span in covering_spans(len(headers) - 1, config.segment_len)
        if not (span[2] < first or span[1] > last)
    ]
    actual = [(seg.anchor, seg.start, seg.end) for seg in result.segments]
    if actual != expected:
        raise CompletenessError(
            f"segment coverage mismatch: expected {expected}, got {actual}"
        )

    transactions: List[Tuple[int, Transaction]] = []
    num_endpoints = 0
    for segment in result.segments:
        bmt_root = _bmt_root_of(headers[segment.anchor], segment.anchor)
        clipped = (max(segment.start, first), min(segment.end, last))
        try:
            verified = segment.multiproof.verify(
                bmt_root,
                item,
                segment.start,
                segment.num_blocks,
                config.bf_bits,
                config.num_hashes,
                query_range=clipped,
                positions=cache.positions(config.num_hashes, config.bf_bits),
                memo=memo,
            )
        except VerificationError as exc:
            raise CorrectnessError(
                f"segment [{segment.start},{segment.end}]: {exc}"
            ) from exc
        num_endpoints += verified.num_endpoints

        failed = sorted(verified.failed_heights)
        supplied = sorted(segment.resolutions)
        if failed != supplied:
            raise CompletenessError(
                f"segment [{segment.start},{segment.end}]: filter checks "
                f"failed at heights {failed} but resolutions cover {supplied}"
            )
        for height in failed:
            transactions.extend(
                _resolve(
                    segment.resolutions[height],
                    height,
                    headers[height],
                    config,
                    result.address,
                    memo,
                )
            )
    transactions.sort(key=lambda pair: pair[0])
    return VerifiedHistory(result.address, transactions, num_endpoints)


def _resolve(
    resolution,
    height: int,
    header: BlockHeader,
    config: SystemConfig,
    address: str,
    memo: "Optional[VerifierMemo]",
) -> "Sequence[Tuple[int, Transaction]]":
    """:func:`_verify_resolution`, or what ``memo`` accepted before for
    exactly these wire bytes at this height, for this address, under
    these header roots.  Only acceptances are remembered."""
    if memo is None or not isinstance(resolution, WireResolution):
        return _verify_resolution(resolution, height, header, config, address)
    key = (height, address)
    roots = _roots_of(header)
    entry = memo.resolutions.get(key)
    if entry is not None and entry[0] == resolution.wire and entry[1] == roots:
        return entry[2]
    accepted = _verify_resolution(resolution, height, header, config, address)
    memo.remember_resolution(key, (resolution.wire, roots, tuple(accepted)))
    return accepted


# ---------------------------------------------------------------------------
# per-block systems


def _verify_per_block(
    result: QueryResult, headers: Sequence[BlockHeader], config: SystemConfig
) -> VerifiedHistory:
    assert result.blocks is not None
    first, last, blocks = result.first_height, result.last_height, result.blocks
    shipped = [answer.bf for answer in blocks]
    filters = _authenticated_filters(shipped, first, last, headers, config)
    resolutions = [answer.resolution for answer in blocks]
    return _verify_blocks(
        result.address, first, last, filters, resolutions, headers, config
    )


def _per_block(items: Sequence, first: int, last: int):
    """``(height, item)`` for heights ``first..last``; one item each."""
    if len(items) != last - first + 1:
        raise CompletenessError(
            f"expected one answer per block (heights {first}..{last}), "
            f"got {len(items)}"
        )
    return zip(range(first, last + 1), items)


def _authenticated_filters(
    shipped: Sequence,
    first: int,
    last: int,
    headers: Sequence[BlockHeader],
    config: SystemConfig,
) -> List[BloomFilter]:
    """The filters of heights ``first..last``, each authenticated
    against its header; ``shipped`` holds what the answer ships for each
    height (``None`` where it ships no filter).  A batch calls this once
    for all its addresses."""
    return [
        _authenticated_filter(bf, headers[height], config, height)
        for height, bf in _per_block(shipped, first, last)
    ]


def _verify_blocks(
    address: str,
    first: int,
    last: int,
    filters: Sequence[BloomFilter],
    resolutions: Sequence,
    headers: Sequence[BlockHeader],
    config: SystemConfig,
) -> VerifiedHistory:
    """Eq 4 for one address over authenticated ``filters``: evidence
    exactly where the filter check fails, and each piece verified."""
    cache = PositionCache(address_item(address))
    transactions: List[Tuple[int, Transaction]] = []
    for (height, resolution), bf in zip(
        _per_block(resolutions, first, last), filters
    ):
        if not cache.check_fails(bf):
            if resolution is not None:
                raise VerificationError(
                    f"height {height}: filter check succeeds, yet the "
                    "answer carries block-level evidence"
                )
            continue
        if resolution is None:
            raise CompletenessError(
                f"height {height}: filter check failed but the full node "
                "supplied no evidence"
            )
        transactions.extend(
            _verify_resolution(
                resolution, height, headers[height], config, address
            )
        )
    transactions.sort(key=lambda pair: pair[0])
    return VerifiedHistory(address, transactions, None)


def _authenticated_filter(shipped, header, config: SystemConfig, height: int):
    """The per-block filter, authenticated against the header."""
    if config.kind is SystemKind.STRAWMAN_HEADER_BF:
        if shipped is not None:
            raise VerificationError(
                f"height {height}: the filter lives in the header; the "
                "answer must not ship one"
            )
        extension = header.extension
        if not isinstance(extension, BloomExtension):
            raise VerificationError(
                f"height {height}: header lacks the strawman BF extension"
            )
        bloom = extension.bloom
        if bloom.size_bits != config.bf_bits:
            raise VerificationError(
                f"height {height}: header filter has {bloom.size_bits} bits, "
                f"config says {config.bf_bits}"
            )
        # Headers store raw bits; the hash count is a chain parameter.
        bloom.num_hashes = config.num_hashes
        return bloom

    if shipped is None:
        raise CompletenessError(
            f"height {height}: this system requires the filter in the answer"
        )
    extension = header.extension
    if isinstance(extension, BloomHashExtension):
        committed = extension.bloom_hash
    elif isinstance(extension, BloomHashSmtExtension):
        committed = extension.bloom_hash
    else:
        raise VerificationError(
            f"height {height}: header carries no filter commitment"
        )
    if bf_commitment(shipped) != committed:
        raise CorrectnessError(
            f"height {height}: shipped filter does not match the header "
            "commitment"
        )
    return shipped


# ---------------------------------------------------------------------------
# block-level resolutions


def _verify_resolution(
    resolution,
    height: int,
    header: BlockHeader,
    config: SystemConfig,
    address: str,
) -> List[Tuple[int, Transaction]]:
    if isinstance(resolution, WireResolution):
        resolution = resolution.decoded()
    if isinstance(resolution, ExistenceResolution):
        return _verify_existence(resolution, height, header, config, address)
    if isinstance(resolution, FpmResolution):
        _verify_fpm(resolution, height, header, config, address)
        return []
    if isinstance(resolution, IntegralBlockResolution):
        return _verify_integral(resolution, height, header, config, address)
    raise VerificationError(
        f"height {height}: unknown resolution {type(resolution).__name__}"
    )


def _smt_root_of(header: BlockHeader, height: int) -> bytes:
    extension = header.extension
    if isinstance(extension, LvqExtension):
        return extension.smt_root
    if isinstance(extension, BloomHashSmtExtension):
        return extension.smt_root
    raise VerificationError(f"height {height}: header commits to no SMT")


def _roots_of(header: BlockHeader) -> "Tuple[bytes, Optional[bytes]]":
    """Everything of ``header`` that :func:`_verify_resolution` reads."""
    extension = header.extension
    if isinstance(extension, (LvqExtension, BloomHashSmtExtension)):
        return header.merkle_root, extension.smt_root
    return header.merkle_root, None


def _bmt_root_of(header: BlockHeader, height: int) -> bytes:
    extension = header.extension
    if isinstance(extension, LvqExtension):
        return extension.bmt_root
    if isinstance(extension, BmtExtension):
        return extension.bmt_root
    raise VerificationError(f"height {height}: header commits to no BMT")


def _verify_existence(
    resolution: ExistenceResolution,
    height: int,
    header: BlockHeader,
    config: SystemConfig,
    address: str,
) -> List[Tuple[int, Transaction]]:
    if config.kind is SystemKind.LVQ_NO_SMT:
        raise CompletenessError(
            f"height {height}: without an SMT, Merkle branches cannot prove "
            "completeness; an integral block is required"
        )
    if config.uses_smt:
        branch = resolution.smt_branch
        if branch is None:
            raise CompletenessError(
                f"height {height}: existence evidence lacks the SMT count "
                "branch"
            )
        if not branch.verify(_smt_root_of(header, height)):
            raise CorrectnessError(
                f"height {height}: SMT branch does not match the header root"
            )
        if branch.leaf.address != address:
            raise CorrectnessError(
                f"height {height}: SMT branch authenticates "
                f"{branch.leaf.address!r}, not {address!r}"
            )
        if branch.leaf.count != len(resolution.entries):
            raise CompletenessError(
                f"height {height}: SMT commits to {branch.leaf.count} "
                f"transactions, answer exhibits {len(resolution.entries)}"
            )
    elif resolution.smt_branch is not None:
        raise VerificationError(
            f"height {height}: this system has no SMT, yet the answer "
            "carries an SMT branch"
        )

    seen_indices = set()
    accepted = []
    for entry in resolution.entries:
        if entry.branch.leaf_index in seen_indices:
            raise CorrectnessError(
                f"height {height}: duplicate Merkle leaf "
                f"{entry.branch.leaf_index} in existence evidence"
            )
        seen_indices.add(entry.branch.leaf_index)
        if entry.branch.leaf_hash != entry.transaction.txid():
            raise CorrectnessError(
                f"height {height}: Merkle branch leaf does not hash the "
                "supplied transaction"
            )
        if not entry.branch.verify(header.merkle_root):
            raise CorrectnessError(
                f"height {height}: Merkle branch does not match the header "
                "root"
            )
        if not entry.transaction.involves(address):
            raise CorrectnessError(
                f"height {height}: supplied transaction does not involve "
                f"{address!r}"
            )
        accepted.append((height, entry.transaction))
    return accepted


def _verify_fpm(
    resolution: FpmResolution,
    height: int,
    header: BlockHeader,
    config: SystemConfig,
    address: str,
) -> None:
    if not config.uses_smt:
        raise VerificationError(
            f"height {height}: this system has no SMT to refute false "
            "positives with"
        )
    try:
        resolution.proof.verify(_smt_root_of(header, height), address)
    except VerificationError as exc:
        raise CompletenessError(f"height {height}: {exc}") from exc


def _verify_integral(
    resolution: IntegralBlockResolution,
    height: int,
    header: BlockHeader,
    config: SystemConfig,
    address: str,
) -> List[Tuple[int, Transaction]]:
    if config.uses_smt:
        raise VerificationError(
            f"height {height}: SMT systems never fall back to integral "
            "blocks"
        )
    transactions = Block.body_from_bytes(resolution.body)
    rebuilt = MerkleTree([tx.txid() for tx in transactions])
    if rebuilt.root != header.merkle_root:
        raise CorrectnessError(
            f"height {height}: integral block does not match the header "
            "Merkle root"
        )
    return [
        (height, transaction)
        for transaction in transactions
        if transaction.involves(address)
    ]
