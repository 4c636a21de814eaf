"""Adversarial full nodes for the security analysis (§VI).

The paper's security claim is that a light node accepts a history only if
it is correct *and* complete.  These wrappers implement the natural
attacks — omit a transaction, forge a count, hide a block range, swap a
filter, truncate the answer — and the test suite asserts that every one
of them makes :func:`repro.query.verifier.verify_result` raise.

Each attack is a function ``QueryResult -> QueryResult`` that mutates
its argument: a copy made by :func:`materialize`, whose resolutions are
objects decoded fresh from the bytes the honest prover shipped (the
prover itself answers with wire bytes, which nothing can tamper with).
:class:`MaliciousFullNode` applies one to every honest answer.  Attacks
silently do nothing when the result has no material to attack (e.g.
omitting a transaction from an empty history) — tests guard against
that with ``attack_applies``.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, TypeVar

from repro.crypto.hashing import HASH_SIZE
from repro.merkle.bmt import BmtMultiProof
from repro.node.full_node import FullNode
from repro.query.builder import BuiltSystem
from repro.query.batch import BatchQueryResult
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    WireResolution,
)
from repro.query.result import QueryResult

Attack = Callable[[QueryResult], QueryResult]

Answer = TypeVar("Answer", QueryResult, BatchQueryResult)


def _decoded(resolution):
    if isinstance(resolution, WireResolution):
        return resolution.decoded()
    return resolution


def materialize(answer: Answer) -> Answer:
    """A deep copy of a result or batch whose every resolution is an
    object decoded fresh from its wire bytes — what a tamper edits.

    Honest answers carry :class:`WireResolution` values over the
    prover's memoized bytes; the copy is taken first, so each object is
    decoded inside it and shares no mutable part with the answer it came
    from: editing it can change neither that answer nor any later one.
    """
    copied = copy.deepcopy(answer)
    answer_lists: "List[list]" = []
    if isinstance(copied, QueryResult):
        segment_lists = [copied.segments or []]
        for block in copied.blocks or []:
            block.resolution = _decoded(block.resolution)
    else:
        segment_lists = copied.per_address_segments or []
        answer_lists = copied.per_address_answers or []
    for segments in segment_lists:
        for segment in segments:
            for height, resolution in segment.resolutions.items():
                segment.resolutions[height] = _decoded(resolution)
    for answers in answer_lists:
        answers[:] = [_decoded(resolution) for resolution in answers]
    return copied


class MaliciousFullNode(FullNode):
    """A full node that applies an attack to every honest answer."""

    def __init__(self, system: BuiltSystem, attack: Attack) -> None:
        super().__init__(system)
        self._attack = attack
        #: Set after each query: did the attack actually change anything?
        self.last_attack_applied: Optional[bool] = None

    def answer(
        self,
        address: str,
        first_height: int = 1,
        last_height: "int | None" = None,
    ) -> QueryResult:
        honest = super().answer(address, first_height, last_height)
        reference = honest.serialize(self.system.config)
        attacked = self._attack(materialize(honest))
        self.last_attack_applied = (
            attacked.serialize(self.system.config) != reference
        )
        return attacked

    def answer_batch(
        self,
        addresses,
        first_height: int = 1,
        last_height: "int | None" = None,
    ):
        """Attack every per-address portion of a batch answer.

        BMT batches carry per-address segment lists, which map directly
        onto the single-query attack surface.  Shared-filter batches have
        no per-address wrapper for most attacks to grab onto, so they are
        served honestly (the single-query path still exercises those
        attacks on such systems).
        """
        honest = super().answer_batch(addresses, first_height, last_height)
        if honest.per_address_segments is None:
            self.last_attack_applied = False
            return honest
        applied = False
        config = self.system.config
        for index, address in enumerate(honest.addresses):
            wrapped = QueryResult(
                config.kind,
                address,
                honest.tip_height,
                segments=honest.per_address_segments[index],
                first_height=honest.first_height,
                last_height=honest.last_height,
            )
            reference = wrapped.serialize(config)
            attacked = self._attack(materialize(wrapped))
            if attacked.serialize(config) != reference:
                applied = True
                if attacked.segments is not None:
                    honest.per_address_segments[index] = attacked.segments
        self.last_attack_applied = applied
        return honest


# ---------------------------------------------------------------------------
# helpers


def _existence_resolutions(result: QueryResult) -> List[ExistenceResolution]:
    found: List[ExistenceResolution] = []
    for resolution in _all_resolutions(result):
        if isinstance(resolution, ExistenceResolution):
            found.append(resolution)
    return found


def _all_resolutions(result: QueryResult):
    if result.segments is not None:
        for segment in result.segments:
            yield from segment.resolutions.values()
    else:
        assert result.blocks is not None
        for answer in result.blocks:
            if answer.resolution is not None:
                yield answer.resolution


# ---------------------------------------------------------------------------
# attacks on completeness


def omit_one_transaction(result: QueryResult) -> QueryResult:
    """Drop one transaction from the first multi-entry existence proof.

    Against SMT systems this leaves the entry count below the committed
    SMT count; the strawman cannot catch it (Challenge 3) and the test
    suite demonstrates exactly that gap.
    """
    for resolution in _existence_resolutions(result):
        if len(resolution.entries) >= 2:
            resolution.entries.pop()
            return result
    return result


def drop_block_resolution(result: QueryResult) -> QueryResult:
    """Pretend a block with activity had none: delete one resolution."""
    if result.segments is not None:
        for segment in result.segments:
            if segment.resolutions:
                height = sorted(segment.resolutions)[0]
                del segment.resolutions[height]
                return result
        return result
    assert result.blocks is not None
    for answer in result.blocks:
        if answer.resolution is not None:
            answer.resolution = None
            return result
    return result


def truncate_blocks(result: QueryResult) -> QueryResult:
    """Answer for a shorter chain than the light node knows about."""
    if result.blocks is not None and len(result.blocks) > 1:
        result.blocks.pop()
    elif result.segments is not None and len(result.segments) > 1:
        result.segments.pop()
    return result


def swap_existence_for_fpm(result: QueryResult) -> QueryResult:
    """Claim an address with on-chain activity is a false positive.

    The forged SMT inexistence proof reuses the *existence* branch's
    neighbours, which cannot be adjacent around a present leaf — the
    verifier must reject the pair.
    """
    if result.segments is None:
        return result
    for segment in result.segments:
        for height, resolution in list(segment.resolutions.items()):
            if isinstance(resolution, ExistenceResolution) and (
                resolution.smt_branch is not None
            ):
                from repro.merkle.sorted_tree import SmtInexistenceProof

                branch = resolution.smt_branch
                forged = SmtInexistenceProof(branch, None)
                segment.resolutions[height] = FpmResolution(forged)
                return result
    return result


# ---------------------------------------------------------------------------
# attacks on correctness


def forge_transaction_value(result: QueryResult) -> QueryResult:
    """Inflate an output value inside a proven transaction."""
    from repro.chain.transaction import Transaction, TxOutput

    for resolution in _existence_resolutions(result):
        entry = resolution.entries[0]
        outputs = [
            TxOutput(out.address, out.value + 1_000_000)
            for out in entry.transaction.outputs
        ]
        entry.transaction = Transaction(
            entry.transaction.inputs, outputs, entry.transaction.version
        )
        return result
    return result


def duplicate_transaction_entry(result: QueryResult) -> QueryResult:
    """Pad an existence proof by repeating one (tx, branch) pair."""
    for resolution in _existence_resolutions(result):
        resolution.entries.append(resolution.entries[0])
        return result
    return result


def _node_offsets(proof: BmtMultiProof):
    """``(offset, tag, hashes, filter)`` per node of ``proof``'s wire image."""
    offset = 0
    for tag, hashes, bf in proof.nodes():
        yield offset, tag, hashes, bf
        offset += 1 + HASH_SIZE * len(hashes) + (len(bf) if bf is not None else 0)


def _rewritten(proof: BmtMultiProof, offset: int, value: int) -> BmtMultiProof:
    """``proof`` with the byte at ``offset`` of its image set to ``value``."""
    raw = bytearray(proof.serialize())
    raw[offset] = value
    return BmtMultiProof(bytes(raw), proof.bf_bytes)


def tamper_bmt_filter(result: QueryResult) -> QueryResult:
    """Clear a bit in a clean BMT endpoint's filter (fake inexistence)."""
    if result.segments is None:
        return result
    for segment in result.segments:
        proof = segment.multiproof
        for offset, _tag, hashes, bf in _node_offsets(proof):
            if bf is None:  # internal
                continue
            for index, byte in enumerate(bf):
                if byte:
                    at = offset + 1 + HASH_SIZE * len(hashes) + index
                    # Clear the lowest set bit.
                    segment.multiproof = _rewritten(proof, at, byte & (byte - 1))
                    return result
    return result


def swap_block_filter(result: QueryResult) -> QueryResult:
    """Ship a different (emptier) filter than the header commits to."""
    from repro.bloom.filter import BloomFilter

    if result.blocks is None:
        return result
    for answer in result.blocks:
        if answer.bf is not None and answer.bf.bits.popcount() > 0:
            answer.bf = BloomFilter(answer.bf.size_bits, answer.bf.num_hashes)
            answer.resolution = None
            return result
    return result


def corrupt_integral_block(result: QueryResult) -> QueryResult:
    """Remove one transaction from an integral-block body."""
    from repro.crypto.encoding import write_varint

    for resolution in _all_resolutions(result):
        if isinstance(resolution, IntegralBlockResolution):
            transactions = resolution.transactions()
            if len(transactions) < 2:
                continue
            kept = transactions[:-1]
            parts = [write_varint(len(kept))]
            parts.extend(tx.serialize() for tx in kept)
            resolution.body = b"".join(parts)
            resolution._transactions = None
            return result
    return result


def swap_resolutions_between_blocks(result: QueryResult) -> QueryResult:
    """Serve block A's (valid!) evidence as the answer for block B.

    Every branch still verifies against *some* root — just not the root
    of the block it is presented for, so per-block commitment binding is
    what must catch it.
    """
    if result.segments is not None:
        items = [
            (segment, height)
            for segment in result.segments
            for height in sorted(segment.resolutions)
        ]
        if len(items) >= 2:
            (seg_a, height_a), (seg_b, height_b) = items[0], items[-1]
            seg_a.resolutions[height_a], seg_b.resolutions[height_b] = (
                seg_b.resolutions[height_b],
                seg_a.resolutions[height_a],
            )
        return result
    assert result.blocks is not None
    resolved = [a for a in result.blocks if a.resolution is not None]
    if len(resolved) >= 2:
        resolved[0].resolution, resolved[-1].resolution = (
            resolved[-1].resolution,
            resolved[0].resolution,
        )
    return result


def misclassify_failed_endpoint(result: QueryResult) -> QueryResult:
    """Relabel a failed BMT leaf as a clean endpoint (hide its block).

    The filter bits themselves refute the claim — every checked position
    is set — so the verifier's endpoint-semantics check must fire even
    though all hashes still match.
    """
    if result.segments is None:
        return result
    for segment in result.segments:
        proof = segment.multiproof
        for offset, tag, _hashes, _bf in _node_offsets(proof):
            if tag == 3:  # failed leaf
                segment.multiproof = _rewritten(proof, offset, 1)  # "clean"
                # Drop the now-unexplained resolution as a liar would.
                if segment.resolutions:
                    height = sorted(segment.resolutions)[0]
                    del segment.resolutions[height]
                return result
    return result


def narrow_answered_range(result: QueryResult) -> QueryResult:
    """Answer a narrower height range than the client asked about.

    The answer is internally consistent; only the client's comparison of
    the answered range against its own request can reject it.
    """
    if result.last_height <= result.first_height:
        return result
    if result.blocks is not None:
        result.blocks.pop()
        result.last_height -= 1
        return result
    # Segment answers: drop the last segment and shrink the claimed range
    # to just before it.
    assert result.segments is not None
    if len(result.segments) < 2:
        return result
    dropped = result.segments.pop()
    result.last_height = dropped.start - 1
    return result


def duplicate_segment(result: QueryResult) -> QueryResult:
    """Pad the answer with a second copy of a segment proof."""
    if result.segments is not None and result.segments:
        result.segments.append(result.segments[0])
    return result


# ---------------------------------------------------------------------------
# composition with the fault layer


def compose_attacks(*attacks: Attack) -> Attack:
    """One attack applying several in sequence (layered adversary).

    Used by the chaos suite to pair content attacks with link faults:
    ``MaliciousFullNode(system, compose_attacks(a, b))`` behind a
    :class:`repro.node.faults.FaultyTransport` exercises a peer that lies
    *and* whose link mangles the lie further.
    """

    def composed(result: QueryResult) -> QueryResult:
        for attack in attacks:
            result = attack(result)
        return result

    composed.__name__ = "+".join(
        getattr(attack, "__name__", "attack") for attack in attacks
    )
    return composed


def intermittent(attack: Attack, period: int) -> Attack:
    """Apply ``attack`` only every ``period``-th call (reputation farming).

    A peer that answers honestly most of the time defeats naive "ban on
    first failure" clients slowly; a sound verifier still rejects each
    dishonest answer the moment it appears, which is what the session
    quarantine tests pin down.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    calls = {"n": 0}

    def sometimes(result: QueryResult) -> QueryResult:
        calls["n"] += 1
        if calls["n"] % period == 0:
            return attack(result)
        return result

    sometimes.__name__ = f"intermittent_{getattr(attack, '__name__', 'attack')}"
    return sometimes


#: Name → attack, for parametrized tests and the security example.
ALL_ATTACKS = {
    "omit_one_transaction": omit_one_transaction,
    "drop_block_resolution": drop_block_resolution,
    "truncate_blocks": truncate_blocks,
    "swap_existence_for_fpm": swap_existence_for_fpm,
    "forge_transaction_value": forge_transaction_value,
    "duplicate_transaction_entry": duplicate_transaction_entry,
    "tamper_bmt_filter": tamper_bmt_filter,
    "swap_block_filter": swap_block_filter,
    "corrupt_integral_block": corrupt_integral_block,
    "swap_resolutions_between_blocks": swap_resolutions_between_blocks,
    "misclassify_failed_endpoint": misclassify_failed_endpoint,
    "narrow_answered_range": narrow_answered_range,
    "duplicate_segment": duplicate_segment,
}
