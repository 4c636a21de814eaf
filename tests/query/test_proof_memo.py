"""The light node's multiproof memo changes cost, never outcome.

``VerifierMemo.proofs`` remembers each accepted BMT multiproof with the
inputs it was checked against (DESIGN.md §12).  A later proof with the
same wire bytes, root, filter geometry, segment, range and item takes the
recorded outcome instead of a replay; anything else is verified as a
verifier without a memo verifies it.  The table stays within its bound.
"""

import pytest

from repro.chain.address import address_item
from repro.crypto.encoding import ByteReader
from repro.errors import ReproError, VerificationError
from repro.merkle import bmt as bmt_module
from repro.merkle.bmt import BmtMultiProof
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.query import memo as memo_module
from repro.query.memo import VerifierMemo
from repro.query.prover import answer_query
from repro.query.verifier import _bmt_root_of, verify_result

#: Whole-chain and range-restricted answers (the latter ship stubs).
SPANS = [None, (10, 40)]


@pytest.fixture(scope="module")
def segments(lvq_system, workload):
    """``(item, clipped range, segment)`` for every honest segment proof."""
    found = []
    for address in workload.probe_addresses.values():
        for span in SPANS:
            first, last = span or (1, lvq_system.tip_height)
            result = answer_query(lvq_system, address, first, last)
            for segment in result.segments:
                clipped = (max(segment.start, first), min(segment.end, last))
                found.append((address_item(address), clipped, segment))
    return found


def check(system, item, clipped, segment, proof, memo, root=None, hashes=None):
    """The verification's outcome, or the exception type and text."""
    config = system.config
    if root is None:
        root = _bmt_root_of(system.headers()[segment.anchor], segment.anchor)
    try:
        verified = proof.verify(
            root,
            item,
            segment.start,
            segment.num_blocks,
            config.bf_bits,
            hashes or config.num_hashes,
            query_range=clipped,
            memo=memo,
        )
    except ReproError as error:
        return type(error), str(error)
    return verified.clean_ranges, verified.failed_heights, verified.num_endpoints


def test_an_accepted_proof_is_not_replayed_again(
    lvq_system, segments, monkeypatch
):
    memo = VerifierMemo()
    cold = [check(lvq_system, *row, row[2].multiproof, None) for row in segments]
    warm = [check(lvq_system, *row, row[2].multiproof, memo) for row in segments]
    assert warm == cold
    assert all(not isinstance(outcome[0], type) for outcome in cold)
    assert len(memo.proofs) == len(set((r[2].start, r[1], r[0]) for r in segments))

    def no_replay(*_args, **_kwargs):
        raise AssertionError("replayed a proof the memo accepted")

    monkeypatch.setattr(bmt_module, "_replay", no_replay)
    again = [check(lvq_system, *row, row[2].multiproof, memo) for row in segments]
    assert again == cold
    # A proof decoded afresh from the same bytes is the same proof.
    item, clipped, segment = segments[0]
    decoded = BmtMultiProof.deserialize(
        ByteReader(segment.multiproof.serialize()), lvq_system.config.bf_bits
    )
    assert check(lvq_system, item, clipped, segment, decoded, memo) == cold[0]
    # The cold path still replays.
    with pytest.raises(AssertionError):
        segment.multiproof.verify(
            _bmt_root_of(lvq_system.headers()[segment.anchor], segment.anchor),
            item,
            segment.start,
            segment.num_blocks,
            lvq_system.config.bf_bits,
            lvq_system.config.num_hashes,
            query_range=clipped,
        )


def test_a_remembered_outcome_is_handed_out_as_fresh_lists(lvq_system, segments):
    memo = VerifierMemo()
    item, clipped, segment = next(
        row for row in segments if row[2].multiproof.failed_leaf_count()
    )
    config = lvq_system.config
    root = _bmt_root_of(lvq_system.headers()[segment.anchor], segment.anchor)

    def verify():
        return segment.multiproof.verify(
            root,
            item,
            segment.start,
            segment.num_blocks,
            config.bf_bits,
            config.num_hashes,
            query_range=clipped,
            memo=memo,
        )

    first = verify()
    expected = (list(first.clean_ranges), list(first.failed_heights))
    first.clean_ranges.clear()
    first.failed_heights.append(-1)
    second = verify()
    assert (second.clean_ranges, second.failed_heights) == expected
    second.failed_heights.clear()
    assert verify().failed_heights == expected[1]


def test_other_inputs_with_the_same_bytes_are_verified_cold(
    lvq_system, segments
):
    memo = VerifierMemo()
    for row in segments:
        check(lvq_system, *row, row[2].multiproof, memo)
    item, clipped, segment = segments[0]
    proof = segment.multiproof
    # Another root: rejected exactly as without a memo.
    wrong_root = bytes(32)
    cold = check(lvq_system, item, clipped, segment, proof, None, wrong_root)
    assert cold[0] is VerificationError
    assert check(lvq_system, item, clipped, segment, proof, memo, wrong_root) == cold
    # Another hash count checks other bits; where that changes the
    # verdict, the remembered one must not be handed out.
    k = lvq_system.config.num_hashes
    moved = [
        (row, hashes)
        for row in segments
        for hashes in range(k + 1, k + 4)
        if check(lvq_system, *row, row[2].multiproof, None, hashes=hashes)
        != check(lvq_system, *row, row[2].multiproof, None)
    ]
    assert moved
    for (other_item, other_range, other), hashes in moved:
        assert check(
            lvq_system, other_item, other_range, other, other.multiproof, memo,
            hashes=hashes,
        ) == check(
            lvq_system, other_item, other_range, other, other.multiproof, None,
            hashes=hashes,
        )
    # Another item or another range under the same bytes: its own verdict.
    for other_item, other_range in (
        (b"not-the-address", clipped),
        (item, (clipped[0], clipped[0])),
    ):
        assert check(
            lvq_system, other_item, other_range, segment, proof, memo
        ) == check(lvq_system, other_item, other_range, segment, proof, None)


def test_a_rejected_proof_is_not_remembered(lvq_system, segments):
    memo = VerifierMemo()
    item, clipped, segment = segments[0]
    honest = segment.multiproof.serialize()
    forged = bytearray(honest)
    forged[-1] ^= 1  # the last shipped filter
    proof = BmtMultiProof.deserialize(
        ByteReader(bytes(forged)), lvq_system.config.bf_bits
    )
    cold = check(lvq_system, item, clipped, segment, proof, None)
    assert cold[0] is VerificationError
    assert check(lvq_system, item, clipped, segment, proof, memo) == cold
    assert memo.proofs == {} and memo.proof_bytes == 0
    # The honest proof is remembered, and the forgery still fails after it.
    check(lvq_system, item, clipped, segment, segment.multiproof, memo)
    assert [entry[0] for entry in memo.proofs.values()] == [honest]
    assert check(lvq_system, item, clipped, segment, proof, memo) == cold


def test_the_table_starts_over_instead_of_passing_its_bound(monkeypatch):
    monkeypatch.setattr(memo_module, "PROOF_MEMO_BYTES", 100)
    memo = VerifierMemo()

    def entry(size):
        return (b"p" * size, b"r" * 32, 4, 3, (), (), 0)

    memo.remember_proof((1,), entry(40))
    memo.remember_proof((2,), entry(40))
    assert memo.proof_bytes == 80 and len(memo.proofs) == 2
    # Overwriting a key counts only its new bytes.
    memo.remember_proof((2,), entry(50))
    assert memo.proof_bytes == 90 and len(memo.proofs) == 2
    # A store past the bound empties the table, then holds the new entry.
    memo.remember_proof((3,), entry(30))
    assert list(memo.proofs) == [(3,)] and memo.proof_bytes == 30
    for key in range(10, 40):
        memo.remember_proof((key,), entry(7))
        assert memo.proof_bytes <= 100
        assert memo.proof_bytes == sum(len(e[0]) for e in memo.proofs.values())
    # A proof larger than the whole bound is not stored at all.
    held = dict(memo.proofs)
    memo.remember_proof((99,), entry(101))
    assert memo.proofs == held and memo.proof_bytes <= 100


def test_repeated_queries_through_a_light_node_verify_the_same(
    lvq_system, probe_addresses
):
    headers, config = lvq_system.headers(), lvq_system.config
    node = FullNode(lvq_system)
    light = LightNode(headers, config)
    for address in probe_addresses.values():
        for span in SPANS:
            first, last = span or (1, lvq_system.tip_height)
            cold = verify_result(
                answer_query(lvq_system, address, first, last),
                headers,
                config,
                address,
                (first, last),
            )
            for _ in range(2):
                warm = light.query_history(
                    node, address, first_height=first, last_height=last
                )
                assert warm.transactions == cold.transactions
                assert warm.num_endpoints == cold.num_endpoints
    assert light.memo.proofs
