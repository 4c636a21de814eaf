"""The light node's BMT replay memo changes cost, never outcome.

A warm memo must accept and reject exactly what a verifier without one
(``memo=None``, the cold path) does: every §VI attack, every mutation of
a multiproof's bytes, and everything in between, with the same exception
type and text.  The memo must also stay within its bound.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.address import address_item
from repro.crypto.encoding import ByteReader
from repro.errors import EncodingError, ReproError
from repro.merkle.bmt import BmtMultiProof
from repro.node.light_node import LightNode
from repro.query import memo as memo_module
from repro.query.adversary import ALL_ATTACKS, materialize
from repro.query.memo import REPLAY_MEMO_ENTRIES, VerifierMemo
from repro.query.prover import answer_query
from repro.query.verifier import _bmt_root_of, verify_result

#: Whole-chain and range-restricted answers (the latter ship stubs).
SPANS = [None, (10, 40)]


def outcome(verify):
    """``(height, txid)`` pairs of the accepted history, or the exception."""
    try:
        verified = verify()
    except ReproError as error:
        return type(error), str(error)
    return [(height, tx.txid()) for height, tx in verified.transactions]


def honest_answers(system, addresses):
    """``(address, span, result)`` for every probe address and span."""
    for address in addresses:
        for span in SPANS:
            first, last = span or (1, system.tip_height)
            yield address, (first, last), answer_query(system, address, first, last)


def test_every_attack_is_rejected_identically_warm_and_cold(
    lvq_system, probe_addresses
):
    headers, config = lvq_system.headers(), lvq_system.config
    light = LightNode(headers, config)
    answers = list(honest_answers(lvq_system, probe_addresses.values()))
    honest = {}
    for address, span, result in answers:
        honest[address, span] = outcome(lambda: light.verify(result, address, span))
    applied = set()
    for name, attack in sorted(ALL_ATTACKS.items()):
        for address, span, result in answers:
            attacked = attack(materialize(result))
            if attacked.serialize(config) == result.serialize(config):
                continue
            applied.add(name)
            cold = outcome(
                lambda: verify_result(attacked, headers, config, address, span)
            )
            warm = outcome(lambda: light.verify(attacked, address, span))
            assert isinstance(cold, tuple), (name, address, span)
            assert warm == cold, (name, address, span)
    assert {"tamper_bmt_filter", "misclassify_failed_endpoint"} <= applied
    # Entries written while replaying the attacks change nothing either.
    for address, span, result in answers:
        assert outcome(lambda: light.verify(result, address, span)) == honest[
            address, span
        ]


# ---------------------------------------------------------------------------
# mutated multiproof bytes


@pytest.fixture(scope="module")
def segments(lvq_system, workload):
    """``(item, clipped range, segment)`` for every honest segment proof."""
    found = []
    for address, (first, last), result in honest_answers(
        lvq_system, workload.probe_addresses.values()
    ):
        for segment in result.segments:
            clipped = (max(segment.start, first), min(segment.end, last))
            found.append((address_item(address), clipped, segment))
    return found


def replay(system, item, clipped, segment, proof, memo):
    config = system.config
    try:
        verified = proof.verify(
            _bmt_root_of(system.headers()[segment.anchor], segment.anchor),
            item,
            segment.start,
            segment.num_blocks,
            config.bf_bits,
            config.num_hashes,
            query_range=clipped,
            memo=memo,
        )
    except ReproError as error:
        return type(error), str(error)
    return verified.clean_ranges, verified.failed_heights, verified.num_endpoints


EDITS = st.lists(
    st.one_of(
        # flip one bit
        st.tuples(
            st.just("flip"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=7),
        ),
        # copy a run of bytes from another honest proof over this one
        st.tuples(
            st.just("splice"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=10_000_000),
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(
    target=st.integers(min_value=0, max_value=10_000),
    donor=st.integers(min_value=0, max_value=10_000),
    edits=EDITS,
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_multiproof_replays_identically_warm_and_cold(
    lvq_system, segments, target, donor, edits
):
    item, clipped, segment = segments[target % len(segments)]
    honest = segment.multiproof.serialize()
    other = segments[donor % len(segments)][2].multiproof.serialize()
    mutated = bytearray(honest)
    for kind, at, arg in edits:
        if kind == "flip":
            mutated[at % len(mutated)] ^= 1 << arg
        else:
            start = at % len(mutated)
            source = arg % len(other)
            run = min(len(mutated) - start, len(other) - source, 1 + arg % 1500)
            mutated[start : start + run] = other[source : source + run]
    try:
        proof = BmtMultiProof.deserialize(
            ByteReader(bytes(mutated)), lvq_system.config.bf_bits
        )
    except EncodingError:
        return  # never reaches a verifier
    memo = VerifierMemo()
    for warm_item, warm_clipped, warm_segment in segments:
        replay(
            lvq_system,
            warm_item,
            warm_clipped,
            warm_segment,
            warm_segment.multiproof,
            memo,
        )
    cold = replay(lvq_system, item, clipped, segment, proof, None)
    assert replay(lvq_system, item, clipped, segment, proof, memo) == cold
    # ...and the honest proof still replays to its own outcome afterwards.
    assert replay(
        lvq_system, item, clipped, segment, segment.multiproof, memo
    ) == replay(lvq_system, item, clipped, segment, segment.multiproof, None)


# ---------------------------------------------------------------------------
# the bound


def test_memo_never_holds_more_than_its_bound():
    memo = VerifierMemo()
    entry = (b"h" * 32, 0, b"", None)
    for start in range(2 * REPLAY_MEMO_ENTRIES + 3):
        memo.remember_node((start, 0), entry)
        assert len(memo.nodes) <= REPLAY_MEMO_ENTRIES
    assert (2 * REPLAY_MEMO_ENTRIES + 2, 0) in memo.nodes
    # Overwriting a position a full memo already holds keeps the rest.
    while len(memo.nodes) < REPLAY_MEMO_ENTRIES:
        memo.remember_node((len(memo.nodes), 1), entry)
    memo.remember_node(next(iter(memo.nodes)), entry)
    assert len(memo.nodes) == REPLAY_MEMO_ENTRIES


def test_threads_sharing_one_memo_keep_outcomes_and_bound(
    lvq_system, probe_addresses, monkeypatch
):
    """With the bound cut to 9 entries, four threads verify every probe
    answer through one light node's memo under a tiny switch interval:
    far more than 9 positions pass through it, every verdict matches the
    cold one, and no store ever leaves more than 9 entries behind."""
    monkeypatch.setattr(memo_module, "REPLAY_MEMO_ENTRIES", 9)
    headers, config = lvq_system.headers(), lvq_system.config
    light = LightNode(headers, config)
    answers = list(honest_answers(lvq_system, probe_addresses.values()))
    expected = [
        outcome(lambda: verify_result(result, headers, config, address, span))
        for address, span, result in answers
    ]
    positions = set()
    oversized = []
    remember = VerifierMemo.remember_node

    def checked(memo, key, entry):
        remember(memo, key, entry)
        positions.add(key)
        if len(memo.nodes) > 9:
            oversized.append(len(memo.nodes))

    monkeypatch.setattr(VerifierMemo, "remember_node", checked)
    mismatches = []

    def work():
        for _ in range(10):
            for (address, span, result), want in zip(answers, expected):
                got = outcome(lambda: light.verify(result, address, span))
                if got != want:
                    mismatches.append((address, span))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert oversized == []
    assert len(positions) > 5 * 9
