"""Reorg-aware sync: light-node edge cases and session-level recovery."""

import pytest

from repro.errors import (
    NoHonestPeerError,
    ReproError,
    StaleChainError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import QueryResponse
from repro.node.session import Peer, PartialHistory, QuerySession
from repro.node.transport import InProcessTransport
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

CONFIG = SystemConfig.lvq(bf_bytes=192, segment_len=8)


@pytest.fixture(scope="module")
def forked():
    main = generate_workload(
        WorkloadParams(
            num_blocks=14,
            txs_per_block=5,
            seed=61,
            probes=[ProbeProfile("P", 8, 5)],
        )
    )
    alt = generate_workload(
        WorkloadParams(
            num_blocks=20,
            txs_per_block=5,
            seed=62,
            probes=[ProbeProfile("P", 8, 5)],
        )
    )
    return main, alt


def _node(bodies):
    return FullNode(build_system(bodies, CONFIG))


class TestLightNodeEdgeCases:
    def test_equal_length_fork_refused_as_stale(self, forked):
        main, alt = forked
        ours = _node(main.bodies)
        light = LightNode.from_full_node(ours)
        same_length = _node(main.bodies[:10] + alt.bodies[10:14])
        before = list(light.headers)
        with pytest.raises(StaleChainError):
            light.sync_with_reorg(same_length)
        assert light.headers == before

    def test_stale_chain_error_is_verification_error(self):
        # Existing callers catching VerificationError must keep working.
        assert issubclass(StaleChainError, VerificationError)

    def test_genesis_mismatch_refused(self, forked):
        main, alt = forked
        light = LightNode.from_full_node(_node(main.bodies))
        # Same shape, but an extra transaction in genesis gives the
        # foreign chain a different height-0 block id — and it is longer
        # than ours, so only the genesis check can reject it.
        foreign_bodies = [alt.bodies[0] + [alt.bodies[1][0]]] + alt.bodies[1:]
        foreign = _node(foreign_bodies)
        with pytest.raises(VerificationError, match="genesis"):
            light.sync_with_reorg(foreign)

    def test_reorg_to_genesis_depth(self, forked):
        """A fork diverging at height 0 (every non-genesis block replaced)
        is adopted when longer — there is no checkpoint floor."""
        main, alt = forked
        light = LightNode.from_full_node(_node(main.bodies))
        old_tip = light.tip_height
        deep_fork = _node(main.bodies[:1] + alt.bodies[1:20])
        replaced, appended = light.sync_with_reorg(deep_fork)
        assert replaced == old_tip
        assert light.tip_height == deep_fork.tip_height

    def test_longer_fork_adopted(self, forked):
        main, alt = forked
        light = LightNode.from_full_node(_node(main.bodies))
        longer = _node(main.bodies[:10] + alt.bodies[10:20])
        replaced, appended = light.sync_with_reorg(longer)
        assert (replaced, appended) == (5, 10)
        assert (
            light.headers[-1].block_id()
            == longer.system.chain.header_at(longer.tip_height).block_id()
        )


def _outcome(light, result, address, span):
    try:
        verified = light.verify(result, address, span)
    except ReproError as error:
        return type(error), str(error)
    return [(height, tx.txid()) for height, tx in verified.transactions]


def test_replay_memo_survives_a_reorg_without_changing_any_verdict(forked):
    """A light node that verified old-fork answers and then followed the
    longer fork accepts and rejects exactly what a fresh light node does:
    its replay memo still holds old-fork nodes, and they match nothing
    the new headers accept."""
    main, alt = forked
    old = _node(main.bodies)
    light = LightNode.from_full_node(old)
    addresses = [main.probe_addresses["P"], alt.probe_addresses["P"]]
    spans = [(1, 14), (5, 12)]
    old_answers = []
    for address in addresses:
        for span in spans:
            old_answers.append((address, span, old.answer(address, *span)))
            light.query_history(old, address, first_height=span[0], last_height=span[1])
    warmed = len(light.memo.nodes)
    assert light.memo.resolutions

    longer = _node(main.bodies[:10] + alt.bodies[10:20])
    assert light.sync_with_reorg(longer) == (5, 10)
    assert len(light.memo.nodes) == warmed
    assert light.memo.resolutions == {} and light.memo.resolution_bytes == 0
    fresh = LightNode.from_full_node(longer)
    # The old fork grown to the new tip: its answers pass the tip check,
    # so only the BMT and SMT roots in the new headers can refuse them.
    old_grown = _node(main.bodies + alt.bodies[15:20])
    assert old_grown.tip_height == longer.tip_height
    cases = list(old_answers)
    for address in addresses:
        for span in [(1, 19), (5, 12), (9, 16)]:
            cases.append((address, span, longer.answer(address, *span)))
            cases.append((address, span, old_grown.answer(address, *span)))
    verdicts = []
    for address, span, result in cases:
        expected = _outcome(fresh, result, address, span)
        assert _outcome(light, result, address, span) == expected
        verdicts.append(isinstance(expected, list))
    assert verdicts.count(True) == len(addresses) * 3
    assert verdicts.count(False) > len(old_answers)


def _wire_outcome(light, result, address, span):
    """Serialize, then decode and verify through ``light``'s memo — the
    path ``query_history`` takes, resolution memo included."""
    frame = QueryResponse(result).serialize(light.config)
    try:
        decoded = QueryResponse.deserialize(
            frame, light.config, memo=light.memo
        ).result
        verified = light.verify(decoded, address, span)
    except ReproError as error:
        return type(error), str(error)
    return [(height, tx.txid()) for height, tx in verified.transactions]


def test_resolution_memo_after_a_reorg_gives_a_fresh_nodes_verdicts(forked):
    """A light node whose resolution memo accepted old-fork answers
    empties it when ``sync_with_reorg`` replaces headers, and from then on
    decodes and verifies every answer — old fork, new fork, old fork
    grown to the new tip — exactly as a fresh light node does."""
    main, alt = forked
    old = _node(main.bodies)
    light = LightNode.from_full_node(old)
    addresses = [main.probe_addresses["P"], alt.probe_addresses["P"]]
    old_answers = []
    for address in addresses:
        for span in [(1, 14), (5, 12)]:
            result = old.answer(address, *span)
            old_answers.append((address, span, result))
            assert isinstance(_wire_outcome(light, result, address, span), list)
    assert light.memo.resolutions

    longer = _node(main.bodies[:10] + alt.bodies[10:20])
    assert light.sync_with_reorg(longer) == (5, 10)
    assert light.memo.resolutions == {}
    fresh = LightNode.from_full_node(longer)
    old_grown = _node(main.bodies + alt.bodies[15:20])
    cases = list(old_answers)
    for address in addresses:
        for span in [(1, 19), (5, 12), (9, 16)]:
            cases.append((address, span, longer.answer(address, *span)))
            cases.append((address, span, old_grown.answer(address, *span)))
    for _round in range(2):  # the second round runs on a warm memo
        verdicts = []
        for address, span, result in cases:
            expected = _wire_outcome(fresh, result, address, span)
            assert _wire_outcome(light, result, address, span) == expected
            verdicts.append(isinstance(expected, list))
        assert verdicts.count(True) == len(addresses) * 3
        assert verdicts.count(False) > len(old_answers)


class TestSessionReorg:
    def test_follows_longer_fork_and_requeries(self, forked):
        main, alt = forked
        node = _node(main.bodies)
        light = LightNode.from_full_node(node)
        session = QuerySession(light, [("n0", node)], track_queries=True)
        address = main.probe_addresses["P"]
        session.query(address)

        node.reorg(9, alt.bodies[10:18])
        replaced, appended = session.sync_with_reorg()
        assert (replaced, appended) == (5, 8)
        assert light.tip_height == node.tip_height
        report = session.last_reorg
        assert report["fork_height"] == 9
        fresh = session.query(address)
        requeried = report["requeried"][address]
        assert [
            (height, tx.txid()) for height, tx in requeried.transactions
        ] == [(height, tx.txid()) for height, tx in fresh.transactions]

    def test_query_outside_replaced_range_not_requeried(self, forked):
        main, alt = forked
        node = _node(main.bodies)
        light = LightNode.from_full_node(node)
        session = QuerySession(light, [("n0", node)], track_queries=True)
        address = main.probe_addresses["P"]
        session.query(address, first_height=1, last_height=5)

        node.reorg(9, alt.bodies[10:18])
        session.sync_with_reorg()
        assert session.last_reorg["requeried"] == {}

    def test_untracked_session_skips_requeries(self, forked):
        main, alt = forked
        node = _node(main.bodies)
        light = LightNode.from_full_node(node)
        session = QuerySession(light, [("n0", node)])
        address = main.probe_addresses["P"]
        session.query(address)
        node.reorg(9, alt.bodies[10:18])
        session.sync_with_reorg()
        assert session.last_reorg["requeried"] == {}

    def test_stale_peer_not_banned(self, forked):
        main, alt = forked
        ahead = _node(main.bodies[:10] + alt.bodies[10:20])
        behind = _node(main.bodies[:10] + alt.bodies[10:13])
        light = LightNode.from_full_node(_node(main.bodies))
        session = QuerySession(
            light, [("behind", behind), ("ahead", ahead)]
        )
        # Make the lagging peer rank first so it is actually attempted.
        session.peers[1].score = 0.5
        replaced, appended = session.sync_with_reorg()
        assert light.tip_height == ahead.tip_height
        assert not session.peers[0].banned
        assert session.peers[0].stats.verification_failures == 0

    def test_lying_peer_banned(self, forked):
        main, alt = forked
        node = _node(main.bodies)
        light = LightNode.from_full_node(node)
        # Foreign genesis = provable malice (see the edge-case test).
        liar = _node([alt.bodies[0] + [alt.bodies[1][0]]] + alt.bodies[1:])
        session = QuerySession(light, [("liar", liar), ("good", node)])
        session.peers[1].score = 0.5
        session.sync_with_reorg()
        assert session.peers[0].banned

    def test_all_lying_peers_end_in_no_honest_peer(self, forked):
        """Liars are banned in the first sweep; no backoff round can
        help, so the session stops with the malice verdict."""
        main, alt = forked
        light = LightNode.from_full_node(_node(main.bodies))
        foreign = [alt.bodies[0] + [alt.bodies[1][0]]] + alt.bodies[1:]
        session = QuerySession(
            light, [("liar0", _node(foreign)), ("liar1", _node(foreign))]
        )
        with pytest.raises(NoHonestPeerError) as excinfo:
            session.sync_with_reorg()
        assert set(excinfo.value.reasons) == {"liar0", "liar1"}
        assert session.stats.retries == 0

    def test_quarantined_peer_is_waited_out(self, forked):
        """A peer whose link failed once is quarantined for 10 s; the
        session waits for its release on the clock, as ``query`` does,
        instead of spending its rounds while the peer is held out."""
        main, _alt = forked
        node = _node(main.bodies)
        light = LightNode(node.system.headers()[:8], CONFIG)
        links = [InProcessTransport(byte_budget=10)]  # dies on the request

        def link():
            return links.pop() if links else InProcessTransport()

        session = QuerySession(
            light, [Peer("n0", node, link)], quarantine_base=10.0
        )
        assert session.sync_with_reorg() == (0, 7)
        assert session.clock.now() > 10.0
        assert session.peers[0].stats.transport_failures == 1
        assert light.tip_height == node.tip_height

    def test_plain_extension_still_works(self, forked):
        main, _alt = forked
        node = _node(main.bodies)
        light = LightNode(
            [h for h in node.system.headers()[:8]], CONFIG
        )
        session = QuerySession(light, [("n0", node)])
        replaced, appended = session.sync_with_reorg()
        assert (replaced, appended) == (0, 7)
        assert session.last_reorg is None


class TestPartialHistoryReorg:
    def test_replaced_suffix_becomes_uncovered(self):
        partial = PartialHistory(
            "addr", 1, 13, [(3, None), (11, None)], [(1, 13)], []
        )
        partial.apply_reorg(9)
        assert partial.covered_ranges == [(1, 9)]
        assert partial.uncovered_ranges == [(10, 13)]
        assert [height for height, _ in partial.transactions] == [3]
        assert not partial.is_complete

    def test_gap_and_suffix_both_reported(self):
        partial = PartialHistory(
            "addr", 1, 12, [], [(1, 3), (6, 12)], [(4, 5)]
        )
        partial.apply_reorg(8)
        assert partial.covered_ranges == [(1, 3), (6, 8)]
        assert partial.uncovered_ranges == [(4, 5), (9, 12)]

    def test_reorg_below_everything_voids_coverage(self):
        partial = PartialHistory("addr", 5, 9, [(6, None)], [(5, 9)], [])
        partial.apply_reorg(2)
        assert partial.covered_ranges == []
        assert partial.uncovered_ranges == [(5, 9)]
        assert partial.transactions == []

    def test_reorg_above_range_is_noop(self):
        partial = PartialHistory("addr", 1, 8, [(2, None)], [(1, 8)], [])
        partial.apply_reorg(8)
        assert partial.covered_ranges == [(1, 8)]
        assert partial.uncovered_ranges == []
        assert partial.is_complete
