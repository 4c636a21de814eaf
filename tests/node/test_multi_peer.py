"""Tests for the multi-peer light client: one honest peer suffices.

One sweep of a :class:`QuerySession` (``RetryPolicy.no_retries()``) over
a peer list: the first verifiable answer wins, a liar is banned, and the
traffic of every peer tried stays in the session's per-peer stats.
"""

import ast
import inspect

import pytest

from repro.errors import NoHonestPeerError, QueryError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.session import Peer, QuerySession, RetryPolicy
from repro.node.transport import InProcessTransport
from repro.query.adversary import (
    ALL_ATTACKS,
    MaliciousFullNode,
    drop_block_resolution,
    omit_one_transaction,
    truncate_blocks,
)


@pytest.fixture()
def light(lvq_system):
    return LightNode(lvq_system.headers(), lvq_system.config)


def _sweep(light, peers):
    """A one-pass session: each peer is tried at most once."""
    return QuerySession(light, peers, retry=RetryPolicy.no_retries())


class TestQueryAny:
    def test_single_honest_peer(self, lvq_system, light, probe_addresses):
        history = _sweep(light, [FullNode(lvq_system)]).query(
            probe_addresses["Addr5"]
        )
        assert history.transactions

    def test_honest_peer_behind_liars(
        self, workload, lvq_system, light, probe_addresses
    ):
        """Two malicious peers first; the honest third one wins."""
        address = probe_addresses["Addr6"]
        peers = [
            MaliciousFullNode(lvq_system, omit_one_transaction),
            MaliciousFullNode(lvq_system, drop_block_resolution),
            FullNode(lvq_system),
        ]
        history = _sweep(light, peers).query(address)
        truth = workload.history_of(address)
        assert [(h, t.txid()) for h, t in history.transactions] == [
            (h, t.txid()) for h, t in truth
        ]

    def test_all_malicious_raises_with_reasons(
        self, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr6"]
        peers = [
            MaliciousFullNode(lvq_system, omit_one_transaction),
            MaliciousFullNode(lvq_system, truncate_blocks),
        ]
        with pytest.raises(NoHonestPeerError) as excinfo:
            _sweep(light, peers).query(address)
        assert set(excinfo.value.reasons) == {"peer0", "peer1"}
        for reason in excinfo.value.reasons.values():
            assert isinstance(reason, Exception)

    def test_no_peers_rejected(self, light):
        with pytest.raises(QueryError):
            _sweep(light, [])

    def test_range_queries_supported(
        self, workload, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr5"]
        peers = [
            MaliciousFullNode(lvq_system, drop_block_resolution),
            FullNode(lvq_system),
        ]
        history = _sweep(light, peers).query(
            address, first_height=10, last_height=30
        )
        truth = [
            (h, t.txid())
            for h, t in workload.history_of(address)
            if 10 <= h <= 30
        ]
        assert [(h, t.txid()) for h, t in history.transactions] == truth

    def test_every_attack_survivable_with_one_honest_peer(
        self, workload, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr6"]
        truth = [(h, t.txid()) for h, t in workload.history_of(address)]
        peers = [
            MaliciousFullNode(lvq_system, attack)
            for attack in ALL_ATTACKS.values()
        ] + [FullNode(lvq_system)]
        history = _sweep(light, peers).query(address)
        assert [(h, t.txid()) for h, t in history.transactions] == truth


class TestMultiPeerReport:
    def test_winner_and_stats_reported(self, lvq_system, light, probe_addresses):
        """Per-peer transports and labels: the session names the winner
        and keeps byte accounting for losers too."""
        address = probe_addresses["Addr5"]
        transports = {
            "liar": InProcessTransport(),
            "honest": InProcessTransport(),
        }
        peers = [
            Peer(
                "liar",
                MaliciousFullNode(lvq_system, omit_one_transaction),
                transport_factory=lambda: transports["liar"],
            ),
            Peer(
                "honest",
                FullNode(lvq_system),
                transport_factory=lambda: transports["honest"],
            ),
        ]
        session = _sweep(light, peers)
        history = session.query(address)
        assert history.transactions
        assert session.last_winner == "honest"
        stats = {
            label: peer_stats.transport
            for label, peer_stats in session.stats.peers.items()
        }
        assert set(stats) == {"liar", "honest"}
        # The liar's traffic is not thrown away.
        assert stats["liar"].total_bytes > 0
        assert stats["honest"].total_bytes > 0
        assert sum(s.total_bytes for s in stats.values()) == sum(
            t.stats.total_bytes for t in transports.values()
        )
        # Only the liar was rejected, and a liar is banned for good.
        assert [p.label for p in session.peers if p.banned] == ["liar"]
        assert session.stats.peers["honest"].verification_failures == 0

    def test_labels_in_failure_reasons(self, lvq_system, light, probe_addresses):
        peers = [
            ("alpha", MaliciousFullNode(lvq_system, omit_one_transaction)),
            ("beta", MaliciousFullNode(lvq_system, truncate_blocks)),
        ]
        session = _sweep(light, peers)
        with pytest.raises(NoHonestPeerError) as excinfo:
            session.query(probe_addresses["Addr6"])
        assert set(excinfo.value.reasons) == {"alpha", "beta"}
        assert session.last_winner is None
        assert set(session.stats.peers) == {"alpha", "beta"}
        assert all(
            stats.attempts == 1 and stats.transport.total_bytes > 0
            for stats in session.stats.peers.values()
        )

    def test_faulty_peer_link_falls_through(
        self, lvq_system, light, probe_addresses
    ):
        """A dead link on the first peer is just another rejection
        reason; the second peer answers."""
        peers = [
            Peer(
                "peer0",
                FullNode(lvq_system),
                # Dies on the request.
                transport_factory=lambda: InProcessTransport(byte_budget=10),
            ),
            Peer("peer1", FullNode(lvq_system)),
        ]
        session = _sweep(light, peers)
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "peer1"
        assert session.stats.peers["peer0"].transport_failures == 1
        assert not session.peers[0].banned


def test_light_client_states_each_mechanism_once():
    """One exchange in the light node; one attempt classifier and one
    retry loop in the session, which reorg sync goes through too."""
    from repro.node import light_node, session

    def tree(module):
        return ast.parse(inspect.getsource(module))

    def calls(node, attr):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr
        ]

    def functions(node):
        return {
            f.name: f for f in ast.walk(node) if isinstance(f, ast.FunctionDef)
        }

    assert len(calls(tree(light_node), "send_to_server")) == 1

    session_tree = tree(session)
    handlers = [
        handler
        for handler in ast.walk(session_tree)
        if isinstance(handler, ast.ExceptHandler)
        and handler.type is not None
        and "VerificationError"
        in {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    ]
    assert len(handlers) == 1
    assert len(calls(session_tree, "record_verification_failure")) == 1
    attempt = functions(session_tree)["_attempt"]
    assert handlers[0] in list(ast.walk(attempt))
    assert len(calls(attempt, "record_verification_failure")) == 1

    reorg = functions(session_tree)["sync_with_reorg"]
    assert not [
        loop
        for loop in ast.walk(reorg)
        if isinstance(loop, (ast.For, ast.While))
    ]
