"""Overload chaos: admission control under the PR-2 fault matrix.

Every one of the seeded chaos schedules (same ``MATRIX_SEED`` as
``test_chaos.py``) runs against a full node served
through the admission-controlled :class:`QueryServer` while a hot
client floods its own token bucket from another thread.  Gates:

* **zero unverified answers** — every history the session surfaces is
  byte-identical to the honest baseline, even with a byzantine peer in
  the mix and the server under flood;
* **availability 1.0 for admitted traffic** — the benign-faulted
  honest peer answers every scenario despite the concurrent flood, and
  every request the flood itself got *admitted* completes;
* **overload is traffic, not malice** — the honest peer is never
  banned, and a pure-overload refusal never touches score or the
  quarantine ladder.
"""

import random
import threading
import time

import pytest

from repro.errors import (
    BackpressureError,
    RateLimitedError,
    ReproError,
)
from repro.node.faults import (
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import QueryRequest
from repro.node.server import QueryServer
from repro.node.session import Peer, QuerySession, RetryPolicy
from repro.node.transport import SimulatedClock
from repro.query.adversary import ALL_ATTACKS, MaliciousFullNode

SCENARIOS_PER_SYSTEM = 48
MATRIX_SEED = 20200704  # PR 2's chaos seed
INDICES = list(range(SCENARIOS_PER_SYSTEM))

_ATTACK_NAMES = sorted(ALL_ATTACKS)
_PROBES = ("Addr1", "Addr2", "Addr3", "Addr4", "Addr5", "Addr6")


class ServedNode:
    """The FullNode handler surface, routed through an admission-
    controlled :class:`QueryServer` — what an honest peer looks like to
    the session when the server is protecting itself under load."""

    def __init__(self, query_server, label):
        self._server = query_server
        self._label = label

    def _route(self, payload):
        return self._server.submit(payload, client=self._label).result(10.0)

    def handle_query(self, payload):
        return self._route(payload)

    def handle_batch_query(self, payload):
        return self._route(payload)

    def handle_headers(self, payload):
        return self._route(payload)

    @property
    def tip_height(self):
        return self._server.node.tip_height


def _benign_schedule(rng):
    """PR 2's benign generator: finite drops plus latency — can slow a
    peer, never starve it (availability stays structural)."""
    rules = []
    dropped = sorted(rng.sample(range(8), rng.randrange(0, 4)))
    if dropped:
        rules.append(FaultRule(FaultKind.DROP, at_messages=dropped))
    if rng.random() < 0.7:
        rules.append(
            FaultRule(
                FaultKind.DELAY,
                probability=rng.uniform(0.2, 0.8),
                param=rng.uniform(0.05, 0.5),
            )
        )
    return FaultSchedule(rules, seed=rng.randrange(1 << 30))


def _history_key(history):
    return [(h, t.txid()) for h, t in history.transactions]


class _WallClock:
    """Real time, for tests that coordinate with actual worker threads
    (the session default is a SimulatedClock whose sleeps are instant)."""

    @staticmethod
    def now():
        return time.monotonic()

    @staticmethod
    def sleep(seconds):
        time.sleep(seconds)


@pytest.mark.parametrize("index", INDICES)
def test_overload_chaos_admitted_traffic_fully_available(
    lvq_system, probe_addresses, index
):
    """Chaos matrix × flood: right answer, full availability, no bans."""
    rng = random.Random(MATRIX_SEED + 555_000 + index)
    clock = SimulatedClock()
    query_server = QueryServer(
        FullNode(lvq_system),
        num_workers=2,
        max_pending=32,
        rate_limit=200.0,
        rate_burst=8.0,
    )
    schedule = _benign_schedule(rng)
    served = ServedNode(query_server, "session")
    peers = [
        Peer(
            "honest0",
            served,
            transport_factory=lambda: FaultyTransport(
                schedule=schedule, clock=clock
            ),
        )
    ]
    if rng.random() < 0.5:
        # A liar alongside: the flood must not soften verification.
        attack = ALL_ATTACKS[rng.choice(_ATTACK_NAMES)]
        peers.append(Peer("liar", MaliciousFullNode(lvq_system, attack)))
    rng.shuffle(peers)
    honest = next(p for p in peers if p.label == "honest0")

    address = probe_addresses[rng.choice(_PROBES)]
    light = LightNode(lvq_system.headers(), lvq_system.config)
    expected = _history_key(
        LightNode(lvq_system.headers(), lvq_system.config).query_history(
            FullNode(lvq_system), address
        )
    )

    hot_stop = threading.Event()
    hot_stats = {"admitted": 0, "limited": 0, "other": 0}
    hot_failures = []
    flood_payload = QueryRequest(address).serialize()

    def flood():
        futures = []
        while not hot_stop.is_set():
            try:
                futures.append(
                    query_server.submit(flood_payload, client="hot")
                )
                hot_stats["admitted"] += 1
            except RateLimitedError:
                hot_stats["limited"] += 1
            except BackpressureError:
                hot_stats["other"] += 1
            time.sleep(0.001)
        for future in futures:
            try:
                future.result(10.0)
            except Exception as error:  # noqa: BLE001 - gate below
                hot_failures.append(error)

    session = QuerySession(
        light,
        peers,
        clock=clock,
        request_timeout=5.0,
        retry=RetryPolicy(
            max_rounds=8, base_delay=0.05, max_delay=0.5, jitter=0.25
        ),
        quarantine_base=0.05,
        seed=rng.randrange(1 << 30),
    )
    flooder = threading.Thread(target=flood)
    flooder.start()
    try:
        # Let the flood actually saturate its bucket before querying,
        # so the session demonstrably runs *during* the overload.
        deadline = time.monotonic() + 5.0
        while hot_stats["limited"] == 0:
            assert time.monotonic() < deadline, "flood never saturated"
            time.sleep(0.001)
        try:
            history = session.query(address)
        except ReproError as error:
            pytest.fail(
                f"availability violated on scenario {index}: benign-faulted "
                f"honest peer behind admission control denied: {error}"
            )
    finally:
        hot_stop.set()
        flooder.join(30.0)
        query_server.close()

    assert _history_key(history) == expected, (
        f"WRONG HISTORY under overload chaos, scenario {index}"
    )
    assert hot_stats["limited"] > 0, "the flood never hit its rate limit"
    assert not hot_failures, (
        f"admitted flood traffic failed: {hot_failures[:3]}"
    )
    assert not honest.banned, "an overloaded honest peer must never be banned"


def test_overloaded_peer_heals_without_quarantine(
    lvq_system, probe_addresses
):
    """A peer refusing with queue-full overload is retried flat — the
    query lands once the burst drains, with score and quarantine ladder
    untouched (overload is traffic, not evidence of misbehaviour)."""
    node = FullNode(lvq_system)
    gate = threading.Event()
    original = node.handle_query

    def gated_handle(payload):
        gate.wait(10.0)
        return original(payload)

    node.handle_query = gated_handle
    query_server = QueryServer(node, num_workers=1, max_pending=1)
    address = probe_addresses["Addr3"]
    blocker_payload = QueryRequest(address).serialize()
    try:
        # Occupy the worker, then the single queue slot.
        background = [query_server.submit(blocker_payload, client="bg")]
        deadline = time.monotonic() + 5.0
        while query_server.stats()["queue_depth"] > 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        background.append(query_server.submit(blocker_payload, client="bg"))
        assert query_server.stats()["queue_depth"] == 1

        served = ServedNode(query_server, "session")
        peer = Peer("honest", served)
        light = LightNode(lvq_system.headers(), lvq_system.config)
        session = QuerySession(
            light,
            [peer],
            clock=_WallClock(),
            request_timeout=5.0,
            retry=RetryPolicy(max_rounds=12, base_delay=0.05, max_delay=0.2),
            quarantine_base=0.05,
            seed=11,
        )
        threading.Timer(0.4, gate.set).start()
        history = session.query(address)

        expected = _history_key(
            LightNode(lvq_system.headers(), lvq_system.config).query_history(
                FullNode(lvq_system), address
            )
        )
        assert _history_key(history) == expected
        assert peer.stats.overloads >= 1, "the overload path never fired"
        assert peer.quarantined_until == 0.0, (
            "overload refusals must never feed the quarantine ladder"
        )
        assert peer.score == 1.0
        assert not peer.banned
        assert query_server.stats()["admission"]["queue_full"] >= 1
        for future in background:
            future.result(10.0)
    finally:
        gate.set()
        query_server.close()
        node.handle_query = original
