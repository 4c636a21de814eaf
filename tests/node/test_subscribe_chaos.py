"""Streaming chaos: the watch stream under faults, crashes, and lies.

Three adversaries against a live :class:`SubscriptionSession`:

* **socket chaos** — a :class:`SocketFaultInjector` between session and
  server drops, corrupts, delays, duplicates, and resets frames while
  the chain grows.  The session may reconnect and resync as often as it
  needs, but every event it surfaces must be verified: a wallet folding
  the stream must end byte-identical to the honest pull answer.
* **kill the server mid-stream** — the server is hard-killed (RST),
  blocks are mined while it is down, and it restarts on the same port.
  The session must reconnect, resubscribe, and cover the outage through
  a verified backfill range query (PROTOCOL.md §10.6).
* **a Byzantine server** — every batch proof it serves has one flipped
  byte.  The session must reject every push, surface *nothing*, and
  tear the stream down with a typed final disconnect; at no point may a
  wrong update reach the consumer.
"""

import time

import pytest

from netserve import NodeServer
from test_subscribe_net import _build, _serve, _truth_histories, _txids

from repro.node.faults import (
    FaultKind,
    FaultRule,
    FaultSchedule,
    SocketFaultInjector,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.net import EventLoopThread
from repro.node.session import RetryPolicy
from repro.node.subscribe import SubscriptionRegistry, SubscriptionSession
from repro.wallet import Wallet


@pytest.fixture(scope="module")
def loop_thread():
    thread = EventLoopThread("test-subscribe-chaos-loop")
    yield thread
    thread.stop()


def _drain(session, events, wallet=None, timeout=0.05):
    """Move every queued event into ``events`` (and the wallet)."""
    while True:
        event = session.next_event(timeout=timeout)
        if event is None:
            return
        events.append(event)
        if wallet is not None:
            wallet.apply_event(event)


# ---------------------------------------------------------------------------
# socket chaos: faults on the wire, zero unverified events surfaced


def test_watch_stream_survives_socket_chaos_zero_unverified(loop_thread):
    workload, config, system = _build(num_blocks=8, extra=32, seed=13)
    node, registry, server = _serve(system, loop_thread)
    schedule = FaultSchedule(
        [
            FaultRule(FaultKind.DROP, probability=0.06),
            FaultRule(FaultKind.CORRUPT, probability=0.06, param=3),
            FaultRule(FaultKind.DELAY, probability=0.10, param=1.0),
            FaultRule(FaultKind.DUPLICATE, probability=0.05),
            FaultRule(FaultKind.CLOSE, probability=0.04, param=64),
        ],
        seed=29,
    )
    injector = SocketFaultInjector(
        server.address, schedule, loop_thread=loop_thread
    )
    injector.start()
    light = LightNode(system.headers(), config)
    watched = list(workload.probe_addresses.values())[:3]
    wallet = Wallet(light, watched)
    wallet.refresh(node)  # verified in-process baseline at the quiet tip
    session = SubscriptionSession(
        light,
        injector.address,
        watched,
        keepalive=0.3,
        request_timeout=5.0,
        retry_policy=RetryPolicy(
            max_rounds=100, base_delay=0.02, max_delay=0.2
        ),
    )
    events = []
    session.start()
    try:
        for _ in range(20):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
            time.sleep(0.05)
            _drain(session, events, wallet, timeout=0.0)

        # Stop injecting for the tail so convergence is deterministic;
        # nudge with spare blocks if the last chaotic push was swallowed
        # (a lost *final* frame leaves no later push to expose the gap).
        schedule.rules.clear()
        deadline = time.monotonic() + 30.0
        last_tip, stalled_since = -1, time.monotonic()
        while (
            light.tip_height < system.tip_height
            and time.monotonic() < deadline
        ):
            _drain(session, events, wallet, timeout=0.1)
            if light.tip_height != last_tip:
                last_tip = light.tip_height
                stalled_since = time.monotonic()
            elif (
                time.monotonic() - stalled_since > 2.0
                and system.tip_height + 1 < len(workload.bodies)
            ):
                node.extend_chain([workload.bodies[system.tip_height + 1]])
                stalled_since = time.monotonic()
        _drain(session, events, wallet, timeout=0.1)
    finally:
        session.stop()
        injector.close()
        server.close()

    assert sum(schedule.fault_counts.values()) > 0, (
        "no faults fired — the chaos run did not exercise anything"
    )
    assert light.tip_height == system.tip_height, (
        f"watcher never converged: {light.tip_height} < {system.tip_height}"
    )
    # Availability: the session rode out every fault without giving up.
    assert not any(
        e.kind == "disconnect" and e.final for e in events
    ), "session gave up under survivable chaos"
    assert session.stats.updates_verified >= 1

    # Every surfaced update matches the honest single-height answer.
    for event in events:
        if event.kind == "update":
            truth = _truth_histories(node, config, watched, event.height)
            assert _txids(event.histories) == _txids(truth), (
                f"unverified update surfaced at height {event.height}"
            )

    # The folded wallet equals the honest pull answer — the stream lost
    # nothing, invented nothing, double-counted nothing.
    honest_light = LightNode(system.headers(), config)
    honest_wallet = Wallet(honest_light, watched)
    honest_wallet.refresh(node)
    for address in watched:
        streamed = [(h, tx.txid()) for h, tx in wallet.history(address)]
        honest = [(h, tx.txid()) for h, tx in honest_wallet.history(address)]
        assert streamed == honest, f"wallet diverged for {address}"
    assert wallet.balances() == honest_wallet.balances()


# ---------------------------------------------------------------------------
# kill the server mid-stream: reconnect, resubscribe, verified backfill


def test_kill_server_mid_stream_resubscribes_and_backfills(loop_thread):
    workload, config, system = _build(num_blocks=8, extra=12, seed=17)
    node, registry, server = _serve(system, loop_thread)
    address = server.address
    light = LightNode(system.headers(), config)
    watched = list(workload.probe_addresses.values())[:3]
    session = SubscriptionSession(
        light,
        address,
        watched,
        keepalive=0.3,
        request_timeout=5.0,
        retry_policy=RetryPolicy(
            max_rounds=100, base_delay=0.05, max_delay=0.3
        ),
    )
    events = []
    replacement = None
    session.start()
    try:
        assert session.wait_subscribed(10.0)
        for _ in range(2):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
        deadline = time.monotonic() + 10.0
        while (
            light.tip_height < system.tip_height
            and time.monotonic() < deadline
        ):
            _drain(session, events, timeout=0.1)
        assert light.tip_height == system.tip_height, "pre-kill stream broken"

        server.abort()  # RST the live stream mid-flight
        missed_first = system.tip_height + 1
        for _ in range(3):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
        missed_last = system.tip_height
        time.sleep(0.3)  # session churns against a dead port

        replacement = NodeServer(
            node,
            host=address[0],
            port=address[1],
            subscriptions=registry,
            loop_thread=loop_thread,
        ).start()

        deadline = time.monotonic() + 20.0
        while (
            light.tip_height < system.tip_height
            and time.monotonic() < deadline
        ):
            _drain(session, events, timeout=0.1)
        assert light.tip_height == system.tip_height, (
            "no recovery after restart"
        )

        # The outage is covered by a verified backfill range query, not
        # by replayed pushes.
        backfills = [e for e in events if e.kind == "backfill"]
        assert any(
            b.first_height <= missed_first and b.last_height >= missed_last
            for b in backfills
        ), f"outage [{missed_first},{missed_last}] not backfilled: {backfills}"
        for backfill in backfills:
            for height in range(
                backfill.first_height, backfill.last_height + 1
            ):
                truth = _truth_histories(node, config, watched, height)
                for address_, history in backfill.histories.items():
                    expected = truth[address_]
                    got = [
                        (h, tx.txid())
                        for h, tx in history.transactions
                        if h == height
                    ]
                    want = [
                        (h, tx.txid())
                        for h, tx in expected.transactions
                        if h == height
                    ]
                    assert got == want, f"backfill wrong at height {height}"

        assert session.stats.subscribes >= 2, "did not resubscribe"
        assert session.stats.disconnects >= 1
        assert not any(e.kind == "disconnect" and e.final for e in events)

        # And the resumed stream is live again: one more mined block
        # arrives as a pushed, verified update.
        node.extend_chain([workload.bodies[system.tip_height + 1]])
        deadline = time.monotonic() + 10.0
        while (
            light.tip_height < system.tip_height
            and time.monotonic() < deadline
        ):
            _drain(session, events, timeout=0.1)
        assert light.tip_height == system.tip_height, "stream not live again"
    finally:
        session.stop()
        if replacement is not None:
            replacement.close()
        server.close()


# ---------------------------------------------------------------------------
# Byzantine server: every proof is subtly wrong, nothing may surface


class _TamperedBatch:
    """Duck-typed batch result whose serialization lies by one byte."""

    def __init__(self, honest):
        self._honest = honest

    def __getattr__(self, name):
        return getattr(self._honest, name)

    def serialize(self, config):
        raw = bytearray(self._honest.serialize(config))
        raw[len(raw) // 2] ^= 0x55
        return bytes(raw)


class _LyingNode(FullNode):
    """Serves honest headers but tampers every batch proof."""

    def answer_batch(self, addresses, first_height, last_height):
        honest = super().answer_batch(addresses, first_height, last_height)
        return _TamperedBatch(honest)


def test_byzantine_server_cannot_surface_wrong_updates(loop_thread):
    workload, config, system = _build(num_blocks=8, extra=6, seed=23)
    node = _LyingNode(system)
    registry = SubscriptionRegistry(node)
    server = NodeServer(
        node, subscriptions=registry, loop_thread=loop_thread
    ).start()
    light = LightNode(system.headers(), config)
    baseline_tip = light.tip_height
    watched = list(workload.probe_addresses.values())[:3]
    session = SubscriptionSession(
        light,
        server.address,
        watched,
        keepalive=0.3,
        request_timeout=2.0,
        max_reconnects=3,
        retry_policy=RetryPolicy(max_rounds=5, base_delay=0.02, max_delay=0.1),
    )
    events = []
    session.start()
    try:
        assert session.wait_subscribed(10.0)
        for _ in range(3):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
        deadline = time.monotonic() + 40.0
        while time.monotonic() < deadline:
            _drain(session, events, timeout=0.2)
            if any(e.kind == "disconnect" and e.final for e in events):
                break
        else:
            raise AssertionError(f"no final disconnect; events: {events}")
    finally:
        session.stop()
        server.close()

    # Nothing unverified surfaced — not one update, not one backfill.
    surfaced = [e for e in events if e.kind in ("update", "backfill")]
    assert surfaced == [], f"Byzantine data surfaced: {surfaced}"
    assert session.stats.updates_verified == 0
    assert session.stats.updates_rejected >= 1, (
        "the tampered push was never even examined"
    )
    # The delivered watermark never moved past the honest prefix.
    assert session._delivered_through == baseline_tip
    assert session.stats.evictions == 0
