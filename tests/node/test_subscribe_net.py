"""Streaming subscriptions over real loopback sockets (PROTOCOL.md §10).

End-to-end shape: a FullNode + SubscriptionRegistry behind a NetServer,
a SubscriptionSession on a real TCP connection, live appends and reorgs
on the server.  Asserted invariants:

* every surfaced update was verified against trusted headers — the
  histories match the honest in-process answer byte for byte;
* a healthy subscribed connection survives the server's idle deadline
  via keepalive pings (satellite 1), while a genuinely silent one is
  reaped and counted in ``stats.subscribers_reaped``;
* a stalled consumer is evicted with the typed final frame and never
  blocks its neighbours (the socket half of satellite 3);
* the ``repro serve --mine-blocks`` / ``repro watch`` CLI pair streams
  parseable lines and shuts down cleanly on SIGINT (satellite 2).
"""

import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from netserve import NodeServer
from repro.errors import RequestShedError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import (
    PushRetraction,
    PushUpdate,
    SubscribeAck,
    SubscribeRequest,
    SubscriptionEvicted,
    UnsubscribeRequest,
)
from repro.node.net import FRAME_HEADER, EventLoopThread
from repro.node.netclient import ClientConnection
from repro.node.subscribe import (
    SubscriptionRegistry,
    SubscriptionSession,
    WatchRetraction,
    WatchUpdate,
)
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.wallet import Wallet
from repro.workload.generator import WorkloadParams, generate_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def loop_thread():
    thread = EventLoopThread("test-subscribe-loop")
    yield thread
    thread.stop()


def _build(num_blocks=8, extra=10, seed=7, txs=6):
    workload = generate_workload(
        WorkloadParams(num_blocks=num_blocks + extra, txs_per_block=txs, seed=seed)
    )
    config = SystemConfig.lvq(bf_bytes=192, segment_len=8)
    system = build_system(workload.bodies[: num_blocks + 1], config)
    return workload, config, system


def _serve(system, loop_thread, **kwargs):
    node = FullNode(system)
    registry = SubscriptionRegistry(node)
    server = NodeServer(
        node,
        subscriptions=registry,
        loop_thread=loop_thread,
        **kwargs,
    ).start()
    return node, registry, server


def _collect(session, want, timeout=10.0):
    """Drain events until ``want(events)`` is satisfied or timeout."""
    events = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        event = session.next_event(timeout=0.2)
        if event is not None:
            events.append(event)
        if want(events):
            return events
    raise AssertionError(f"condition not reached; events: {events}")


def _truth_histories(node, config, addresses, height):
    """The honest single-height answer, verified locally."""
    from repro.query.batch import verify_batch_result

    batch = node.answer_batch(list(addresses), height, height)
    return verify_batch_result(
        batch,
        node.system.headers(),
        config,
        list(addresses),
        (height, height),
    )


def _txids(histories):
    return {
        address: [(h, tx.txid()) for h, tx in history.transactions]
        for address, history in histories.items()
    }


# ---------------------------------------------------------------------------
# live updates and retractions


def test_pushed_updates_match_the_honest_answer(loop_thread):
    workload, config, system = _build()
    node, registry, server = _serve(system, loop_thread)
    light = LightNode(system.headers(), config)
    watched = list(workload.probe_addresses.values())[:3]
    try:
        with SubscriptionSession(
            light, server.address, watched, keepalive=1.0
        ) as session:
            assert session.wait_subscribed(10.0)
            for _ in range(4):
                node.extend_chain([workload.bodies[system.tip_height + 1]])
            events = _collect(
                session,
                lambda evs: sum(isinstance(e, WatchUpdate) for e in evs) >= 4,
            )
            updates = [e for e in events if isinstance(e, WatchUpdate)]
            assert [u.height for u in updates] == list(
                range(9, 13)
            ), "one update per append, in order, no gaps"
            for update in updates:
                truth = _truth_histories(node, config, watched, update.height)
                assert _txids(update.histories) == _txids(truth)
            assert light.tip_height == system.tip_height
            assert session.stats.updates_verified == 4
            assert session.stats.updates_rejected == 0
    finally:
        server.close()


def test_many_watchers_all_verify_every_push_and_converge(loop_thread):
    """24 watchers in two watch-set groups over 8 live appends: every
    session verifies all 8 pushes, rejects none and reaches the tip, and
    a wallet folding one stream per group equals the honest pull."""
    watchers, appends = 24, 8
    workload, config, system = _build(num_blocks=16, extra=appends, seed=2020)
    node, registry, server = _serve(system, loop_thread)
    probes = list(workload.probe_addresses.values())
    groups = [probes[:3], probes[3:6]]
    sessions = []
    try:
        for index in range(watchers):
            light = LightNode(system.headers(), config)
            sessions.append(
                SubscriptionSession(
                    light, server.address, groups[index % 2], keepalive=5.0
                ).start()
            )
        assert all(session.wait_subscribed(30.0) for session in sessions)
        # Verified baselines at the pre-append tip, one per group.
        wallets = [
            Wallet(LightNode(system.headers(), config), group)
            for group in groups
        ]
        for wallet in wallets:
            wallet.refresh(node)
        for _ in range(appends):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
        streams = [
            _collect(
                session,
                lambda evs: sum(isinstance(e, WatchUpdate) for e in evs)
                >= appends,
                timeout=60.0,
            )
            for session in sessions
        ]
        for session in sessions:
            assert session.stats.updates_verified == appends
            assert session.stats.updates_rejected == 0
            assert session.light.tip_height == system.tip_height
        for wallet, events in zip(wallets, streams):
            for event in events:
                wallet.apply_event(event)
            honest = Wallet(
                LightNode(system.headers(), config), wallet.addresses
            )
            honest.refresh(node)
            for address in wallet.addresses:
                assert [
                    (h, tx.txid()) for h, tx in wallet.history(address)
                ] == [(h, tx.txid()) for h, tx in honest.history(address)]
    finally:
        for session in sessions:
            session.stop()
        server.close()


def test_reorg_pushes_retraction_then_replacement_blocks(loop_thread):
    workload, config, system = _build(extra=12)
    node, registry, server = _serve(system, loop_thread)
    light = LightNode(system.headers(), config)
    watched = list(workload.probe_addresses.values())[:2]
    try:
        with SubscriptionSession(
            light, server.address, watched, keepalive=1.0
        ) as session:
            assert session.wait_subscribed(10.0)
            for _ in range(3):
                node.extend_chain([workload.bodies[system.tip_height + 1]])
            _collect(
                session,
                lambda evs: sum(isinstance(e, WatchUpdate) for e in evs) >= 3,
            )
            old_tip = system.tip_height
            fork = old_tip - 2
            alt = generate_workload(
                WorkloadParams(num_blocks=old_tip + 4, txs_per_block=6, seed=99)
            )
            node.reorg(fork, alt.bodies[fork + 1 : old_tip + 2])
            new_tip = system.tip_height
            assert new_tip > old_tip

            events = _collect(
                session,
                lambda evs: any(isinstance(e, WatchRetraction) for e in evs)
                and light.tip_height == new_tip,
            )
            retraction = next(
                e for e in events if isinstance(e, WatchRetraction)
            )
            assert retraction.fork_height == fork
            assert retraction.old_tip == old_tip
            # The replacement branch arrived verified, frame by frame.
            assert [
                h.block_id() for h in light.headers
            ] == [h.block_id() for h in system.headers()]
            assert session.stats.updates_rejected == 0
    finally:
        server.close()


def test_unsubscribe_over_the_wire_and_no_marker_collision(loop_thread):
    """Wire unsubscribe round-trips — and no tag shadows a frame marker.

    Regression: the original tag assignment gave UnsubscribeRequest and
    PushUpdate the bytes 0x10/0x11, which first-byte dispatch reserves
    for frame markers (PROTOCOL.md §8.3: zlib, and a reserved tag) — an
    unsubscribe on the wire was "decompressed" into an EncodingError.
    Subscription tags now start at 0x14.
    """
    from repro.node.transport import FRAME_RESERVED, FRAME_ZLIB

    for message_class in (
        SubscribeRequest,
        SubscribeAck,
        UnsubscribeRequest,
        PushUpdate,
        PushRetraction,
        SubscriptionEvicted,
    ):
        assert message_class.type_tag not in (FRAME_ZLIB, FRAME_RESERVED), (
            f"{message_class.__name__} tag collides with a frame marker"
        )

    workload, config, system = _build()
    node, registry, server = _serve(system, loop_thread)
    watched = list(workload.probe_addresses.values())[:2]
    try:
        connection = ClientConnection(server.address)
        try:
            ack = SubscribeAck.deserialize(
                connection.request(SubscribeRequest(watched).serialize(), 5.0)
            )
            assert registry.stats.active == 1
            echo = SubscribeAck.deserialize(
                connection.request(
                    UnsubscribeRequest(ack.subscription_id).serialize(), 5.0
                )
            )
            assert echo.subscription_id == ack.subscription_id
            assert echo.tip_height == system.tip_height
            assert registry.stats.active == 0
            # The channel is mute now: an append pushes nothing here.
            node.extend_chain([workload.bodies[system.tip_height + 1]])
            assert registry.stats.update_frames == 0
        finally:
            connection.close()
    finally:
        server.close()


# ---------------------------------------------------------------------------
# satellite 1: idle deadline vs keepalive


def test_keepalive_outlives_the_idle_deadline(loop_thread):
    workload, config, system = _build()
    node, registry, server = _serve(system, loop_thread, idle_timeout=0.6)
    light = LightNode(system.headers(), config)
    watched = [list(workload.probe_addresses.values())[0]]
    try:
        with SubscriptionSession(
            light, server.address, watched, keepalive=0.2
        ) as session:
            # Several idle windows pass with no appends at all.
            time.sleep(2.0)
            assert session.stats.keepalives >= 2
            assert session.stats.disconnects == 0
            assert server.stats.subscribers_reaped == 0
            assert registry.stats.active == 1
            # ...and the stream still works afterwards.
            node.extend_chain([workload.bodies[system.tip_height + 1]])
            _collect(
                session,
                lambda evs: any(isinstance(e, WatchUpdate) for e in evs),
            )
    finally:
        server.close()


def test_silent_subscriber_is_reaped_and_counted(loop_thread):
    workload, config, system = _build()
    node, registry, server = _serve(system, loop_thread, idle_timeout=0.3)
    try:
        conn = ClientConnection(server.address)
        conn.send_frame(
            SubscribeRequest(["whoever"]).serialize(), time.monotonic() + 5.0
        )
        ack = SubscribeAck.deserialize(conn.recv_frame(time.monotonic() + 5.0))
        assert ack.subscription_id >= 1
        assert registry.stats.active == 1

        # No pings, no frames: the idle deadline must reap and the reap
        # must be attributed to a live subscriber.
        deadline = time.monotonic() + 5.0
        while registry.stats.active and time.monotonic() < deadline:
            time.sleep(0.05)
        assert registry.stats.active == 0, "registry must forget the reaped sub"
        assert server.stats.subscribers_reaped == 1
        assert server.stats.connections_reaped == 1
        conn.close()
    finally:
        server.close()


# ---------------------------------------------------------------------------
# satellite 3, socket half: slow-consumer eviction on a real connection


def test_slow_socket_consumer_gets_typed_eviction_frame(loop_thread):
    workload, config, system = _build(num_blocks=8, extra=80, seed=11)
    node, registry, server = _serve(
        system,
        loop_thread,
        push_outbox=4,
        # Zero transport buffer: the stalled socket's backpressure hits
        # the outbox as soon as the kernel buffers fill, instead of
        # hiding behind asyncio's 64 KiB high-water default.
        push_buffer_bytes=0,
        idle_timeout=30.0,
        write_timeout=30.0,
    )
    # Clamp the kernel send buffer (inherited by accepted sockets, and an
    # explicit SO_SNDBUF disables autotuning) so the stalled reader's
    # backpressure reaches the outbox within a few dozen frames instead
    # of vanishing into megabytes of autotuned kernel buffer.
    for listener in server._server.sockets:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    watched = list(workload.probe_addresses.values())[:4]
    light = LightNode(system.headers(), config)
    try:
        # A healthy session rides along to prove no head-of-line blocking.
        healthy = SubscriptionSession(
            light, server.address, watched, keepalive=1.0
        ).start()
        assert healthy.wait_subscribed(10.0)

        # The stalled client: tiny receive buffer, subscribes, then
        # stops reading entirely.
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.connect(server.address)
        request = SubscribeRequest(watched).serialize()
        raw.sendall(FRAME_HEADER.pack(len(request)) + request)
        header = raw.recv(FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        ack = SubscribeAck.deserialize(raw.recv(length))
        assert registry.stats.active == 2

        appended = 0
        deadline = time.monotonic() + 30.0
        while (
            registry.stats.evicted_slow == 0
            and system.tip_height + 1 < len(workload.bodies)
            and time.monotonic() < deadline
        ):
            node.extend_chain([workload.bodies[system.tip_height + 1]])
            appended += 1
            # Pace on the healthy watcher so only the stalled socket backs
            # up: eviction must single out the consumer that stopped
            # reading, not whoever verifies slowest.
            while (
                light.tip_height < system.tip_height
                and registry.stats.evicted_slow == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert registry.stats.evicted_slow == 1, (
            f"stalled consumer not evicted after {appended} appends"
        )
        assert registry.stats.frames_dropped >= server.push_outbox
        assert registry.stats.active == 1, "outbox entry reclaimed"

        # The healthy neighbour kept receiving everything, unblocked.
        final_tip = system.tip_height
        deadline = time.monotonic() + 20.0
        while light.tip_height < final_tip and time.monotonic() < deadline:
            time.sleep(0.05)
        assert light.tip_height == final_tip
        assert healthy.stats.updates_rejected == 0
        healthy.stop()

        # The stalled client, finally reading, sees pending pushes and
        # then the typed eviction notice as the stream's final frame.
        raw.settimeout(10.0)
        saw_eviction = False
        buffered = b""
        while not saw_eviction:
            while len(buffered) < FRAME_HEADER.size:
                chunk = raw.recv(65536)
                if not chunk:
                    raise AssertionError(
                        "connection closed before the eviction frame"
                    )
                buffered += chunk
            (length,) = FRAME_HEADER.unpack(buffered[: FRAME_HEADER.size])
            while len(buffered) < FRAME_HEADER.size + length:
                chunk = raw.recv(65536)
                if not chunk:
                    raise AssertionError("truncated frame from the server")
                buffered += chunk
            frame = buffered[FRAME_HEADER.size : FRAME_HEADER.size + length]
            buffered = buffered[FRAME_HEADER.size + length :]
            if frame[0] == SubscriptionEvicted.type_tag:
                notice = SubscriptionEvicted.deserialize(frame)
                assert notice.subscription_id == ack.subscription_id
                assert notice.dropped_frames >= server.push_outbox
                assert notice.reason == "outbox overflow"
                saw_eviction = True
            else:
                assert frame[0] == PushUpdate.type_tag
        # After the final frame the server severs the connection.
        raw.settimeout(10.0)
        while True:
            tail = raw.recv(65536)
            if not tail:
                break
        raw.close()
    finally:
        server.close()


# ---------------------------------------------------------------------------
# §11: a shed backfill heals through the verified pull path


class _ShedFirstSession(SubscriptionSession):
    """A session whose first N backfill batch queries are refused with
    a §11 shed frame — the remote itself stays honest throughout."""

    def __init__(self, *args, shed_times=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.sheds_left = shed_times

    def _remote(self):
        inner = super()._remote()
        outer = self

        class _Shedding:
            def handle_batch_query(self, payload):
                if outer.sheds_left > 0:
                    outer.sheds_left -= 1
                    raise RequestShedError(
                        "batch", "shed_batch", retry_after=0.05
                    )
                return inner.handle_batch_query(payload)

            def __getattr__(self, name):
                return getattr(inner, name)

        return _Shedding()


def test_shed_backfill_heals_through_verified_pull(loop_thread):
    """A subscriber whose catch-up backfill is load-shed (typed §11
    refusal, retry hint) waits the hint out and completes the identical
    verified range query — no teardown, no unverified data, no gap."""
    workload, config, system = _build(extra=12)
    node, registry, server = _serve(system, loop_thread)
    light = LightNode(system.headers(), config)
    watched = list(workload.probe_addresses.values())[:3]
    gap_first = system.tip_height + 1
    for _ in range(3):
        node.extend_chain([workload.bodies[system.tip_height + 1]])
    gap_last = system.tip_height

    session = _ShedFirstSession(
        light, server.address, watched, keepalive=1.0, shed_times=2
    )
    session.start()
    try:
        assert session.wait_subscribed(10.0)
        deadline = time.monotonic() + 15.0
        events = []
        while light.tip_height < system.tip_height:
            assert time.monotonic() < deadline, (
                f"backfill never healed; events: {events}"
            )
            event = session.next_event(timeout=0.2)
            if event is not None:
                events.append(event)
        assert session.sheds_left == 0, "the shed path was never exercised"
        assert session.stats.backpressure_waits == 2
        backfills = [e for e in events if e.kind == "backfill"]
        assert any(
            b.first_height <= gap_first and b.last_height >= gap_last
            for b in backfills
        ), f"gap [{gap_first},{gap_last}] not covered: {backfills}"
        # The healed answer is the honest one, height by height.
        for backfill in backfills:
            for height in range(
                backfill.first_height, backfill.last_height + 1
            ):
                truth = _truth_histories(node, config, watched, height)
                for address, history in backfill.histories.items():
                    got = [
                        (h, tx.txid())
                        for h, tx in history.transactions
                        if h == height
                    ]
                    expected = [
                        (h, tx.txid())
                        for h, tx in truth[address].transactions
                        if h == height
                    ]
                    assert got == expected, (
                        f"backfill diverged at {height} for {address}"
                    )
        assert session.stats.verification_failures == 0
    finally:
        session.stop()
        server.close()


# ---------------------------------------------------------------------------
# satellite 2: the CLI pair, as real subprocesses


_SERVE_RE = re.compile(r"serving on ([0-9.]+):(\d+)")


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def test_cli_watch_streams_parseable_lines_and_stops_cleanly():
    chain = ["--blocks", "12", "--txs-per-block", "6", "--seed", "31"]
    daemon = _spawn(
        ["serve", *chain, "--port", "0",
         "--mine-blocks", "24", "--mine-interval", "0.5"]
    )
    watcher = None
    try:
        address = None
        deadline = time.monotonic() + 60.0
        while address is None:
            line = daemon.stdout.readline()
            match = _SERVE_RE.search(line or "")
            if match:
                address = f"{match.group(1)}:{match.group(2)}"
            assert daemon.poll() is None and time.monotonic() < deadline, (
                "daemon failed to start"
            )

        watcher = _spawn(
            ["watch", *chain, "--connect", address,
             "Addr4", "Addr5", "--max-updates", "3", "--keepalive", "0.5"]
        )
        out, _ = watcher.communicate(timeout=60.0)
        assert watcher.returncode == 0, out
        update_lines = [
            line for line in out.splitlines()
            if re.fullmatch(r"update height=\d+ hits=\d+ quiet=\d+ txs=\d+", line)
        ]
        assert len(update_lines) >= 3, out
        assert "0 unverified surfaced" in out

        # Ctrl-C on a fresh watcher: graceful shutdown, still exit 0.
        watcher = _spawn(["watch", *chain, "--connect", address, "Addr4"])
        time.sleep(2.0)
        assert watcher.poll() is None
        watcher.send_signal(signal.SIGINT)
        out, _ = watcher.communicate(timeout=30.0)
        assert watcher.returncode == 0, out
        assert "watch done:" in out
    finally:
        if watcher is not None and watcher.poll() is None:
            watcher.kill()
            watcher.communicate()
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(30.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
