"""Streaming watch-address subscriptions (PROTOCOL.md §10).

The pull protocol answers "what happened to these addresses?"; this
module answers it *continuously*.  A wallet-style client registers a
watch set once and the server pushes one frame per appended block:

* a block none of the watched addresses touch arrives as a compact
  **BF-negative attestation** (the per-address answers in the pushed
  batch are empty, and the authenticated filters prove that emptiness);
* a block that hits an address arrives with the full **SMT existence +
  Merkle/BMT inclusion** machinery a pull query would carry;
* a reorg arrives as a **retraction** naming the fork height, followed
  by the replacement blocks as ordinary updates whose headers must link
  onto the retained prefix.

Nothing pushed is trusted: every update passes the identical
``verify_batch_result`` path a pull query uses before it is surfaced,
so a Byzantine server can *deny* updates (which reconnect + backfill
repair through the normal verified request path) but never *deceive*.

Server side, :class:`SubscriptionRegistry` hooks the
:class:`~repro.query.builder.BuiltSystem` append/reorg listeners —
update frames are built while the write lock is still held, so the
proof's tip is exactly the pushed block's height — and fans frames out
to per-subscriber bounded outboxes.  A subscriber that stops draining
its socket overflows its outbox and is **evicted**: the queued frames
are reclaimed, one typed :class:`~repro.node.messages.SubscriptionEvicted`
frame takes their place, and the connection is closed; other
subscribers never block on the slow one (no head-of-line blocking).

Client side, :class:`SubscriptionSession` owns a dedicated watch
connection (push frames would desynchronize a pooled request/response
socket), keeps the stream alive with keepalive pings inside the
server's idle deadline, verifies every frame, and resolves every
irregularity — gaps, missed retractions, reconnects after a server
crash — through :class:`~repro.node.light_node.LightNode`'s verified
header-sync and range-query path.
"""

from __future__ import annotations

import queue
import random
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.block import BlockHeader
from repro.crypto.encoding import ByteReader
from repro.errors import (
    BackpressureError,
    CompletenessError,
    EncodingError,
    QueryError,
    ReproError,
    StaleChainError,
    SubscriberEvictedError,
    TransportError,
    VerificationError,
)
from repro.node import messages as _messages
from repro.node.light_node import LightNode
from repro.node.netclient import ClientConnection, ConnectionPool, RemoteFullNode
from repro.node.session import RetryPolicy
from repro.node.transport import DEFAULT_MAX_FRAME_BYTES
from repro.query.batch import BatchQueryResult, verify_batch_result
from repro.query.verifier import VerifiedHistory

#: ``channel.push`` outcomes (the sink protocol's return values).
PUSH_OK = "ok"
PUSH_OVERFLOW = "overflow"
PUSH_CLOSED = "closed"
#: Sync-then-query rounds a backfill tries before giving up: the
#: server's tip may advance between the header sync and the query.
MAX_BACKFILL_RETRIES = 4


# ---------------------------------------------------------------------------
# server side: the registry


class SubscriptionStats:
    """Counters for one :class:`SubscriptionRegistry`."""

    __slots__ = (
        "active",
        "subscribed_total",
        "unsubscribed",
        "evicted_slow",
        "frames_dropped",
        "channels_detached",
        "updates_built",
        "update_frames",
        "retraction_frames",
        "build_failures",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> "dict[str, int]":
        return {name: getattr(self, name) for name in self.__slots__}


class _ServerSubscription:
    __slots__ = ("sub_id", "addresses", "channel")

    def __init__(self, sub_id: int, addresses: Tuple[str, ...], channel) -> None:
        self.sub_id = sub_id
        self.addresses = addresses
        self.channel = channel


def _attach_listeners(registry: "SubscriptionRegistry", system) -> None:
    # Weakref, like FullNode's cache hookup: tests build many short-lived
    # registries over one shared system; dead ones must not keep firing.
    ref = weakref.ref(registry)

    def _on_append(ref=ref):
        live = ref()
        if live is not None:
            live._on_append()

    def _on_reorg(fork_height: int, ref=ref):
        live = ref()
        if live is not None:
            live._on_reorg(fork_height)

    system.add_append_listener(_on_append)
    system.add_reorg_listener(_on_reorg)


class SubscriptionRegistry:
    """Per-client watch sets, bounded outboxes, slow-consumer eviction.

    ``node`` is the :class:`~repro.node.full_node.FullNode` whose system
    the registry listens to; updates are built through
    ``node.answer_batch`` so adversarial node doubles tamper with pushed
    proofs exactly as they tamper with pulled ones (and the client's
    verification rejects both the same way).

    A *channel* is any object with the small sink protocol::

        push(frame: bytes) -> "ok" | "overflow" | "closed"
        evict(frame_factory: Callable[[int], bytes]) -> int

    ``push`` enqueues one frame; ``evict`` reclaims the queued frames,
    replaces them with one final frame built from the drop count, and
    returns that count.  The channel owns the outbox bound: the TCP
    transport's push channel implements it against an asyncio writer
    task, bounded by ``NetServer(push_outbox=)``; tests implement it
    with a list.

    Fan-out runs inside the system's append/reorg listeners — i.e. under
    the write lock — which is deadlock-free because the RWLock lets the
    writing thread reacquire the read side (``answer_batch`` reads), and
    it is what pins ``batch.tip_height`` to the pushed height.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.system = node.system
        self.config = node.system.config
        self.stats = SubscriptionStats()
        self._lock = threading.Lock()
        self._subs: Dict[int, _ServerSubscription] = {}
        self._by_channel: "Dict[object, set[int]]" = {}
        self._next_id = 1
        self._tip = self.system.tip_height
        self._closed = False
        _attach_listeners(self, self.system)

    # -- registration ------------------------------------------------------

    def subscribe(
        self, addresses: Sequence[str], channel
    ) -> Tuple[int, int]:
        """Register a watch set on ``channel``; returns ``(id, tip)``.

        ``tip`` is the registry's tip at registration: every append the
        listeners see after this call will be pushed to ``channel``, so
        the client backfills exactly up to ``tip`` and no further.
        """
        request = _messages.SubscribeRequest(list(addresses))  # validates
        with self._lock:
            if self._closed:
                raise QueryError("subscription registry is closed")
            sub_id = self._next_id
            self._next_id += 1
            sub = _ServerSubscription(sub_id, tuple(request.addresses), channel)
            self._subs[sub_id] = sub
            self._by_channel.setdefault(channel, set()).add(sub_id)
            self.stats.subscribed_total += 1
            self.stats.active = len(self._subs)
            return sub_id, self._tip

    def unsubscribe(self, sub_id: int, channel) -> int:
        """Drop one subscription; returns the registry tip for the ack."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None or sub.channel is not channel:
                # Ids are guessable integers: only the owning connection
                # may drop a subscription.
                raise QueryError(f"no subscription {sub_id} on this connection")
            del self._subs[sub_id]
            ids = self._by_channel.get(channel)
            if ids is not None:
                ids.discard(sub_id)
                if not ids:
                    del self._by_channel[channel]
            self.stats.unsubscribed += 1
            self.stats.active = len(self._subs)
            return self._tip

    def detach_channel(self, channel) -> int:
        """Forget every subscription on a closed connection."""
        with self._lock:
            ids = self._by_channel.pop(channel, None)
            if not ids:
                return 0
            for sub_id in ids:
                self._subs.pop(sub_id, None)
            self.stats.channels_detached += 1
            self.stats.active = len(self._subs)
            return len(ids)

    def channel_active(self, channel) -> bool:
        with self._lock:
            return bool(self._by_channel.get(channel))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._subs.clear()
            self._by_channel.clear()
            self.stats.active = 0

    # -- fan-out (called from the system's listeners, write lock held) -----

    def _on_append(self) -> None:
        height = self.system.tip_height
        with self._lock:
            self._tip = height
            if self._closed or not self._subs:
                return
            subs = list(self._subs.values())
        header_bytes = self.system.chain.header_at(height).serialize()
        # One frame per distinct watch set: 100 watchers of the same
        # addresses cost one proof build, not 100.
        groups: Dict[Tuple[str, ...], List[_ServerSubscription]] = {}
        for sub in subs:
            groups.setdefault(sub.addresses, []).append(sub)
        for addresses, group in groups.items():
            try:
                batch = self.node.answer_batch(list(addresses), height, height)
                frame = _messages.PushUpdate(
                    height, header_bytes, batch.serialize(self.config)
                ).serialize()
            except ReproError:
                # An unservable watch set starves only its own group; the
                # client's gap detection backfills through the pull path.
                self.stats.build_failures += 1
                continue
            self.stats.updates_built += 1
            for sub in group:
                self._push(sub, frame, retraction=False)

    def _on_reorg(self, fork_height: int) -> None:
        with self._lock:
            old_tip = max(self._tip, fork_height)
            self._tip = fork_height
            if self._closed or not self._subs:
                return
            subs = list(self._subs.values())
        frame = _messages.PushRetraction(fork_height, old_tip).serialize()
        for sub in subs:
            self._push(sub, frame, retraction=True)

    def _push(
        self, sub: _ServerSubscription, frame: bytes, retraction: bool
    ) -> None:
        status = sub.channel.push(frame)
        if status == PUSH_OK:
            if retraction:
                self.stats.retraction_frames += 1
            else:
                self.stats.update_frames += 1
            return
        if status == PUSH_OVERFLOW:
            self._evict(sub)
            return
        # PUSH_CLOSED: the connection died under us; forget its subs.
        self.detach_channel(sub.channel)

    def _evict(self, sub: _ServerSubscription) -> None:
        def _final_frame(dropped: int) -> bytes:
            return _messages.SubscriptionEvicted(
                sub.sub_id, dropped, "outbox overflow"
            ).serialize()

        dropped = sub.channel.evict(_final_frame)
        with self._lock:
            ids = self._by_channel.pop(sub.channel, set())
            for sub_id in ids:
                self._subs.pop(sub_id, None)
            self.stats.evicted_slow += 1
            self.stats.frames_dropped += dropped
            self.stats.active = len(self._subs)

    def __repr__(self) -> str:
        return (
            f"SubscriptionRegistry(active={self.stats.active}, "
            f"tip={self._tip})"
        )


# ---------------------------------------------------------------------------
# client side: events


class WatchEvent:
    """Base class: everything a session surfaces is one of these."""

    kind = "event"
    #: ``time.monotonic()`` when the session surfaced the event (set by
    #: ``_emit``); benchmarks read it to compute notify latency.
    emitted_at = 0.0

    def describe(self) -> str:  # pragma: no cover - overridden everywhere
        return self.kind

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class WatchUpdate(WatchEvent):
    """One appended block, fully verified before this object existed.

    ``histories`` maps every watched address to its verified history
    over the single height — an empty history *is* the BF-negative
    attestation ("provably nothing for you in this block").
    """

    kind = "update"

    __slots__ = ("height", "histories")

    def __init__(
        self, height: int, histories: Dict[str, VerifiedHistory]
    ) -> None:
        self.height = height
        self.histories = histories

    @property
    def first_height(self) -> int:
        return self.height

    @property
    def last_height(self) -> int:
        return self.height

    @property
    def hits(self) -> Dict[str, VerifiedHistory]:
        return {
            address: history
            for address, history in self.histories.items()
            if history.transactions
        }

    @property
    def quiet(self) -> List[str]:
        return [
            address
            for address, history in self.histories.items()
            if not history.transactions
        ]

    def tx_count(self) -> int:
        return sum(len(h.transactions) for h in self.histories.values())

    def describe(self) -> str:
        return (
            f"update height={self.height} hits={len(self.hits)} "
            f"quiet={len(self.quiet)} txs={self.tx_count()}"
        )


class WatchBackfill(WatchEvent):
    """A verified range query that filled a push gap (§10.6)."""

    kind = "backfill"

    __slots__ = ("first_height", "last_height", "histories")

    def __init__(
        self,
        first_height: int,
        last_height: int,
        histories: Dict[str, VerifiedHistory],
    ) -> None:
        self.first_height = first_height
        self.last_height = last_height
        self.histories = histories

    def tx_count(self) -> int:
        return sum(len(h.transactions) for h in self.histories.values())

    def describe(self) -> str:
        return (
            f"backfill first={self.first_height} last={self.last_height} "
            f"txs={self.tx_count()}"
        )


class WatchRetraction(WatchEvent):
    """Blocks above ``fork_height`` are void; re-delivery follows."""

    kind = "retract"

    __slots__ = ("fork_height", "old_tip")

    def __init__(self, fork_height: int, old_tip: int) -> None:
        self.fork_height = fork_height
        self.old_tip = old_tip

    def describe(self) -> str:
        return f"retract fork={self.fork_height} old_tip={self.old_tip}"


class WatchEviction(WatchEvent):
    """The server's slow-consumer guard dropped this subscription."""

    kind = "evicted"

    __slots__ = ("error",)

    def __init__(self, error: SubscriberEvictedError) -> None:
        self.error = error

    def describe(self) -> str:
        return (
            f"evicted id={self.error.subscription_id} "
            f"dropped={self.error.dropped_frames} reason={self.error.reason}"
        )


class WatchDisconnect(WatchEvent):
    """The watch connection died; ``final`` means no reconnect follows."""

    kind = "disconnect"

    __slots__ = ("reason", "final")

    def __init__(self, reason: str, final: bool) -> None:
        self.reason = reason
        self.final = final

    def describe(self) -> str:
        return f"disconnect final={int(self.final)} reason={self.reason}"


class WatchClosed(WatchEvent):
    """Always the session's last event (the consumer's stop signal)."""

    kind = "closed"

    __slots__ = ("stats",)

    def __init__(self, stats: Dict[str, int]) -> None:
        self.stats = stats

    def describe(self) -> str:
        return (
            f"closed updates={self.stats.get('updates_verified', 0)} "
            f"retractions={self.stats.get('retractions', 0)} "
            f"backfills={self.stats.get('backfills', 0)}"
        )


class _EvictedSignal(Exception):
    """Internal: unwinds the reader after a terminal eviction frame."""


# ---------------------------------------------------------------------------
# client side: the session


class WatchStats:
    """Counters for one :class:`SubscriptionSession`."""

    __slots__ = (
        "connects",
        "connect_failures",
        "subscribes",
        "updates_verified",
        "updates_rejected",
        "verification_failures",
        "duplicates",
        "gaps",
        "stale_forks",
        "stale_retractions",
        "retractions",
        "backfills",
        "backpressure_waits",
        "keepalives",
        "evictions",
        "disconnects",
        "protocol_errors",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> "dict[str, int]":
        return {name: getattr(self, name) for name in self.__slots__}


class SubscriptionSession:
    """A verified, self-healing watch stream over one daemon.

    The reader thread owns a dedicated :class:`ClientConnection` (push
    frames on a pooled socket would be "unsolicited bytes" to the pool's
    health peek) plus a lazy single-slot request pool for the verified
    pull path that repairs gaps.  Every surfaced event went through the
    same §V verification a pull query uses — the session maintains the
    invariant that its delivered coverage always equals its header tip,
    so the only accepted live update is ``tip + 1`` linking onto the
    local chain; anything else is a duplicate (dropped), a gap or fork
    (resolved through a verified header sync + range query), or garbage
    (the connection is torn down and rebuilt).

    Consume events with :meth:`next_event` / :meth:`events`; the stream
    always ends with a :class:`WatchClosed`.
    """

    def __init__(
        self,
        light_node: LightNode,
        address: Tuple[str, int],
        watch_addresses: Sequence[str],
        *,
        keepalive: float = 5.0,
        request_timeout: float = 10.0,
        connect_timeout: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_reconnects: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ) -> None:
        if keepalive <= 0:
            raise ValueError(f"keepalive must be positive, got {keepalive}")
        # Validate the watch set once, with the wire rules.
        _messages.SubscribeRequest(list(watch_addresses))
        self.light = light_node
        self.address = (address[0], int(address[1]))
        self.watched = list(watch_addresses)
        self.keepalive = keepalive
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.max_frame_bytes = max_frame_bytes
        self.max_reconnects = max_reconnects
        self.retry_policy = retry_policy or RetryPolicy(
            max_rounds=3, base_delay=0.05, max_delay=1.0, jitter=0.25
        )
        self.stats = WatchStats()
        self.subscription_id: Optional[int] = None
        self._rng = random.Random(seed)
        self._seed = seed
        self._events: "queue.Queue[WatchEvent]" = queue.Queue()
        self._stop = threading.Event()
        self._done = threading.Event()
        self._conn_lock = threading.Lock()
        self._subscribed = threading.Event()
        self._conn: Optional[ClientConnection] = None
        self._pool: Optional[ConnectionPool] = None
        self._remote_node: Optional[RemoteFullNode] = None
        self._thread: Optional[threading.Thread] = None
        #: Highest height whose (verified) data has been surfaced.  The
        #: session keeps ``_delivered_through == light.tip_height``.
        self._delivered_through = light_node.tip_height

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SubscriptionSession":
        if self._thread is not None:
            raise TransportError("subscription session already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-watch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: best-effort unsubscribe, close, join."""
        self._stop.set()
        with self._conn_lock:
            conn = self._conn
        if conn is not None:
            if self.subscription_id is not None:
                try:
                    conn.send_frame(
                        _messages.UnsubscribeRequest(
                            self.subscription_id
                        ).serialize(),
                        time.monotonic() + 1.0,
                    )
                except ReproError:
                    pass
            conn.close()
        self._done.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "SubscriptionSession":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and not self._done.is_set()

    def wait_subscribed(self, timeout: Optional[float] = None) -> bool:
        """Block until the first subscribe ack lands (True) or timeout.

        From that point on, every server append is covered: it either
        arrives as a push or is backfilled through the pull path.
        """
        return self._subscribed.wait(timeout)

    # -- event consumption -------------------------------------------------

    def next_event(
        self, timeout: Optional[float] = None
    ) -> Optional[WatchEvent]:
        """The next event, or ``None`` when ``timeout`` expires."""
        try:
            return self._events.get(timeout=timeout)
        except queue.Empty:
            return None

    def events(self, timeout: Optional[float] = None):
        """Iterate events until :class:`WatchClosed` (inclusive)."""
        while True:
            event = self.next_event(timeout)
            if event is None:
                return
            yield event
            if isinstance(event, WatchClosed):
                return

    def _emit(self, event: WatchEvent) -> None:
        # Stamped at surface time (i.e. after verification), so a
        # consumer draining later can still measure notify latency.
        event.emitted_at = time.monotonic()
        self._events.put(event)

    # -- reader thread -----------------------------------------------------

    def _run(self) -> None:
        try:
            self._run_inner()
        finally:
            with self._conn_lock:
                conn, self._conn = self._conn, None
            if conn is not None:
                conn.close()
            self._emit(WatchClosed(self.stats.as_dict()))
            self._done.set()

    def _run_inner(self) -> None:
        failures = 0
        reconnects = 0
        while not self._stop.is_set():
            try:
                conn = ClientConnection(
                    self.address, self.connect_timeout, self.max_frame_bytes
                )
            except TransportError as error:
                self.stats.connect_failures += 1
                failures += 1
                if not self._retry_allowed(reconnects):
                    self._emit(WatchDisconnect(str(error), final=True))
                    return
                reconnects += 1
                self._backoff(failures)
                continue
            with self._conn_lock:
                self._conn = conn
            if self._stop.is_set():
                return  # stop() raced the connect; its close may have missed
            self.stats.connects += 1
            try:
                self._serve_stream(conn)
                return  # orderly stop
            except _EvictedSignal:
                return
            except ReproError as error:
                if self._stop.is_set():
                    return
                reason = f"{type(error).__name__}: {error}"
            finally:
                conn.close()
                with self._conn_lock:
                    self._conn = None
            self.stats.disconnects += 1
            failures += 1
            final = not self._retry_allowed(reconnects)
            self._emit(WatchDisconnect(reason, final=final))
            if final:
                return
            reconnects += 1
            self._backoff(failures)

    def _retry_allowed(self, reconnects: int) -> bool:
        return self.max_reconnects is None or reconnects < self.max_reconnects

    def _backoff(self, failures: int) -> None:
        self._stop.wait(self.retry_policy.backoff_seconds(failures, self._rng))

    # -- stream handling ---------------------------------------------------

    def _serve_stream(self, conn: ClientConnection) -> None:
        ack, pending = self._handshake(conn)
        self.subscription_id = ack.subscription_id
        self.stats.subscribes += 1
        self._subscribed.set()
        if ack.tip_height != self._delivered_through:
            # The server's chain moved while we were away (or we never
            # had it): close the gap through the verified pull path.
            self._resync()
        for frame in pending:
            self._dispatch(frame)
        awaiting_pong = False
        nonce = 0
        while not self._stop.is_set():
            frame = conn.recv_stream_frame(self.keepalive)
            if frame is None:
                if awaiting_pong:
                    raise TransportError(
                        "keepalive pong missed; watch link presumed dead"
                    )
                nonce = self._rng.randrange(1, 1 << 30)
                conn.send_frame(
                    _messages.PingRequest(nonce).serialize(),
                    time.monotonic() + self.request_timeout,
                )
                self.stats.keepalives += 1
                awaiting_pong = True
                continue
            awaiting_pong = False
            self._dispatch(frame)

    def _handshake(
        self, conn: ClientConnection
    ) -> "Tuple[_messages.SubscribeAck, List[bytes]]":
        deadline = time.monotonic() + self.request_timeout
        conn.send_frame(
            _messages.SubscribeRequest(self.watched).serialize(), deadline
        )
        pending: List[bytes] = []
        push_tags = (
            _messages.PushUpdate.type_tag,
            _messages.PushRetraction.type_tag,
            _messages.SubscriptionEvicted.type_tag,
        )
        while True:
            frame = conn.recv_frame(deadline)
            tag = frame[0] if frame else 0
            if tag == _messages.SubscribeAck.type_tag:
                return _messages.SubscribeAck.deserialize(frame), pending
            _messages.raise_for_error(frame)
            if tag in push_tags:
                # A second subscribe on a live connection can see pushes
                # for the earlier subscription land before its ack.
                pending.append(frame)
                continue
            if tag == _messages.PongResponse.type_tag:
                continue
            self.stats.protocol_errors += 1
            raise TransportError(
                f"unexpected frame tag {tag} while subscribing"
            )

    def _dispatch(self, frame: bytes) -> None:
        tag = frame[0] if frame else 0
        if tag == _messages.PushUpdate.type_tag:
            try:
                update = _messages.PushUpdate.deserialize(frame)
            except EncodingError as error:
                self.stats.protocol_errors += 1
                raise TransportError(
                    f"undecodable push update: {error}"
                ) from error
            self._handle_update(update)
        elif tag == _messages.PushRetraction.type_tag:
            try:
                retraction = _messages.PushRetraction.deserialize(frame)
            except EncodingError as error:
                self.stats.protocol_errors += 1
                raise TransportError(
                    f"undecodable retraction: {error}"
                ) from error
            self._handle_retraction(retraction)
        elif tag == _messages.SubscriptionEvicted.type_tag:
            try:
                notice = _messages.SubscriptionEvicted.deserialize(frame)
            except EncodingError as error:
                self.stats.protocol_errors += 1
                raise TransportError(f"undecodable eviction: {error}") from error
            self.stats.evictions += 1
            self._emit(WatchEviction(notice.to_error()))
            raise _EvictedSignal()
        elif tag in (
            _messages.PongResponse.type_tag,
            _messages.SubscribeAck.type_tag,
        ):
            return  # keepalive echo / duplicate ack: liveness only
        else:
            _messages.raise_for_error(frame)
            self.stats.protocol_errors += 1
            raise TransportError(
                f"unexpected frame tag {tag} on the watch stream"
            )

    # -- verification core -------------------------------------------------

    def _handle_update(self, update: "_messages.PushUpdate") -> None:
        height = update.height
        expected = self._delivered_through + 1
        if height < expected:
            self.stats.duplicates += 1
            return
        if height > expected:
            # Dropped frames (chaos) or a registration race: nothing is
            # surfaced from this frame; the pull path re-fetches it all.
            self.stats.gaps += 1
            self._resync()
            return
        config = self.light.config
        try:
            reader = ByteReader(update.header_bytes)
            header = BlockHeader.deserialize(
                reader,
                config.header_extension_kind,
                config.header_bloom_bytes,
            )
            reader.finish()
            # Decoded without the memo: the height is new, so no
            # resolution at it can have been accepted yet.
            batch = BatchQueryResult.deserialize(update.batch_bytes, config)
        except EncodingError as error:
            self.stats.updates_rejected += 1
            raise TransportError(
                f"undecodable push update at height {height}: {error}"
            ) from error
        if header.prev_hash != self.light.headers[-1].block_id():
            # A reorg we have not heard about yet (the retraction may be
            # in flight or lost) or a fabricated header: either way the
            # frame is unusable and the verified sync path arbitrates.
            self.stats.stale_forks += 1
            self._resync()
            return
        try:
            histories = verify_batch_result(
                batch,
                self.light.headers + [header],
                config,
                list(self.watched),
                (height, height),
                memo=self.light.memo,
            )
        except VerificationError as error:
            self.stats.updates_rejected += 1
            self.stats.verification_failures += 1
            raise TransportError(
                f"push update at height {height} failed verification: "
                f"{error}"
            ) from error
        self.light.headers.append(header)
        self._delivered_through = height
        self.stats.updates_verified += 1
        self._emit(WatchUpdate(height, histories))

    def _handle_retraction(
        self, retraction: "_messages.PushRetraction"
    ) -> None:
        fork = retraction.fork_height
        old_tip = self.light.tip_height
        if fork >= old_tip:
            self.stats.stale_retractions += 1
            return  # nothing above the fork locally: stale or replayed
        self.light.truncate_headers(fork)
        self._delivered_through = min(self._delivered_through, fork)
        self.stats.retractions += 1
        self._emit(WatchRetraction(fork, old_tip))

    def _remote(self) -> RemoteFullNode:
        if self._remote_node is None:
            self._pool = ConnectionPool(
                self.address,
                size=1,
                connect_timeout=self.connect_timeout,
                request_timeout=self.request_timeout,
                max_frame_bytes=self.max_frame_bytes,
                seed=self._seed,
            )
            self._remote_node = RemoteFullNode(pool=self._pool)
        return self._remote_node

    def _wait_backpressure(self, error: BackpressureError) -> None:
        """Sleep out a §11 retry-after hint, waking early on close."""
        self.stats.backpressure_waits += 1
        wait = error.retry_after if error.retry_after else 0.05
        self._stop.wait(min(wait, 5.0))

    def _resync(self) -> None:
        """Close any coverage gap through the verified pull path.

        Syncs headers (reorg-aware), then range-queries every height
        between the delivered watermark and the new tip — the "backfill
        via a normal range query" the protocol mandates for reconnects.
        Retries a bounded number of times because the server's tip may
        advance between the sync and the query; anything that fails
        *verification* (as opposed to racing) tears the stream down
        without surfacing data.
        """
        remote = self._remote()
        last_error: Optional[Exception] = None
        for _attempt in range(MAX_BACKFILL_RETRIES):
            if self._stop.is_set():
                return
            before_tip = self.light.tip_height
            try:
                replaced, _appended = self.light.sync_with_reorg(remote)
            except StaleChainError:
                replaced = 0  # server behind us: nothing new to verify
            except BackpressureError as error:
                # The server is shedding backfill-class load (§11): a
                # benign, typed "come back later" — wait the hint out and
                # retry through the same verified pull path.  Never a
                # teardown: the whole point of staged shedding is that
                # refused traffic heals once the burst passes.
                self._wait_backpressure(error)
                last_error = error
                continue
            except (VerificationError, EncodingError) as error:
                self.stats.verification_failures += 1
                raise TransportError(
                    f"header resync failed verification: {error}"
                ) from error
            if replaced:
                fork = before_tip - replaced
                self._delivered_through = min(self._delivered_through, fork)
                self.stats.retractions += 1
                self._emit(WatchRetraction(fork, before_tip))
            first = self._delivered_through + 1
            last = self.light.tip_height
            if first > last:
                return  # already covered: the "gap" was advisory only
            try:
                histories = self.light.query_batch(
                    remote,
                    self.watched,
                    first_height=first,
                    last_height=last,
                )
            except BackpressureError as error:
                self._wait_backpressure(error)  # shed: wait, then retry
                last_error = error
                continue
            except (CompletenessError, StaleChainError) as error:
                last_error = error  # tip raced the query: sync and retry
                continue
            except VerificationError as error:
                self.stats.verification_failures += 1
                raise TransportError(
                    f"backfill failed verification: {error}"
                ) from error
            self._delivered_through = last
            self.stats.backfills += 1
            self._emit(WatchBackfill(first, last, histories))
            return
        raise TransportError(
            f"backfill did not converge after "
            f"{MAX_BACKFILL_RETRIES} attempts: {last_error}"
        )

    def __repr__(self) -> str:
        return (
            f"SubscriptionSession({self.address[0]}:{self.address[1]}, "
            f"{len(self.watched)} addresses, "
            f"delivered_through={self._delivered_through})"
        )


__all__ = [
    "PUSH_CLOSED",
    "PUSH_OK",
    "PUSH_OVERFLOW",
    "SubscriptionRegistry",
    "SubscriptionSession",
    "SubscriptionStats",
    "WatchBackfill",
    "WatchClosed",
    "WatchDisconnect",
    "WatchEvent",
    "WatchEviction",
    "WatchRetraction",
    "WatchStats",
    "WatchUpdate",
]
