"""Length-framed asyncio TCP serving for the query protocol (PROTOCOL.md §9).

Everything before this module exchanged frames through a function call;
this is the piece that puts them on a real socket.  The wire format is
deliberately minimal — a 4-byte big-endian length prefix followed by one
existing wire-tag frame (a message tag, or a FRAME_ZLIB compressed
frame) — so every byte after the prefix is already covered by the
strictness and chaos suites.

* :class:`NetServer` — serves a :class:`~repro.node.server.QueryServer`
  over TCP with per-connection read/write deadlines, idle-connection
  reaping, a max-concurrent-connections gate that rejects with a typed
  :class:`~repro.errors.ConnectionLimitError` frame, graceful drain, and
  an :meth:`NetServer.abort` hard-kill for crash testing.  Handler
  failures cross the wire as :class:`~repro.node.messages.ErrorResponse`
  frames, so the client rebuilds the same typed exceptions the
  in-process path raises.

This module carries no chaos code: the socket fault proxy the chaos
suites put between a client and a :class:`NetServer` lives in
:mod:`repro.node.faults`, beside the in-process fault executor, and
nothing here imports that module.

The event loop runs on a dedicated daemon thread
(:class:`EventLoopThread`), so synchronous code — tests, the CLI, the
thread-based :class:`~repro.node.server.QueryServer` — drives servers
without owning an asyncio loop; many servers can share one loop thread.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from collections import deque
from typing import Callable, Optional, Set, Tuple

from repro.errors import (
    ConnectionLimitError,
    EncodingError,
    QueryError,
    ReproError,
)
from repro.node import messages as _messages
from repro.node.server import _SUBSCRIPTION_TAGS
from repro.node.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_ZLIB,
    compress_frame,
    decompress_frame,
)

#: Frame header: payload length, 4-byte big-endian, length >= 1.
FRAME_HEADER = struct.Struct(">I")


class EventLoopThread:
    """An asyncio loop on a daemon thread, driven from synchronous code."""

    def __init__(self, name: str = "repro-net-loop") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        self.loop.run_forever()

    def call(self, coroutine, timeout: Optional[float] = None):
        """Run ``coroutine`` on the loop; block for (and return) its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        if not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=5.0)
            self.loop.close()


class NetServerStats:
    """Connection- and frame-level counters for one :class:`NetServer`."""

    __slots__ = (
        "connections_accepted",
        "connections_rejected",
        "connections_reaped",
        "deadline_closes",
        "frames_in",
        "frames_out",
        "bytes_in",
        "bytes_out",
        "errors_sent",
        "pings",
        "hellos",
        "pushes",
        "subscriptions_accepted",
        "subscribers_reaped",
        "frames_compressed",
        "bytes_before_compression",
        "bytes_after_compression",
    )

    def __init__(self) -> None:
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.connections_reaped = 0
        self.deadline_closes = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors_sent = 0
        self.pings = 0
        self.hellos = 0
        self.pushes = 0
        self.subscriptions_accepted = 0
        self.subscribers_reaped = 0
        #: Responses the mirrored codec actually shrank, and their sizes
        #: either side of it: after / before is the achieved ratio.
        self.frames_compressed = 0
        self.bytes_before_compression = 0
        self.bytes_after_compression = 0

    def as_dict(self) -> "dict[str, int]":
        return {name: getattr(self, name) for name in self.__slots__}


class _PushChannel:
    """Bounded server→client outbox bridging registry threads to one
    connection's asyncio push task (the §10 slow-consumer guard).

    ``push``/``evict`` run on whatever thread appended the block — the
    :class:`~repro.node.subscribe.SubscriptionRegistry` fans out inside
    the system's append listener, under the write lock — so they take a
    plain threading lock and wake the event loop with
    ``call_soon_threadsafe``.  The push task drains frames FIFO.

    The outbox bound is enforced here: ``push`` past the bound returns
    ``"overflow"`` (the registry's cue to evict), and ``evict`` reclaims
    everything queued, replacing it with one final typed frame built
    from the drop count.
    """

    __slots__ = (
        "max_outbox",
        "_lock",
        "_frames",
        "_evicted",
        "_closed",
        "_event",
        "_loop",
    )

    def __init__(
        self, loop: asyncio.AbstractEventLoop, max_outbox: int
    ) -> None:
        self.max_outbox = max_outbox
        self._lock = threading.Lock()
        self._frames: "deque[bytes]" = deque()
        self._evicted = False
        self._closed = False
        self._event = asyncio.Event()
        self._loop = loop

    def _wake(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._event.set)
        except RuntimeError:
            pass  # loop already shut down; the connection is gone anyway

    def push(self, frame: bytes) -> str:
        with self._lock:
            if self._closed or self._evicted:
                return "closed"
            if len(self._frames) >= self.max_outbox:
                return "overflow"
            self._frames.append(frame)
        self._wake()
        return "ok"

    def evict(self, frame_factory: Callable[[int], bytes]) -> int:
        with self._lock:
            if self._closed or self._evicted:
                return 0
            # Everything queued plus the frame that overflowed the bound.
            dropped = len(self._frames) + 1
            self._frames.clear()
            self._frames.append(frame_factory(dropped))
            self._evicted = True
        self._wake()
        return dropped

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._frames.clear()
        self._wake()

    def drain(self) -> "Tuple[list[bytes], bool, bool]":
        """Take every queued frame; returns ``(frames, evicted, closed)``."""
        with self._lock:
            frames = list(self._frames)
            self._frames.clear()
            self._event.clear()
            return frames, self._evicted, self._closed

    async def wait(self) -> None:
        await self._event.wait()


class _ConnState:
    """Per-connection mutable state.

    ``write_lock`` serializes response and push writes on one socket so
    a pushed frame can never interleave with a response frame's bytes;
    ``channel``/``push_task`` exist only once the connection subscribes.
    ``peer`` is the socket peer host — the default rate-limit identity —
    and ``client_id`` the finer identity a §11 hello frame declared.
    """

    __slots__ = ("write_lock", "channel", "push_task", "peer", "client_id")

    def __init__(self, peer: str = "") -> None:
        self.write_lock = asyncio.Lock()
        self.channel: Optional[_PushChannel] = None
        self.push_task: Optional[asyncio.Task] = None
        self.peer = peer
        self.client_id: Optional[str] = None

    @property
    def client(self) -> str:
        """Rate-limit identity: the declared id, else the peer host."""
        return self.client_id if self.client_id else self.peer


class NetServer:
    """One node served over loopback/LAN TCP with defensive deadlines.

    ``target`` is a :class:`~repro.node.server.QueryServer`, or anything
    with its ``submit(payload, client) -> Future`` and ``node`` shape:
    requests go through its admission control, bounded queue and worker
    pool, so a refusal surfaces as a typed
    :class:`~repro.errors.BackpressureError` frame.  Pings and hellos
    read the tip from ``target.node``.

    Deadline semantics (PROTOCOL.md §9.3):

    * **idle** — a connection that sends no new frame header within
      ``idle_timeout`` is reaped;
    * **read** — once a frame has started, the rest of it must arrive
      within ``read_timeout``, else the connection is closed (a stalled
      or half-delivered frame cannot be resynchronized);
    * **write** — a response that cannot be flushed within
      ``write_timeout`` closes the connection (slow-consumer guard).

    The concurrency gate: at most ``max_connections`` connections are
    served; beyond that the server answers a single
    :class:`~repro.errors.ConnectionLimitError` frame and closes.

    When a :class:`~repro.node.subscribe.SubscriptionRegistry` is passed
    as ``subscriptions``, connections may also carry §10 watch streams:
    subscribe/unsubscribe requests are answered inline, and a per-
    connection push task interleaves server-initiated frames with the
    request/response traffic (serialized by a per-connection write
    lock).  ``push_outbox`` bounds each subscriber connection's queued
    push frames; overflowing it evicts the subscriber.  The idle
    deadline still applies — a subscriber keeps its
    connection alive with keepalive pings, and one that goes quiet is
    reaped like any other connection (counted separately in
    ``stats.subscribers_reaped``).
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        idle_timeout: float = 30.0,
        read_timeout: float = 10.0,
        write_timeout: float = 10.0,
        subscriptions=None,
        push_outbox: int = 256,
        push_buffer_bytes: Optional[int] = None,
        loop_thread: Optional[EventLoopThread] = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"need at least 1 connection, {max_connections}")
        if max_frame_bytes < 1:
            raise ValueError(f"bad frame limit {max_frame_bytes}")
        if push_outbox < 2:
            # Room for at least one update plus the eviction frame's slot.
            raise ValueError(f"push outbox bound must be >= 2, {push_outbox}")
        if push_buffer_bytes is not None and push_buffer_bytes < 0:
            raise ValueError(f"bad push buffer bound {push_buffer_bytes}")
        self._target = target
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.write_timeout = write_timeout
        self.subscriptions = subscriptions
        self.push_outbox = push_outbox
        self.push_buffer_bytes = push_buffer_bytes
        self.stats = NetServerStats()
        self._owns_loop = loop_thread is None
        self._loop_thread = loop_thread
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._active = 0
        self._busy = 0
        self._draining = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        return (self.host, self.port)

    def start(self) -> "NetServer":
        if self._loop_thread is None:
            self._loop_thread = EventLoopThread()
        self._loop_thread.call(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally let in-flight frames finish first."""
        if self._closed or self._loop_thread is None:
            return
        self._closed = True
        self._loop_thread.call(self._close(drain, timeout))
        if self._owns_loop:
            self._loop_thread.stop()

    async def _close(self, drain: bool, timeout: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            deadline = asyncio.get_running_loop().time() + timeout
            while self._busy and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.002)
        for writer in list(self._writers):
            writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._server is not None:
            await self._server.wait_closed()

    def abort(self) -> None:
        """Kill the server *now*: every live connection is reset without
        flushing — the crash the kill-mid-request harness injects."""
        if self._loop_thread is None:
            return
        self._closed = True
        self._loop_thread.call(self._abort())
        if self._owns_loop:
            self._loop_thread.stop()

    async def _abort(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.transport.abort()
        for task in list(self._tasks):
            task.cancel()
        if self._server is not None:
            await self._server.wait_closed()

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining or self._active >= self.max_connections:
            self.stats.connections_rejected += 1
            error = ConnectionLimitError(self._active, self.max_connections)
            try:
                await self._write_frame(
                    writer, _messages.ErrorResponse.from_exception(error).serialize()
                )
            except (ConnectionError, TimeoutError, OSError):
                pass
            writer.close()
            return
        self._active += 1
        self.stats.connections_accepted += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # close()/abort() tearing the connection down
        finally:
            self._active -= 1
            self._writers.discard(writer)
            if task is not None:
                self._tasks.discard(task)
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = str(peername[0]) if peername else "unknown"
        state = _ConnState(peer)
        try:
            await self._serve_frames(reader, writer, state)
        finally:
            if state.push_task is not None:
                state.push_task.cancel()
            if state.channel is not None:
                state.channel.close()
                if self.subscriptions is not None:
                    self.subscriptions.detach_channel(state.channel)

    async def _serve_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: _ConnState,
    ) -> None:
        while not self._draining:
            # Idle deadline: arm it on the *first* byte of the next
            # frame's header; a quiet connection is reaped, a started
            # frame falls under the stricter read deadline below.  A
            # subscriber's keepalive pings are frames like any other, so
            # a healthy watch connection refreshes the deadline each
            # ping; only a genuinely silent one is reaped.
            #
            # Every deadline is an ``asyncio.timeout`` scope: one timer
            # on this task, no Task spawned per read or drain.
            try:
                async with asyncio.timeout(self.idle_timeout):
                    first = await reader.readexactly(1)
            except TimeoutError:
                self.stats.connections_reaped += 1
                if (
                    state.channel is not None
                    and self.subscriptions is not None
                    and self.subscriptions.channel_active(state.channel)
                ):
                    self.stats.subscribers_reaped += 1
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # clean EOF or client went away between frames
            # Read deadline: one scope over the rest of the header and
            # the body.
            frame = None
            try:
                async with asyncio.timeout(self.read_timeout):
                    (length,) = FRAME_HEADER.unpack(
                        first
                        + await reader.readexactly(FRAME_HEADER.size - 1)
                    )
                    if 0 < length <= self.max_frame_bytes:
                        frame = await reader.readexactly(length)
            except TimeoutError:
                self.stats.deadline_closes += 1
                return  # mid-frame stall: no way to resync, drop the link
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            if frame is None:
                self.stats.errors_sent += 1
                error = EncodingError(
                    f"frame of {length} bytes outside "
                    f"[1, {self.max_frame_bytes}]"
                )
                try:
                    async with state.write_lock:
                        await self._write_frame(
                            writer,
                            _messages.ErrorResponse.from_exception(
                                error
                            ).serialize(),
                        )
                except TimeoutError:
                    self.stats.deadline_closes += 1
                except (ConnectionError, OSError):
                    pass
                return  # framing can't be trusted past this point
            self.stats.frames_in += 1
            self.stats.bytes_in += FRAME_HEADER.size + length
            self._busy += 1
            try:
                response = await self._serve_frame(frame, state)
            finally:
                self._busy -= 1
            try:
                async with state.write_lock:
                    await self._write_frame(writer, response)
            except TimeoutError:
                self.stats.deadline_closes += 1
                return
            except (ConnectionError, OSError):
                return
            # Spawn the push task only after the subscribe ack is on the
            # wire, so the client always sees ack-before-pushes for the
            # subscription it just opened.
            if state.channel is not None and state.push_task is None:
                if self.push_buffer_bytes is not None:
                    # Bound the transport's write buffer on subscriber
                    # connections so a stalled reader's backpressure
                    # reaches the outbox (and its eviction accounting)
                    # instead of ballooning server-side memory.
                    writer.transport.set_write_buffer_limits(
                        high=self.push_buffer_bytes
                    )
                state.push_task = asyncio.ensure_future(
                    self._push_loop(writer, state)
                )

    async def _handle_subscription(
        self, payload: bytes, state: _ConnState
    ) -> bytes:
        """Serve one subscribe/unsubscribe frame on the event loop.

        Registry calls are quick bookkeeping (no proof building), so
        they run inline rather than through the worker pool — and they
        must, because the channel is bound to this connection.
        """
        if self.subscriptions is None:
            raise QueryError(
                "this server does not accept streaming subscriptions"
            )
        if payload[0] == _messages.SubscribeRequest.type_tag:
            request = _messages.SubscribeRequest.deserialize(payload)
            if state.channel is None:
                state.channel = _PushChannel(
                    asyncio.get_running_loop(), self.push_outbox
                )
            sub_id, tip = self.subscriptions.subscribe(
                request.addresses, state.channel
            )
            self.stats.subscriptions_accepted += 1
            return _messages.SubscribeAck(sub_id, tip).serialize()
        request = _messages.UnsubscribeRequest.deserialize(payload)
        if state.channel is None:
            raise QueryError(
                f"no subscription {request.subscription_id} "
                f"on this connection"
            )
        tip = self.subscriptions.unsubscribe(
            request.subscription_id, state.channel
        )
        return _messages.SubscribeAck(request.subscription_id, tip).serialize()

    async def _push_loop(
        self, writer: asyncio.StreamWriter, state: _ConnState
    ) -> None:
        """Drain the connection's push channel onto the socket, FIFO.

        Push frames are written plain (never compressed): compression is
        a per-request mirror (§9.5) and a push has no request to mirror.
        After an eviction the channel's final frame is the typed notice;
        once it is flushed the connection is severed so the client can't
        mistake the post-eviction silence for a quiet chain.
        """
        channel = state.channel
        if channel is None:  # pragma: no cover - spawn guard precludes it
            return
        try:
            while True:
                frames, evicted, closed = channel.drain()
                for frame in frames:
                    async with state.write_lock:
                        await self._write_frame(writer, frame)
                    self.stats.pushes += 1
                if closed:
                    return
                if evicted:
                    writer.close()
                    return
                if not frames:
                    await channel.wait()
        except TimeoutError:
            # Socket-level slow consumer: the write deadline fired with
            # the kernel buffer full.  Drop the link; the registry's
            # outbox bound does the accounting when it overflows.
            self.stats.deadline_closes += 1
            writer.close()
        except (ConnectionError, OSError):
            writer.close()

    async def _serve_frame(self, frame: bytes, state: _ConnState) -> bytes:
        """One request frame → one response frame, errors included.

        Compression is negotiated per frame by mirroring: a request that
        arrived zlib-compressed gets a zlib-compressed response (§9.5);
        plain requests get plain responses.  A reserved-tag frame is
        refused by ``decompress_frame`` and never reaches dispatch.
        """
        compressed = frame[0] == FRAME_ZLIB
        try:
            payload = decompress_frame(frame, self.max_frame_bytes)
            if payload and payload[0] in _SUBSCRIPTION_TAGS:
                response = await self._handle_subscription(payload, state)
            elif payload and payload[0] == _messages.PingRequest.type_tag:
                ping = _messages.PingRequest.deserialize(payload)
                self.stats.pings += 1
                response = _messages.PongResponse(
                    ping.nonce, self._target.node.tip_height
                ).serialize()
            elif payload and payload[0] == _messages.HelloRequest.type_tag:
                # A hello narrows this connection's rate-limit identity
                # from the socket peer host to the declared client id
                # (PROTOCOL.md §11.2).  It grants nothing — answered
                # inline like a ping, never queued, never shed.
                hello = _messages.HelloRequest.deserialize(payload)
                state.client_id = hello.client_id
                self.stats.hellos += 1
                response = _messages.PongResponse(
                    0, self._target.node.tip_height
                ).serialize()
            else:
                # submit() raises synchronously on admission refusal (rate
                # limited / shed / queue full) or an unknown tag; the
                # handlers below turn either into a typed error frame.
                # A cache hit comes back already resolved: no loop hop.
                future = self._target.submit(payload, state.client)
                if future.done():
                    response = future.result()
                else:
                    response = await asyncio.wrap_future(future)
        except ReproError as error:
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse.from_exception(error).serialize()
        except Exception as error:  # noqa: BLE001 - never leak a raw crash
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse(
                "TransportError",
                f"internal server error: {type(error).__name__}",
            ).serialize()
        if compressed:
            plain_size = len(response)
            try:
                response = compress_frame(
                    response, max_frame_bytes=self.max_frame_bytes
                )
            except EncodingError as error:
                self.stats.errors_sent += 1
                response = _messages.ErrorResponse.from_exception(
                    error
                ).serialize()
            else:
                if len(response) < plain_size:
                    self.stats.frames_compressed += 1
                    self.stats.bytes_before_compression += plain_size
                    self.stats.bytes_after_compression += len(response)
        if len(response) > self.max_frame_bytes:
            # Symmetric send-side cap: never put a frame on the wire the
            # peer is required to reject.
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse.from_exception(
                EncodingError(
                    f"response of {len(response)} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte frame limit"
                )
            ).serialize()
        return response

    async def _write_frame(
        self, writer: asyncio.StreamWriter, frame: bytes
    ) -> None:
        writer.writelines((FRAME_HEADER.pack(len(frame)), frame))
        async with asyncio.timeout(self.write_timeout):
            await writer.drain()
        self.stats.frames_out += 1
        self.stats.bytes_out += FRAME_HEADER.size + len(frame)

    def __repr__(self) -> str:
        return (
            f"NetServer({self.host}:{self.port}, "
            f"active={self._active}/{self.max_connections})"
        )


__all__ = [
    "EventLoopThread",
    "FRAME_HEADER",
    "NetServer",
    "NetServerStats",
]
