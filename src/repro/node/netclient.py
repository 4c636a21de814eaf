"""Client side of the TCP transport: pooled, reconnecting, failing over.

Three layers, each usable alone:

* :class:`ClientConnection` — one blocking socket speaking the length-
  framed protocol with per-phase deadlines (connect, send, receive) and
  a cheap liveness probe (a zero-cost EOF peek, escalating to a
  ping/pong round trip for connections idle past a threshold).
* :class:`ConnectionPool` — a bounded pool of warm connections to one
  server: reconnects paced by a :class:`~repro.node.session.RetryPolicy`
  (the session's one backoff formula, seeded jitter), retry-after hints
  capped at :data:`~repro.errors.MAX_RETRY_AFTER_SECONDS`, health-
  checked reuse, and one conservative in-flight failover — a request
  that died on a *reused* connection before any response byte arrived
  is retried once on a fresh connection (the classic half-closed-socket
  hazard); every other failure surfaces as the PR 2 error taxonomy so
  :class:`~repro.node.session.QuerySession` retry/scoring/quarantine
  machinery works over sockets unchanged.
* :class:`RemoteFullNode` — duck-compatible with
  :class:`~repro.node.full_node.FullNode`'s handler surface
  (``handle_query`` / ``handle_batch_query`` / ``handle_headers`` /
  ``tip_height``), so a :class:`~repro.node.light_node.LightNode` or a
  :class:`~repro.node.session.QuerySession` peer list can point at a
  remote daemon with no other change.  Error frames received from the
  server are rebuilt into the same typed exceptions the in-process
  handlers raise; *nothing* received over the socket is trusted — every
  result still passes the full §V verification on the client.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    MAX_RETRY_AFTER_SECONDS,
    BackpressureError,
    EncodingError,
    ReproError,
    RequestTimeoutError,
    TransportError,
)
from repro.node.messages import (
    ErrorResponse,
    HelloRequest,
    PingRequest,
    PongResponse,
    error_from_frame,
    raise_for_error,
)
from repro.node.net import FRAME_HEADER
from repro.node.session import RetryPolicy
from repro.node.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    compress_frame,
    decompress_frame,
)


class ClientConnection:
    """One framed TCP connection with per-phase deadlines."""

    __slots__ = (
        "address",
        "max_frame_bytes",
        "last_used",
        "requests_served",
        "received_any",
        "_sock",
        "_closed",
    )

    def __init__(
        self,
        address: Tuple[str, int],
        connect_timeout: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.address = address
        self.max_frame_bytes = max_frame_bytes
        try:
            self._sock = socket.create_connection(
                address, timeout=connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                f"connect to {address[0]}:{address[1]} failed: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.last_used = time.monotonic()
        self.requests_served = 0
        #: True once any byte of the current exchange's response landed
        #: — the pool's failover guard (never retry a half-answered
        #: request on the pool's own initiative).
        self.received_any = False
        self._closed = False

    @property
    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    # -- framed I/O --------------------------------------------------------

    def _remaining(self, deadline: float, doing: str) -> float:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RequestTimeoutError(
                f"deadline expired while {doing}",
                timeout_seconds=None,
                elapsed_seconds=None,
            )
        return remaining

    def send_frame(self, frame: bytes, deadline: float) -> None:
        if len(frame) > self.max_frame_bytes:
            raise EncodingError(
                f"frame of {len(frame)} bytes exceeds the "
                f"{self.max_frame_bytes}-byte limit"
            )
        try:
            self._sock.settimeout(self._remaining(deadline, "sending"))
            self._sock.sendall(FRAME_HEADER.pack(len(frame)) + frame)
        except socket.timeout as exc:
            raise RequestTimeoutError(
                f"send to {self.address} timed out"
            ) from exc
        except OSError as exc:
            raise TransportError(f"send to {self.address} failed: {exc}") from exc

    def _recv_exact(self, length: int, deadline: float) -> bytes:
        chunks: List[bytes] = []
        needed = length
        while needed:
            try:
                self._sock.settimeout(self._remaining(deadline, "receiving"))
                chunk = self._sock.recv(min(needed, 1 << 20))
            except socket.timeout as exc:
                raise RequestTimeoutError(
                    f"receive from {self.address} timed out with "
                    f"{needed} of {length} bytes outstanding"
                ) from exc
            except OSError as exc:
                raise TransportError(
                    f"receive from {self.address} failed: {exc}"
                ) from exc
            if not chunk:
                raise TransportError(
                    f"connection to {self.address} closed with "
                    f"{needed} of {length} bytes outstanding"
                )
            self.received_any = True
            chunks.append(chunk)
            needed -= len(chunk)
        return b"".join(chunks)

    def recv_frame(self, deadline: float) -> bytes:
        header = self._recv_exact(FRAME_HEADER.size, deadline)
        (length,) = FRAME_HEADER.unpack(header)
        if length == 0 or length > self.max_frame_bytes:
            raise EncodingError(
                f"peer announced a frame of {length} bytes, outside "
                f"[1, {self.max_frame_bytes}]"
            )
        return self._recv_exact(length, deadline)

    def recv_stream_frame(self, idle_timeout: float) -> Optional[bytes]:
        """Wait up to ``idle_timeout`` for a server-initiated frame.

        The push-capable receive used by subscription sessions: returns
        the next frame, or ``None`` when the line stayed *completely*
        quiet for the window (the caller's cue to send a keepalive
        ping).  A timeout that strikes after any byte has landed is a
        mid-frame stall — unrecoverable at the framing layer — and
        surfaces as :class:`RequestTimeoutError` like the request path.
        """
        deadline = time.monotonic() + idle_timeout
        self.received_any = False
        try:
            frame = self.recv_frame(deadline)
        except RequestTimeoutError:
            if self.received_any:
                raise  # half a frame arrived: the stream cannot resync
            return None
        self.last_used = time.monotonic()
        return frame

    def request(self, frame: bytes, timeout: float) -> bytes:
        """One request/response exchange under a single deadline."""
        deadline = time.monotonic() + timeout
        self.received_any = False
        started = time.monotonic()
        try:
            self.send_frame(frame, deadline)
            response = self.recv_frame(deadline)
        except RequestTimeoutError as exc:
            raise RequestTimeoutError(
                str(exc),
                timeout_seconds=timeout,
                elapsed_seconds=time.monotonic() - started,
            ) from exc
        self.last_used = time.monotonic()
        self.requests_served += 1
        return response

    # -- liveness ----------------------------------------------------------

    def peek_healthy(self) -> bool:
        """Non-blocking EOF check: a server that closed (or wrote
        unsolicited bytes onto) this idle connection fails the peek."""
        if self._closed:
            return False
        try:
            self._sock.setblocking(False)
            try:
                data = self._sock.recv(1, socket.MSG_PEEK)
            finally:
                self._sock.setblocking(True)
        except (BlockingIOError, InterruptedError):
            return True  # nothing to read: the expected idle state
        except OSError:
            return False
        # Readable while idle means EOF (b"") or unsolicited bytes that
        # would desynchronize the framing — either way, not reusable.
        del data
        return False

    def ping(self, nonce: int, timeout: float) -> PongResponse:
        response = self.request(PingRequest(nonce).serialize(), timeout)
        raise_for_error(response)
        pong = PongResponse.deserialize(response)
        if pong.nonce != nonce:
            raise TransportError(
                f"pong nonce {pong.nonce} does not answer ping {nonce}"
            )
        return pong

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.requests_served} reqs"
        return f"ClientConnection({self.address[0]}:{self.address[1]}, {state})"


class ConnectionPool:
    """Reconnecting bounded pool of framed connections to one server.

    ``codec`` is ``None`` (plain frames) or ``"zlib"`` (requests are
    compressed per PROTOCOL.md §8.3 and the server mirrors it).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        size: int = 4,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        codec: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        health_check_idle: float = 5.0,
        seed: int = 0,
        client_id: Optional[str] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool needs at least one slot, got {size}")
        if codec not in (None, "zlib"):
            raise ValueError(f"unknown frame codec {codec!r}")
        self.address = (address[0], int(address[1]))
        self.size = size
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_frame_bytes = max_frame_bytes
        self.codec = codec
        #: Identity declared to the server via a §11 hello frame on every
        #: fresh connection (None = identified by socket peer host only).
        self.client_id = client_id
        #: Reconnect pacing: the pause after the n-th consecutive failed
        #: connect is ``retry.backoff_seconds(n)``; ``max_rounds`` is unused.
        self.retry = retry or RetryPolicy(base_delay=0.05, max_delay=2.0)
        self.health_check_idle = health_check_idle
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._idle: List[ClientConnection] = []
        self._consecutive_failures = 0
        self._blocked_until = 0.0
        self._deferred_until = 0.0
        self._closed = False
        self.stats: Dict[str, float] = {
            "connects": 0,
            "connect_failures": 0,
            "backoff_seconds": 0.0,
            "requests": 0,
            "request_failures": 0,
            "failovers": 0,
            "health_evictions": 0,
            "pings": 0,
            "hellos": 0,
            "backpressure_signals": 0,
            "backpressure_wait_seconds": 0.0,
        }

    # -- connection management --------------------------------------------

    def _connect(self) -> ClientConnection:
        now = time.monotonic()
        with self._lock:
            if self._closed:
                raise TransportError("connection pool is closed")
            blocked = self._blocked_until - now
        if blocked > 0:
            raise TransportError(
                f"reconnect to {self.address[0]}:{self.address[1]} backed "
                f"off for another {blocked:.3f}s"
            )
        try:
            connection = ClientConnection(
                self.address, self.connect_timeout, self.max_frame_bytes
            )
        except TransportError:
            with self._lock:
                self._consecutive_failures += 1
                pause = self.retry.backoff_seconds(
                    self._consecutive_failures, self._rng
                )
                self._blocked_until = time.monotonic() + pause
                self.stats["connect_failures"] += 1
                self.stats["backoff_seconds"] += pause
            raise
        with self._lock:
            self._consecutive_failures = 0
            self._blocked_until = 0.0
            self.stats["connects"] += 1
        if self.client_id is not None:
            # Declare this pool's identity before any real request, so
            # the server's rate buckets key on it from the first frame.
            try:
                raise_for_error(
                    connection.request(
                        HelloRequest(self.client_id).serialize(),
                        self.request_timeout,
                    )
                )
            except ReproError:
                connection.close()
                raise
            with self._lock:
                self.stats["hellos"] += 1
        return connection

    def _healthy(self, connection: ClientConnection) -> bool:
        if not connection.peek_healthy():
            return False
        if (
            time.monotonic() - connection.last_used
            > self.health_check_idle
        ):
            # Idle past the threshold: prove the peer still answers
            # before trusting the socket with a real request.
            try:
                connection.ping(
                    self._rng.randrange(1 << 30), self.request_timeout
                )
                with self._lock:
                    self.stats["pings"] += 1
            except Exception:  # noqa: BLE001 - any failure means unhealthy
                return False
        return True

    def _acquire(self) -> Tuple[ClientConnection, bool]:
        """A healthy connection plus whether it was reused."""
        while True:
            with self._lock:
                if self._closed:
                    raise TransportError("connection pool is closed")
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return self._connect(), False
            if self._healthy(connection):
                return connection, True
            connection.close()
            with self._lock:
                self.stats["health_evictions"] += 1

    def _release(self, connection: ClientConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(connection)
                return
        connection.close()

    # -- backpressure ------------------------------------------------------

    def defer(self, seconds: float) -> None:
        """Hold future requests for ``seconds`` (a server retry-after)."""
        if seconds <= 0:
            return
        until = time.monotonic() + min(seconds, MAX_RETRY_AFTER_SECONDS)
        with self._lock:
            if until > self._deferred_until:
                self._deferred_until = until

    def _observe_backpressure(self, response: bytes) -> None:
        """Honor the retry-after hint riding on a §11 refusal frame.

        The pool waits before its *next* request instead of hammering an
        overloaded server — the typed error still flows to the caller
        untouched.  A malformed error frame is ignored here; the caller
        decodes (and rejects) it through the strict path.
        """
        if not response or response[0] != ErrorResponse.type_tag:
            return
        try:
            error = error_from_frame(ErrorResponse.deserialize(response))
        except Exception:  # noqa: BLE001 - strict decode happens upstream
            return
        if isinstance(error, BackpressureError) and error.retry_after:
            with self._lock:
                self.stats["backpressure_signals"] += 1
            self.defer(error.retry_after)

    def _wait_deferred(self) -> None:
        with self._lock:
            pause = self._deferred_until - time.monotonic()
        if pause > 0:
            with self._lock:
                self.stats["backpressure_wait_seconds"] += pause
            time.sleep(pause)

    # -- request path ------------------------------------------------------

    def request(self, payload: bytes) -> bytes:
        """One request frame → the response frame, with reconnect/failover.

        Failures surface as the PR 2 taxonomy: connect/reset/EOF →
        :class:`TransportError`, blown deadline →
        :class:`RequestTimeoutError`, frame-limit violations →
        :class:`EncodingError`.  A request that died on a *reused*
        connection before any response byte arrived is retried once on a
        fresh connection; everything else is the caller's retry decision
        (``QuerySession`` already makes it).  When the previous exchange
        brought back a §11 backpressure frame with a retry-after hint,
        the pool sleeps the hint out before this request goes on the
        wire.
        """
        self._wait_deferred()
        if self.codec is not None:
            frame = compress_frame(
                payload, max_frame_bytes=self.max_frame_bytes
            )
        else:
            if len(payload) > self.max_frame_bytes:
                raise EncodingError(
                    f"frame of {len(payload)} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            frame = payload
        with self._lock:
            self.stats["requests"] += 1
        last_error: Optional[Exception] = None
        for attempt in range(2):
            connection, reused = self._acquire()
            try:
                raw = connection.request(frame, self.request_timeout)
            except (TransportError, EncodingError) as error:
                connection.close()
                failover = (
                    reused
                    and attempt == 0
                    and not connection.received_any
                    and not isinstance(error, RequestTimeoutError)
                )
                if failover:
                    with self._lock:
                        self.stats["failovers"] += 1
                    last_error = error
                    continue
                with self._lock:
                    self.stats["request_failures"] += 1
                raise
            self._release(connection)
            response = decompress_frame(raw, self.max_frame_bytes)
            self._observe_backpressure(response)
            return response
        with self._lock:
            self.stats["request_failures"] += 1
        raise last_error  # pragma: no cover - loop always raised/returned

    def ping(self) -> PongResponse:
        connection, _reused = self._acquire()
        try:
            pong = connection.ping(
                self._rng.randrange(1 << 30), self.request_timeout
            )
        except Exception:
            connection.close()
            raise
        with self._lock:
            self.stats["pings"] += 1
        self._release(connection)
        return pong

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ConnectionPool({self.address[0]}:{self.address[1]}, "
            f"idle={len(self._idle)}/{self.size})"
        )


class RemoteFullNode:
    """A full node on the other end of a socket, behind the same duck.

    Implements the handler surface the light node, session, and fault
    wrappers already consume, so ``QuerySession(light, [Peer("remote",
    RemoteFullNode(addr))])`` — including a ``FaultyTransport`` factory
    on the peer — runs the whole resilience stack over real TCP.  An
    :class:`ErrorResponse` frame is rebuilt into its typed exception;
    response *contents* stay untrusted and go through §V verification
    exactly as before.
    """

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        *,
        pool: Optional[ConnectionPool] = None,
        **pool_kwargs,
    ) -> None:
        if pool is None:
            if address is None:
                raise ValueError("RemoteFullNode needs an address or a pool")
            pool = ConnectionPool(address, **pool_kwargs)
        elif pool_kwargs:
            raise ValueError("pass pool kwargs or a pool, not both")
        self.pool = pool

    def _rpc(self, payload: bytes) -> bytes:
        response = self.pool.request(payload)
        raise_for_error(response)
        return response

    # -- FullNode handler surface -----------------------------------------

    def handle_query(self, payload: bytes) -> bytes:
        return self._rpc(payload)

    def handle_batch_query(self, payload: bytes) -> bytes:
        return self._rpc(payload)

    def handle_headers(self, payload: bytes) -> bytes:
        return self._rpc(payload)

    @property
    def tip_height(self) -> int:
        """The peer's advisory tip (from a pong; never trusted blindly)."""
        return self.pool.ping().tip_height

    def ping(self) -> PongResponse:
        return self.pool.ping()

    def close(self) -> None:
        self.pool.close()

    def __repr__(self) -> str:
        host, port = self.pool.address
        return f"RemoteFullNode({host}:{port})"


__all__ = [
    "ClientConnection",
    "ConnectionPool",
    "RemoteFullNode",
]
