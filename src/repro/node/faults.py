"""Fault injection for the link and the peer (never the proof).

:mod:`repro.query.adversary` attacks the *contents* of an answer; this
module attacks its *delivery*.  A seeded, scriptable
:class:`FaultSchedule` names the link faults — drop, truncation, byte
corruption, duplication, reorder, injected latency and mid-stream close
— and one rule interpreter, :func:`plan_frame`, decides what the link
does to each frame.  Two executors carry the resulting
:class:`FramePlan` out:

* :class:`FaultyTransport` wraps an in-process transport and charges
  latency (:class:`~repro.node.transport.LinkModel` plus injected
  delays) to a :class:`~repro.node.transport.SimulatedClock`;
* :class:`SocketFaultInjector` is a frame-aware loopback proxy between
  a real client and a real :class:`~repro.node.net.NetServer`, with the
  faults realized on the socket (RST, mid-frame stall, partial write and
  FIN, swallowed, doubled and held frames).

:class:`FlakyFullNode` / :class:`ByzantineFlakyFullNode` model peers
whose *service* fails probabilistically or on scripted request indices.

The invariant the chaos suite enforces (see
``tests/node/test_chaos.py``): any composition of these faults with any
content attack degrades a query to a typed :class:`~repro.errors.ReproError`
— never to a wrong history.  Faults here are client-observable events,
not wire-format changes; PROTOCOL.md is unaffected.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import random
import socket
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import RequestTimeoutError, TransportError
from repro.node.full_node import FullNode
from repro.node.net import FRAME_HEADER, EventLoopThread
from repro.node.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    InProcessTransport,
    LinkModel,
    SimulatedClock,
    TransportStats,
)


class FaultKind(enum.Enum):
    """Link-level failure modes a schedule can inject."""

    DELAY = "delay"  # extra seconds charged to the clock
    DROP = "drop"  # message never arrives: deadline-blowing silence
    TRUNCATE = "truncate"  # a prefix arrives, the tail is lost
    CORRUPT = "corrupt"  # N bytes flipped in place
    DUPLICATE = "duplicate"  # delivered (and charged) twice
    REORDER = "reorder"  # stale earlier message delivered instead
    CLOSE = "close"  # link dies mid-stream after a partial write


#: Application order when several faults hit one message: latency always
#: accrues first; terminal faults (drop/close) preempt payload mangling.
_KIND_ORDER = {
    FaultKind.DELAY: 0,
    FaultKind.CLOSE: 1,
    FaultKind.DROP: 2,
    FaultKind.TRUNCATE: 3,
    FaultKind.CORRUPT: 4,
    FaultKind.DUPLICATE: 5,
    FaultKind.REORDER: 6,
}

_DIRECTIONS = ("to_server", "to_client")


class FaultRule:
    """One line of a fault script.

    A rule fires either *deterministically* — ``at_messages`` names
    global message indices on this schedule (requests and responses share
    one counter) — or *probabilistically* with ``probability`` per
    matching message.  ``direction`` restricts it to one side of the
    pipe.  ``param`` is kind-specific: extra seconds for ``DELAY``,
    bytes to flip for ``CORRUPT``, bytes delivered before death for
    ``CLOSE``, surviving prefix length for ``TRUNCATE`` (random when
    ``None``).
    """

    __slots__ = ("kind", "direction", "probability", "at_messages", "param")

    def __init__(
        self,
        kind: FaultKind,
        direction: str = "both",
        probability: float = 1.0,
        at_messages: Optional[Iterable[int]] = None,
        param: Optional[float] = None,
    ) -> None:
        if direction not in ("both",) + _DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0,1]")
        self.kind = kind
        self.direction = direction
        self.probability = probability
        self.at_messages = (
            frozenset(at_messages) if at_messages is not None else None
        )
        self.param = param

    def matches(self, direction: str, index: int, rng: random.Random) -> bool:
        if self.direction != "both" and self.direction != direction:
            return False
        if self.at_messages is not None:
            return index in self.at_messages
        return rng.random() < self.probability

    def __repr__(self) -> str:
        where = (
            f"at={sorted(self.at_messages)}"
            if self.at_messages is not None
            else f"p={self.probability}"
        )
        return f"FaultRule({self.kind.value}, {self.direction}, {where})"


class FaultSchedule:
    """A seeded set of :class:`FaultRule`\\ s shared by one peer's link.

    The schedule owns the RNG and the global message counter, so it stays
    deterministic across reconnects (a session opening a fresh transport
    per attempt continues the same script) and counts every injected
    fault in :attr:`fault_counts` for availability reports.
    """

    __slots__ = ("rules", "seed", "message_index", "fault_counts", "_rng")

    def __init__(
        self, rules: Sequence[FaultRule] = (), seed: int = 0
    ) -> None:
        self.rules = list(rules)
        self.seed = seed
        self.message_index = 0
        self.fault_counts: Dict[str, int] = {}
        self._rng = random.Random(seed)

    # -- convenience constructors -----------------------------------------

    @classmethod
    def drops(cls, rate: float, seed: int = 0) -> "FaultSchedule":
        return cls([FaultRule(FaultKind.DROP, probability=rate)], seed)

    @classmethod
    def latency(
        cls, extra_seconds: float, rate: float = 1.0, seed: int = 0
    ) -> "FaultSchedule":
        return cls(
            [
                FaultRule(
                    FaultKind.DELAY, probability=rate, param=extra_seconds
                )
            ],
            seed,
        )

    @classmethod
    def scripted(
        cls, events: Sequence[Tuple[int, FaultKind]], seed: int = 0
    ) -> "FaultSchedule":
        """Deterministic script: fault ``kind`` exactly at message ``index``."""
        return cls(
            [
                FaultRule(kind, at_messages=(index,))
                for index, kind in events
            ],
            seed,
        )

    # -- drawing -----------------------------------------------------------

    def draw(self, direction: str) -> List[FaultRule]:
        """Faults for the next message in ``direction`` (advances the
        counter; deterministic for a fixed seed and call sequence)."""
        index = self.message_index
        self.message_index += 1
        fired = [
            rule
            for rule in self.rules
            if rule.matches(direction, index, self._rng)
        ]
        fired.sort(key=lambda rule: _KIND_ORDER[rule.kind])
        return fired

    def count(self, kind: FaultKind) -> None:
        self.fault_counts[kind.value] = self.fault_counts.get(kind.value, 0) + 1

    def rng(self) -> random.Random:
        return self._rng

    @property
    def is_benign(self) -> bool:
        """True when the schedule can only slow delivery, never mangle it
        (drop/latency-only — the availability-guarantee regime)."""
        return all(
            rule.kind in (FaultKind.DELAY, FaultKind.DROP)
            for rule in self.rules
        )

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.rules)} rules, seed={self.seed})"


class FramePlan:
    """What the link does to one frame (see :func:`plan_frame`).

    ``delays``: DELAY seconds in firing order.  ``outcome``: the terminal
    fault (DROP, CLOSE, on a stream TRUNCATE), or None.  ``cut``: payload
    bytes that cross before a CLOSE or TRUNCATE.  ``frame``: the payload
    as received.  ``duplicates``: extra copies sent ahead of it.
    ``reorder``: swap it for the held earlier frame in its direction.
    """

    __slots__ = ("delays", "outcome", "cut", "frame", "duplicates", "reorder")

    def __init__(self, frame: bytes) -> None:
        self.delays: List[float] = []
        self.outcome: Optional[FaultKind] = None
        self.cut = len(frame)
        self.frame = frame
        self.duplicates = 0
        self.reorder = False


def plan_frame(
    schedule: FaultSchedule, direction: str, frame: bytes, stream: bool = False
) -> FramePlan:
    """The one rule interpreter: draw, count and apply one frame's rules.

    Rules apply in ``_KIND_ORDER``; a drop, close or reorder ends the
    plan, so later rules are neither counted nor drawn from the RNG.  On
    a length-framed ``stream`` a TRUNCATE ends it too (the header already
    promised the whole frame); in process the short payload is delivered
    and later rules still apply to it.
    """
    plan = FramePlan(frame)
    rng = schedule.rng()
    for rule in schedule.draw(direction):
        kind = rule.kind
        param = rule.param
        schedule.count(kind)
        if kind is FaultKind.DELAY:
            plan.delays.append(param if param is not None else 1.0)
        elif kind is FaultKind.CLOSE:
            cut = _param_or_draw(param, rng, len(frame) + 1)
            plan.cut = max(0, min(cut, len(frame)))
            plan.outcome = kind
            break
        elif kind is FaultKind.DROP:
            plan.outcome = kind
            break
        elif kind is FaultKind.TRUNCATE:
            body = plan.frame
            if body:
                cut = _param_or_draw(param, rng, len(body))
                plan.cut = max(0, min(cut, len(body) - 1))
                plan.frame = body[: plan.cut]
            if stream:
                plan.outcome = kind
                break
        elif kind is FaultKind.CORRUPT:
            plan.frame = _corrupt(
                plan.frame, int(param) if param is not None else 1, rng
            )
        elif kind is FaultKind.DUPLICATE:
            plan.duplicates += 1
        elif kind is FaultKind.REORDER:
            plan.reorder = True
            break
    return plan


class FaultyTransport:
    """Wraps a transport and carries out a :func:`plan_frame` per message.

    Duck-compatible with :class:`InProcessTransport` (``send_to_server``,
    ``send_to_client``, ``stats``, ``close``), so any code path that takes
    a transport can be put under chaos unchanged.  Latency — the modeled
    link's transfer time plus injected ``DELAY`` faults — is charged to
    the shared :class:`SimulatedClock`; when a per-request deadline is
    armed (:meth:`arm_timeout`), blowing it raises
    :class:`RequestTimeoutError`.
    """

    def __init__(
        self,
        inner: Optional[InProcessTransport] = None,
        schedule: Optional[FaultSchedule] = None,
        clock: Optional[SimulatedClock] = None,
        link: Optional[LinkModel] = None,
    ) -> None:
        self.inner = inner if inner is not None else InProcessTransport()
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.clock = clock
        self.link = link
        self._timeout: Optional[float] = None
        self._armed_at: Optional[float] = None
        self._stale: Dict[str, Optional[bytes]] = {d: None for d in _DIRECTIONS}

    # -- transport surface --------------------------------------------------

    @property
    def stats(self) -> TransportStats:
        return self.inner.stats

    @property
    def is_closed(self) -> bool:
        return self.inner.is_closed

    def close(self) -> None:
        self.inner.close()

    def send_to_server(self, payload: bytes) -> bytes:
        return self._deliver("to_server", payload, self.inner.send_to_server)

    def send_to_client(self, payload: bytes) -> bytes:
        return self._deliver("to_client", payload, self.inner.send_to_client)

    # -- timeout management ---------------------------------------------------

    def arm_timeout(self, seconds: Optional[float]) -> None:
        """Set the per-exchange deadline relative to the clock's *now*."""
        self._timeout = seconds
        self._armed_at = self.clock.now() if self.clock is not None else None

    def _elapsed(self) -> Optional[float]:
        if self.clock is None or self._armed_at is None:
            return None
        return self.clock.now() - self._armed_at

    def _timeout_error(self, reason: str) -> RequestTimeoutError:
        return RequestTimeoutError(
            reason,
            timeout_seconds=self._timeout,
            elapsed_seconds=self._elapsed(),
        )

    # -- delivery -------------------------------------------------------------

    def _check_deadline(self) -> None:
        elapsed = self._elapsed()
        if (
            self._timeout is not None
            and elapsed is not None
            and elapsed > self._timeout
        ):
            raise self._timeout_error(
                "injected latency exceeded request deadline"
            )

    def _deliver(self, direction: str, payload: bytes, forward) -> bytes:
        plan = plan_frame(self.schedule, direction, payload)
        clock = self.clock
        if clock is not None:
            # Modeled transfer time: one RTT per request/response
            # exchange, charged on the request leg, plus serialization
            # time per leg; then the injected delays.
            if self.link is not None:
                round_trips = 1 if direction == "to_server" else 0
                clock.advance(
                    self.link.transfer_seconds(len(payload), round_trips)
                )
            for seconds in plan.delays:
                clock.advance(seconds)

        if plan.outcome is FaultKind.CLOSE:
            # Partial write: the bytes that crossed before the link died
            # are recorded (never under-count delivered bytes), but no
            # complete message arrived.
            if direction == "to_server":
                self.inner.stats.bytes_to_server += plan.cut
            else:
                self.inner.stats.bytes_to_client += plan.cut
            self.inner.close()
            raise TransportError(
                f"link closed mid-stream after {plan.cut} of "
                f"{len(payload)} bytes ({direction})"
            )
        if plan.outcome is FaultKind.DROP:
            # The sender transmitted (and is charged); the receiver waits
            # out the full deadline in silence.
            forward(payload)
            if clock is not None and self._timeout is not None:
                deadline = (self._armed_at or 0.0) + self._timeout
                if clock.now() < deadline:
                    clock.advance(deadline - clock.now())
                clock.advance(1e-9)
            raise self._timeout_error(
                f"message dropped ({direction}); no response before "
                "deadline"
            )
        for _ in range(plan.duplicates):
            forward(plan.frame)  # the wire carried it twice
        if plan.reorder:
            forward(plan.frame)
            stale, self._stale[direction] = self._stale[direction], plan.frame
            self._check_deadline()
            # An earlier message arrives instead; with nothing earlier,
            # a call must still return one, so the frame itself does.
            return plan.frame if stale is None else stale
        self._check_deadline()
        return forward(plan.frame)

    def __repr__(self) -> str:
        return f"FaultyTransport({self.schedule!r}, inner={self.inner!r})"


def _param_or_draw(
    param: Optional[float], rng: random.Random, bound: int
) -> int:
    """A rule's byte count, or a uniform draw from ``range(bound)``."""
    return int(param) if param is not None else rng.randrange(0, bound)


def _corrupt(payload: bytes, nbytes: int, rng: random.Random) -> bytes:
    if not payload:
        return payload
    mutated = bytearray(payload)
    for _ in range(max(1, nbytes)):
        position = rng.randrange(0, len(mutated))
        mutated[position] ^= rng.randrange(1, 256)
    return bytes(mutated)


# ---------------------------------------------------------------------------
# socket-layer chaos


def _reset_connection(writer: asyncio.StreamWriter) -> None:
    """Abort with an RST where the platform allows it — the peer sees a
    connection reset, not an orderly FIN."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        with contextlib.suppress(OSError):
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
    writer.transport.abort()


class SocketFaultInjector:
    """A frame-aware chaos proxy between a client and a real server.

    Listens on its own loopback port and forwards length-framed traffic
    to ``target``; every frame in either direction gets a
    :func:`plan_frame` plan (with ``stream=True``) from the shared
    :class:`FaultSchedule`, which this proxy carries out on the asyncio
    streams:

    =============  ========================================================
    ``DELAY``      mid-frame stall: half the frame, a real sleep of the
                   summed delay ``param`` times ``delay_scale``, then the
                   rest
    ``DROP``       the frame is swallowed; the receiver waits in silence
    ``TRUNCATE``   partial write: the header claims the full length but
                   only a prefix is sent, then an abrupt FIN
    ``CORRUPT``    ``param`` bytes of the frame body flipped in place
    ``CLOSE``      connection reset (RST) after ``param`` payload bytes
    ``DUPLICATE``  the frame is delivered twice
    ``REORDER``    delivered after the next frame in that direction
    =============  ========================================================

    The plan comes from the same interpreter, message counter and RNG as
    :class:`FaultyTransport`'s, so a scripted schedule stays one
    deterministic script whichever executor runs it.
    """

    def __init__(
        self,
        target: Tuple[str, int],
        schedule: Optional[FaultSchedule] = None,
        *,
        delay_scale: float = 0.01,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        loop_thread: Optional[EventLoopThread] = None,
    ) -> None:
        self.target = target
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.host, self.port = "127.0.0.1", 0  # bound by start()
        self.delay_scale = delay_scale
        self.max_frame_bytes = max_frame_bytes
        self._owns_loop = loop_thread is None
        self._loop_thread = loop_thread
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._held: Dict[str, Optional[bytes]] = {
            d: None for d in _DIRECTIONS
        }
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "SocketFaultInjector":
        if self._loop_thread is None:
            self._loop_thread = EventLoopThread("repro-chaos-proxy")
        self._loop_thread.call(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    def close(self) -> None:
        if self._closed or self._loop_thread is None:
            return
        self._closed = True
        self._loop_thread.call(self._shutdown())
        if self._owns_loop:
            self._loop_thread.stop()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.transport.abort()

    def __enter__(self) -> "SocketFaultInjector":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pumps -------------------------------------------------------------

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        try:
            server_reader, server_writer = await asyncio.open_connection(
                *self.target
            )
        except OSError:
            client_writer.transport.abort()
            return
        self._writers.add(client_writer)
        self._writers.add(server_writer)
        try:
            await asyncio.gather(
                self._pump(
                    "to_server", client_reader, server_writer, client_writer
                ),
                self._pump(
                    "to_client", server_reader, client_writer, server_writer
                ),
                return_exceptions=True,
            )
        finally:
            for writer in (client_writer, server_writer):
                self._writers.discard(writer)
                writer.close()

    async def _pump(
        self,
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        back_writer: asyncio.StreamWriter,
    ) -> None:
        """Forward frames one way, applying the fault schedule."""
        while True:
            try:
                header = await reader.readexactly(FRAME_HEADER.size)
                (length,) = FRAME_HEADER.unpack(header)
                if length == 0 or length > self.max_frame_bytes:
                    # Not a frame we can reason about: sever the link.
                    writer.transport.abort()
                    back_writer.transport.abort()
                    return
                frame = await reader.readexactly(length)
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                OSError,
            ):
                # One side went away: propagate the close to the other.
                writer.close()
                return
            try:
                alive = await self._deliver(direction, frame, writer, back_writer)
            except (ConnectionError, OSError):
                return
            if not alive:
                return

    async def _deliver(
        self,
        direction: str,
        frame: bytes,
        writer: asyncio.StreamWriter,
        back_writer: asyncio.StreamWriter,
    ) -> bool:
        """Carry out one frame's plan; False ends this connection."""
        plan = plan_frame(self.schedule, direction, frame, stream=True)
        if plan.outcome is FaultKind.DROP:
            return True  # swallowed; the receiver hears silence
        if plan.outcome is not None:
            # CLOSE or TRUNCATE: the header claims the full frame but
            # only a prefix arrives, then an RST (CLOSE) or an orderly
            # FIN mid-frame (TRUNCATE).
            writer.write(FRAME_HEADER.pack(len(frame)) + frame[: plan.cut])
            with contextlib.suppress(OSError):
                await writer.drain()
            if plan.outcome is FaultKind.CLOSE:
                _reset_connection(writer)
                _reset_connection(back_writer)
            else:
                writer.close()
                back_writer.close()
            return False
        for _ in range(plan.duplicates):
            await self._forward(writer, plan.frame, None)
        frame = plan.frame
        if plan.reorder:
            frame, self._held[direction] = self._held[direction], frame
            if frame is None:
                return True  # nothing earlier yet: hold this one
        stall = sum(plan.delays) * self.delay_scale if plan.delays else None
        await self._forward(writer, frame, stall)
        return True

    async def _forward(
        self,
        writer: asyncio.StreamWriter,
        frame: bytes,
        stall: Optional[float],
    ) -> None:
        payload = FRAME_HEADER.pack(len(frame)) + frame
        if stall is not None:
            # Mid-frame stall: a prefix lands, then the line goes quiet.
            split = len(payload) // 2
            writer.write(payload[:split])
            await writer.drain()
            await asyncio.sleep(stall)
            writer.write(payload[split:])
        else:
            writer.write(payload)
        await writer.drain()

    def __repr__(self) -> str:
        return (
            f"SocketFaultInjector({self.host}:{self.port} → "
            f"{self.target[0]}:{self.target[1]}, {self.schedule!r})"
        )


# ---------------------------------------------------------------------------
# flaky peers: the *service* fails, not the link


class _FlakyMixin:
    """Shared probabilistic/scripted service-failure behaviour, gating
    every request handler of the :class:`FullNode` it is mixed into."""

    def _init_flaky(
        self,
        failure_rate: float,
        fail_on: Iterable[int],
        seed: int,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure rate {failure_rate} outside [0,1]")
        self._failure_rate = failure_rate
        self._fail_on = frozenset(fail_on)
        self._flaky_rng = random.Random(seed)
        self.request_index = 0
        self.failures_injected = 0

    def _maybe_fail(self) -> None:
        index = self.request_index
        self.request_index += 1
        if index in self._fail_on or (
            self._failure_rate > 0.0
            and self._flaky_rng.random() < self._failure_rate
        ):
            self.failures_injected += 1
            raise TransportError(
                f"peer unavailable while serving request {index}"
            )

    def handle_query(self, payload: bytes) -> bytes:
        self._maybe_fail()
        return super().handle_query(payload)

    def handle_batch_query(self, payload: bytes) -> bytes:
        self._maybe_fail()
        return super().handle_batch_query(payload)

    def handle_headers(self, payload: bytes) -> bytes:
        self._maybe_fail()
        return super().handle_headers(payload)


class FlakyFullNode(_FlakyMixin, FullNode):
    """An *honest* full node whose service flaps.

    Failures surface as :class:`TransportError` — indistinguishable, to
    the client, from a dead link — so a resilient session must retry it
    rather than ban it: when it does answer, the answer verifies.
    """

    def __init__(
        self,
        system,
        failure_rate: float = 0.0,
        fail_on: Iterable[int] = (),
        seed: int = 0,
    ) -> None:
        FullNode.__init__(self, system)
        self._init_flaky(failure_rate, fail_on, seed)


class ByzantineFlakyFullNode(_FlakyMixin, FullNode):
    """The worst peer: flaps like a flaky node *and* lies when it serves.

    ``attack`` is any :data:`repro.query.adversary.Attack`;
    ``attack_rate`` < 1 makes the malice intermittent, modelling a peer
    that builds a good reputation before striking.
    """

    def __init__(
        self,
        system,
        attack,
        failure_rate: float = 0.0,
        fail_on: Iterable[int] = (),
        attack_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        from repro.query.adversary import MaliciousFullNode

        FullNode.__init__(self, system)
        self._init_flaky(failure_rate, fail_on, seed)
        self._malicious = MaliciousFullNode(system, attack)
        if not 0.0 <= attack_rate <= 1.0:
            raise ValueError(f"attack rate {attack_rate} outside [0,1]")
        self._attack_rate = attack_rate
        self._attack_rng = random.Random(seed ^ 0x5EED)

    def answer(self, address, first_height=1, last_height=None):
        if self._attack_rng.random() < self._attack_rate:
            return self._malicious.answer(address, first_height, last_height)
        return super().answer(address, first_height, last_height)

    def answer_batch(self, addresses, first_height=1, last_height=None):
        if self._attack_rng.random() < self._attack_rate:
            return self._malicious.answer_batch(
                addresses, first_height, last_height
            )
        return super().answer_batch(addresses, first_height, last_height)


__all__ = [
    "FaultKind",
    "FaultRule",
    "FaultSchedule",
    "FaultyTransport",
    "FramePlan",
    "SocketFaultInjector",
    "plan_frame",
    "FlakyFullNode",
    "ByzantineFlakyFullNode",
]
