"""In-process transport with exact byte accounting.

The paper's experiments measure network overhead as the size of the query
result.  :class:`InProcessTransport` models the RPC link as a pair of
counted pipes: every message that crosses it adds ``len(payload)`` to the
direction's counter, so experiments read real serialized sizes rather
than estimates.  A configurable byte budget lets failure-injection tests
simulate a link that dies mid-query.

This module also hosts the optional per-frame zlib compression layer
(PROTOCOL.md §8.3): :func:`compress_frame` / :func:`decompress_frame`
implement the self-describing compressed-frame format, and
:class:`CompressedTransport` wraps any transport so both directions are
compressed on the wire while handlers keep seeing plain frames.  Byte
counters always record what actually crossed the link — the compressed
sizes.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.crypto.encoding import ByteReader, write_varint
from repro.errors import EncodingError, TransportError

#: Compressed-frame wire tags.  Plain message tags occupy the low range
#: (see :mod:`repro.node.messages`); a receiver dispatches on the first
#: byte, so these must never collide with a message tag.  ``0x11`` is
#: reserved (PROTOCOL.md §8.3) and refused on receipt.
FRAME_ZLIB = 0x10
FRAME_RESERVED = 0x11

#: Frames smaller than this ship raw by default — the codec header plus
#: deflate overhead would only grow them.
MIN_COMPRESS_SIZE = 64

#: Default upper bound on a single frame, raw or decompressed.  Sized
#: for a phone-class light node: big enough for any legitimate response
#: at the evaluation scales, small enough that a lying length header
#: cannot balloon memory.  Configurable per transport/connection and
#: enforced symmetrically on send and receive.
DEFAULT_MAX_FRAME_BYTES = 32 << 20


class TransportStats:
    """Bytes and messages per direction."""

    __slots__ = (
        "bytes_to_server",
        "bytes_to_client",
        "messages_to_server",
        "messages_to_client",
        "dropped_deadlines",
    )

    def __init__(self) -> None:
        self.bytes_to_server = 0
        self.bytes_to_client = 0
        self.messages_to_server = 0
        self.messages_to_client = 0
        #: Deadlines a wrapper could not arm because the wrapped
        #: transport has no ``arm_timeout`` — a dropped deadline must be
        #: visible, never a silent no-op.
        self.dropped_deadlines = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_to_server + self.bytes_to_client

    def merge(self, other: "TransportStats") -> "TransportStats":
        """Accumulate ``other`` into self (per-peer session accounting)."""
        self.bytes_to_server += other.bytes_to_server
        self.bytes_to_client += other.bytes_to_client
        self.messages_to_server += other.messages_to_server
        self.messages_to_client += other.messages_to_client
        self.dropped_deadlines += other.dropped_deadlines
        return self

    def as_dict(self) -> "dict[str, int]":
        return {
            "bytes_to_server": self.bytes_to_server,
            "bytes_to_client": self.bytes_to_client,
            "messages_to_server": self.messages_to_server,
            "messages_to_client": self.messages_to_client,
            "dropped_deadlines": self.dropped_deadlines,
        }

    def __repr__(self) -> str:
        return (
            f"TransportStats(→server {self.bytes_to_server}B/"
            f"{self.messages_to_server}msg, →client {self.bytes_to_client}B/"
            f"{self.messages_to_client}msg)"
        )


class LinkModel:
    """A simple network model turning byte counts into latency estimates.

    The paper reports only result *sizes*; this model converts them into
    wall-clock transfer estimates for a parameterized link:
    ``latency = rtt * round_trips + bytes / bandwidth``.
    """

    __slots__ = ("bandwidth_bps", "rtt_seconds")

    def __init__(self, bandwidth_bps: float, rtt_seconds: float) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if rtt_seconds < 0:
            raise ValueError(f"rtt cannot be negative, got {rtt_seconds}")
        self.bandwidth_bps = bandwidth_bps
        self.rtt_seconds = rtt_seconds

    @classmethod
    def home_broadband(cls) -> "LinkModel":
        """50 Mbit/s down, 30 ms RTT — a phone-class light node."""
        return cls(bandwidth_bps=50e6 / 8, rtt_seconds=0.030)

    @classmethod
    def mobile_3g(cls) -> "LinkModel":
        """2 Mbit/s, 120 ms RTT — the pessimistic SPV scenario."""
        return cls(bandwidth_bps=2e6 / 8, rtt_seconds=0.120)

    def transfer_seconds(self, num_bytes: int, round_trips: int = 1) -> float:
        if num_bytes < 0 or round_trips < 0:
            raise ValueError("bytes and round trips must be non-negative")
        return self.rtt_seconds * round_trips + num_bytes / self.bandwidth_bps

    def estimated_latency(self, stats: "TransportStats") -> float:
        """Estimated wall-clock time for everything ``stats`` recorded,
        assuming one round trip per request/response pair."""
        round_trips = max(stats.messages_to_server, stats.messages_to_client)
        return self.transfer_seconds(stats.total_bytes, round_trips)


class SimulatedClock:
    """Deterministic time source for timeout and backoff simulation.

    Sessions and fault-injecting transports share one clock; latency is
    *charged* to it (``advance``) rather than waited out, so chaos tests
    covering hours of backoff run in milliseconds of wall time.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds
        return self._now

    # ``sleep`` is an alias so session code reads like real client code.
    sleep = advance

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self._now:.3f}s)"


class InProcessTransport:
    """A counted, optionally budgeted, request/response pipe."""

    def __init__(self, byte_budget: Optional[int] = None) -> None:
        self.stats = TransportStats()
        self._byte_budget = byte_budget
        self._closed = False

    def close(self) -> None:
        self._closed = True

    @property
    def is_closed(self) -> bool:
        return self._closed

    def _charge(self, size: int) -> int:
        """Admit up to ``size`` bytes against the budget.

        Returns the number of bytes that actually made it across before
        the link died (all of them on a healthy link).  A budget-killed
        link closes itself; the *caller* records the partial delivery so
        experiments never under-count bytes that really crossed the wire.
        """
        if self._closed:
            raise TransportError("transport is closed")
        if self._byte_budget is not None:
            room = self._byte_budget - self.stats.total_bytes
            if size > room:
                self._closed = True
                return max(room, 0)
        return size

    def send_to_server(self, payload: bytes) -> bytes:
        """Client-side send; returns the payload as the server receives it."""
        delivered = self._charge(len(payload))
        self.stats.bytes_to_server += delivered
        if delivered < len(payload):
            raise TransportError(
                f"byte budget {self._byte_budget} exhausted mid-transfer "
                f"({delivered} of {len(payload)} bytes delivered)"
            )
        self.stats.messages_to_server += 1
        return payload

    def send_to_client(self, payload: bytes) -> bytes:
        """Server-side send; returns the payload as the client receives it."""
        delivered = self._charge(len(payload))
        self.stats.bytes_to_client += delivered
        if delivered < len(payload):
            raise TransportError(
                f"byte budget {self._byte_budget} exhausted mid-transfer "
                f"({delivered} of {len(payload)} bytes delivered)"
            )
        self.stats.messages_to_client += 1
        return payload


# ---------------------------------------------------------------------------
# per-frame compression (PROTOCOL.md §8.3)


def compress_frame(
    payload: bytes,
    min_size: int = MIN_COMPRESS_SIZE,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Wrap ``payload`` in a zlib frame when that actually helps.

    The result is self-describing: either the original frame (first byte
    is a plain message tag) or ``[0x10][varint raw_len][zlib stream]``.
    Frames below ``min_size``, and frames deflate fails to shrink, pass
    through untouched — negotiation is per frame, by tag.  A frame
    larger than ``max_frame_bytes`` is refused on the *send* side with
    the same typed error the receiver would raise, so a peer with a
    smaller limit is never fed a frame it must reject.
    """
    if len(payload) > max_frame_bytes:
        raise EncodingError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    if len(payload) < min_size:
        return payload
    # Entropy coding only: a frame is digests and near-half-fill merged
    # filters, and aggregation already removed every repeated blob, so
    # LZ77 match search took 8x the time to find nothing (DESIGN.md
    # §10).  Still an ordinary RFC 1950 stream.
    deflate = zlib.compressobj(strategy=zlib.Z_HUFFMAN_ONLY)
    body = deflate.compress(payload) + deflate.flush()
    frame = bytes([FRAME_ZLIB]) + write_varint(len(payload)) + body
    if len(frame) >= len(payload):
        return payload
    return frame


def decompress_frame(
    frame: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Undo :func:`compress_frame`; raw frames pass through unchanged.

    Every failure mode — truncated stream, corrupt zlib data, a length
    header that lies, trailing garbage, a claimed size beyond
    ``max_frame_bytes`` (the zip-bomb guard), the reserved ``0x11`` tag
    — raises :class:`EncodingError`, the same typed decode failure a
    mangled plain frame produces.
    """
    if frame and frame[0] == FRAME_RESERVED:
        raise EncodingError("frame tag 0x11 (once zstd) is reserved")
    if not frame or frame[0] != FRAME_ZLIB:
        if len(frame) > max_frame_bytes:
            raise EncodingError(
                f"frame of {len(frame)} bytes exceeds the "
                f"{max_frame_bytes}-byte limit"
            )
        return frame
    reader = ByteReader(frame)
    reader.bytes(1)  # the FRAME_ZLIB tag
    raw_len = reader.varint()
    if raw_len > max_frame_bytes:
        raise EncodingError(
            f"compressed frame claims {raw_len} decompressed bytes, over "
            f"the {max_frame_bytes}-byte limit"
        )
    body = reader.bytes(reader.remaining)
    decomp = zlib.decompressobj()
    try:
        # max_length=0 would mean "unbounded" — always pass >= 1 so a
        # frame claiming 0 bytes cannot smuggle an expansion bomb.
        raw = decomp.decompress(body, max(raw_len, 1))
    except zlib.error as exc:
        raise EncodingError(f"bad zlib frame: {exc}") from exc
    if not decomp.eof or decomp.unconsumed_tail:
        raise EncodingError("zlib frame does not end where it claims to")
    if decomp.unused_data:
        raise EncodingError("trailing bytes after the zlib stream")
    if len(raw) != raw_len:
        raise EncodingError(
            f"compressed frame claims {raw_len} bytes, carries {len(raw)}"
        )
    return raw


class CompressedTransport:
    """Compress both directions of any wrapped transport, per frame.

    Duck-compatible with :class:`InProcessTransport` — handlers on either
    end keep exchanging *plain* frames while the wrapped transport (and
    its byte counters, budgets, and fault schedules) sees only the
    compressed bytes.  Wrapping a
    :class:`~repro.node.faults.FaultyTransport` therefore makes injected
    corruption and truncation land on the compressed representation,
    which is exactly how the chaos suite proves fault handling is
    codec-agnostic.
    """

    def __init__(
        self,
        inner=None,
        min_size: int = MIN_COMPRESS_SIZE,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise EncodingError(
                f"frame limit must be positive, got {max_frame_bytes}"
            )
        self.inner = inner if inner is not None else InProcessTransport()
        self.min_size = min_size
        self.max_frame_bytes = max_frame_bytes

    # -- transport surface --------------------------------------------------

    @property
    def stats(self) -> TransportStats:
        return self.inner.stats

    @property
    def is_closed(self) -> bool:
        return self.inner.is_closed

    def close(self) -> None:
        self.inner.close()

    def arm_timeout(self, seconds: "Optional[float]") -> None:
        """Forward the deadline to the wrapped transport.

        When the inner transport cannot arm deadlines, the drop is
        *recorded* in :attr:`TransportStats.dropped_deadlines` rather
        than silently ignored — a socket deadline must never vanish
        because a compression wrapper sat in the middle.
        """
        arm = getattr(self.inner, "arm_timeout", None)
        if arm is not None:
            arm(seconds)
        elif seconds is not None:
            self.stats.dropped_deadlines += 1

    def send_to_server(self, payload: bytes) -> bytes:
        return decompress_frame(
            self.inner.send_to_server(
                compress_frame(payload, self.min_size, self.max_frame_bytes)
            ),
            self.max_frame_bytes,
        )

    def send_to_client(self, payload: bytes) -> bytes:
        return decompress_frame(
            self.inner.send_to_client(
                compress_frame(payload, self.min_size, self.max_frame_bytes)
            ),
            self.max_frame_bytes,
        )

    def __repr__(self) -> str:
        return f"CompressedTransport(inner={self.inner!r})"
