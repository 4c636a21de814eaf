"""Wire messages of the simulated RPC protocol.

The paper runs its query over an RPC link between a light-node client and
a full-node server; the communication cost it reports is the size of the
response.  These message classes give that cost a concrete wire form: a
one-byte type tag plus a length-exact payload.  The transport layer counts
``len(message.serialize())`` per direction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.chain.block import BlockHeader, deserialize_extension
from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.crypto.hashing import HASH_SIZE
from repro.errors import EncodingError
from repro.query.config import SystemConfig
from repro.query.result import QueryResult

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo

_MSG_QUERY_REQUEST = 1
_MSG_QUERY_RESPONSE = 2
_MSG_HEADERS_REQUEST = 3
_MSG_HEADERS_RESPONSE = 4
_MSG_BATCH_REQUEST = 5
_MSG_BATCH_RESPONSE = 6
_MSG_DELTA_HEADERS_REQUEST = 7
_MSG_DELTA_HEADERS_RESPONSE = 8
_MSG_AGG_BATCH_REQUEST = 9
_MSG_AGG_BATCH_RESPONSE = 10
_MSG_ERROR = 11
_MSG_PING = 12
_MSG_PONG = 13
# Subscription tags start at 0x14: 0x0e-0x13 are left unassigned so the
# compression frame markers (0x10/0x11, transport.py) and room around
# them can never be mistaken for a message tag on first-byte dispatch.
_MSG_SUBSCRIBE_REQUEST = 20
_MSG_SUBSCRIBE_ACK = 21
_MSG_UNSUBSCRIBE_REQUEST = 22
_MSG_PUSH_UPDATE = 23
_MSG_PUSH_RETRACTION = 24
_MSG_SUBSCRIPTION_EVICTED = 25
_MSG_HELLO = 26

#: Wire encodings for RequestShedError params (PROTOCOL.md §11.3): the
#: priority class and shed state ride as indices into these tuples so a
#: client rebuilds the typed refusal without trusting free-form strings.
SHED_PRIORITIES = ("interactive", "sync", "batch", "backfill")
SHED_STATES = ("normal", "shed_batch", "shed_low", "shed_all")


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


class QueryRequest:
    """Light → full: "send me the verifiable history of this address".

    ``first_height``/``last_height`` optionally restrict the query to a
    height range; ``last_height = 0`` means "up to your tip" (the client
    cross-checks the answered range against its own headers).
    """

    __slots__ = ("address", "first_height", "last_height")

    type_tag = _MSG_QUERY_REQUEST

    def __init__(
        self, address: str, first_height: int = 1, last_height: int = 0
    ) -> None:
        if first_height < 1 or last_height < 0:
            raise EncodingError(
                f"bad query range [{first_height},{last_height}]"
            )
        self.address = address
        self.first_height = first_height
        self.last_height = last_height

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_var_bytes(self.address.encode("utf-8"))
            + write_varint(self.first_height)
            + write_varint(self.last_height)
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "QueryRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        address = _utf8(reader.var_bytes())
        first_height = reader.varint()
        last_height = reader.varint()
        reader.finish()
        return cls(address, first_height, last_height)


class QueryResponse:
    """Full → light: the complete :class:`QueryResult`."""

    __slots__ = ("result",)

    type_tag = _MSG_QUERY_RESPONSE

    def __init__(self, result: QueryResult) -> None:
        self.result = result

    def serialize(self, config: SystemConfig) -> bytes:
        return bytes([self.type_tag]) + self.result.serialize(config)

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
    ) -> "QueryResponse":
        if not payload or payload[0] != cls.type_tag:
            raise EncodingError("not a query response")
        return cls(QueryResult.deserialize(payload[1:], config, memo=memo))


class BatchQueryRequest:
    """Light → full: verifiable histories for several addresses at once."""

    __slots__ = ("addresses", "first_height", "last_height")

    type_tag = _MSG_BATCH_REQUEST

    def __init__(
        self,
        addresses: "List[str]",
        first_height: int = 1,
        last_height: int = 0,
    ) -> None:
        if not addresses:
            raise EncodingError("batch request needs at least one address")
        if first_height < 1 or last_height < 0:
            raise EncodingError(
                f"bad query range [{first_height},{last_height}]"
            )
        self.addresses = addresses
        self.first_height = first_height
        self.last_height = last_height

    def serialize(self) -> bytes:
        parts = [bytes([self.type_tag]), write_varint(len(self.addresses))]
        parts.extend(
            write_var_bytes(address.encode("utf-8"))
            for address in self.addresses
        )
        parts.append(write_varint(self.first_height))
        parts.append(write_varint(self.last_height))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "BatchQueryRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        count = reader.varint()
        if count == 0 or count > 10_000:
            raise EncodingError(f"implausible batch size {count}")
        addresses = [_utf8(reader.var_bytes()) for _ in range(count)]
        first_height = reader.varint()
        last_height = reader.varint()
        reader.finish()
        return cls(addresses, first_height, last_height)


class BatchQueryResponse:
    """Full → light: one :class:`BatchQueryResult` for the whole request."""

    __slots__ = ("batch",)

    type_tag = _MSG_BATCH_RESPONSE

    def __init__(self, batch) -> None:
        self.batch = batch

    def serialize(self, config: SystemConfig) -> bytes:
        return bytes([self.type_tag]) + self.batch.serialize(config)

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
    ) -> "BatchQueryResponse":
        from repro.query.batch import BatchQueryResult

        if not payload or payload[0] != cls.type_tag:
            raise EncodingError("not a batch query response")
        return cls(BatchQueryResult.deserialize(payload[1:], config, memo=memo))


class HeadersRequest:
    """Light → full: "send headers from this height on" (initial sync)."""

    __slots__ = ("from_height",)

    type_tag = _MSG_HEADERS_REQUEST

    def __init__(self, from_height: int = 0) -> None:
        if from_height < 0:
            raise EncodingError(f"negative height {from_height}")
        self.from_height = from_height

    def serialize(self) -> bytes:
        return bytes([self.type_tag]) + write_varint(self.from_height)

    @classmethod
    def deserialize(cls, payload: bytes) -> "HeadersRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        from_height = reader.varint()
        reader.finish()
        return cls(from_height)


class HeadersResponse:
    """Full → light: consecutive headers (the light node's whole storage)."""

    __slots__ = ("from_height", "headers")

    type_tag = _MSG_HEADERS_RESPONSE

    def __init__(self, from_height: int, headers: List[BlockHeader]) -> None:
        self.from_height = from_height
        self.headers = headers

    def serialize(self) -> bytes:
        parts = [
            bytes([self.type_tag]),
            write_varint(self.from_height),
            write_varint(len(self.headers)),
        ]
        parts.extend(
            write_var_bytes(header.serialize()) for header in self.headers
        )
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls, payload: bytes, extension_kind: int, bloom_bytes: int = 0
    ) -> "HeadersResponse":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        from_height = reader.varint()
        count = reader.varint()
        if count > 100_000_000:
            raise EncodingError(f"implausible header count {count}")
        headers = []
        for _ in range(count):
            header_reader = ByteReader(reader.var_bytes())
            headers.append(
                BlockHeader.deserialize(header_reader, extension_kind, bloom_bytes)
            )
            header_reader.finish()
        reader.finish()
        return cls(from_height, headers)


class DeltaHeadersRequest(HeadersRequest):
    """Light → full: headers from a height on, delta-encoded (§8.2).

    Same payload shape as :class:`HeadersRequest`; the tag alone selects
    the response encoding, which is how compression is "negotiated" —
    an old server simply rejects the unknown tag.
    """

    type_tag = _MSG_DELTA_HEADERS_REQUEST


class DeltaHeadersResponse:
    """Full → light: consecutive headers with the prev-hash implied.

    The first header ships in full; each subsequent one omits its 32-byte
    ``prev_hash`` (the chain link makes it equal to the previous header's
    id) and varint-packs the small core fields, with the timestamp as a
    zigzag delta.  The decoder *derives* the missing prev-hash by hashing
    the previous header, so a server cannot smuggle in a header whose
    linkage the client has not itself recomputed.
    """

    __slots__ = ("from_height", "headers")

    type_tag = _MSG_DELTA_HEADERS_RESPONSE

    def __init__(self, from_height: int, headers: List[BlockHeader]) -> None:
        self.from_height = from_height
        self.headers = headers

    def serialize(self) -> bytes:
        parts = [
            bytes([self.type_tag]),
            write_varint(self.from_height),
            write_varint(len(self.headers)),
        ]
        previous = None
        for header in self.headers:
            if previous is None:
                parts.append(write_var_bytes(header.serialize()))
            else:
                if header.prev_hash != previous.block_id():
                    raise EncodingError(
                        "delta header encoding requires chained headers"
                    )
                parts.append(write_varint(header.version))
                parts.append(
                    write_varint(_zigzag(header.timestamp - previous.timestamp))
                )
                parts.append(write_varint(header.bits))
                parts.append(write_varint(header.nonce))
                parts.append(header.merkle_root)
                parts.append(header.extension.serialize())
            previous = header
        return b"".join(parts)

    @classmethod
    def deserialize(
        cls, payload: bytes, extension_kind: int, bloom_bytes: int = 0
    ) -> "DeltaHeadersResponse":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        from_height = reader.varint()
        count = reader.varint()
        if count > 100_000_000:
            raise EncodingError(f"implausible header count {count}")
        headers: List[BlockHeader] = []
        previous = None
        for _ in range(count):
            if previous is None:
                header_reader = ByteReader(reader.var_bytes())
                previous = BlockHeader.deserialize(
                    header_reader, extension_kind, bloom_bytes
                )
                header_reader.finish()
            else:
                version = reader.varint()
                timestamp = previous.timestamp + _unzigzag(reader.varint())
                if timestamp < 0:
                    raise EncodingError("delta header timestamp underflow")
                bits = reader.varint()
                nonce = reader.varint()
                merkle_root = reader.bytes(HASH_SIZE)
                extension = deserialize_extension(
                    reader, extension_kind, bloom_bytes
                )
                previous = BlockHeader(
                    previous.block_id(),
                    merkle_root,
                    timestamp,
                    extension,
                    version,
                    bits,
                    nonce,
                )
            headers.append(previous)
        reader.finish()
        return cls(from_height, headers)


class AggregatedBatchRequest(BatchQueryRequest):
    """Light → full: a batch query answered with the aggregated encoding.

    Identical payload to :class:`BatchQueryRequest`; the tag selects the
    response format (§8.1).
    """

    type_tag = _MSG_AGG_BATCH_REQUEST


class AggregatedBatchResponse:
    """Full → light: a :class:`BatchQueryResult` in blob-table form."""

    __slots__ = ("batch",)

    type_tag = _MSG_AGG_BATCH_RESPONSE

    def __init__(self, batch) -> None:
        self.batch = batch

    def serialize(self, config: SystemConfig) -> bytes:
        from repro.query.aggregate import encode_aggregated_batch

        return bytes([self.type_tag]) + encode_aggregated_batch(
            self.batch, config
        )

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
    ) -> "AggregatedBatchResponse":
        from repro.query.aggregate import decode_aggregated_batch

        if not payload or payload[0] != cls.type_tag:
            raise EncodingError("not an aggregated batch response")
        return cls(decode_aggregated_batch(payload[1:], config, memo=memo))


class ErrorResponse:
    """Server → client: a typed failure instead of a result frame (§9).

    In-process, a handler failure propagates as a Python exception; over
    a socket it must take a wire form.  ``kind`` names the exception
    class (from :mod:`repro.errors`), ``message`` is its text, and
    ``params`` carries kind-specific non-negative integers (queue depth
    and bound for ``ServerOverloadedError``, active count and gate for
    ``ConnectionLimitError``) so the client can rebuild the exact typed
    error that peer scoring and retry machinery already classify.
    """

    __slots__ = ("kind", "message", "params")

    type_tag = _MSG_ERROR

    def __init__(
        self, kind: str, message: str, params: "tuple[int, ...]" = ()
    ) -> None:
        if not kind:
            raise EncodingError("error frame needs a kind")
        params = tuple(int(value) for value in params)
        if any(value < 0 for value in params):
            raise EncodingError(f"negative error param in {params}")
        self.kind = kind
        self.message = message
        self.params = params

    @classmethod
    def from_exception(cls, error: Exception) -> "ErrorResponse":
        from repro.errors import (
            BackpressureError,
            ConnectionLimitError,
            RateLimitedError,
            RequestShedError,
            ServerOverloadedError,
            SubscriberEvictedError,
        )

        def _retry_ms(err: BackpressureError) -> int:
            # Wire params are non-negative varints; the retry-after hint
            # rides as integer milliseconds (0 = no hint), rounded up so
            # a client honouring it never comes back early.
            if err.retry_after is None or err.retry_after <= 0:
                return 0
            return math.ceil(err.retry_after * 1000.0)

        def _index(options: "tuple[str, ...]", name: str) -> int:
            try:
                return options.index(name)
            except ValueError:
                return len(options)  # out-of-range = "unknown" on rebuild

        params: "tuple[int, ...]" = ()
        if isinstance(error, ServerOverloadedError):
            params = (error.pending, error.max_pending, _retry_ms(error))
        elif isinstance(error, ConnectionLimitError):
            params = (error.active, error.max_connections, _retry_ms(error))
        elif isinstance(error, RateLimitedError):
            params = (_retry_ms(error),)
        elif isinstance(error, RequestShedError):
            params = (
                _index(SHED_PRIORITIES, error.priority),
                _index(SHED_STATES, error.state),
                _retry_ms(error),
            )
        elif isinstance(error, SubscriberEvictedError):
            params = (error.subscription_id, error.dropped_frames)
        return cls(type(error).__name__, str(error), params)

    def serialize(self) -> bytes:
        parts = [
            bytes([self.type_tag]),
            write_var_bytes(self.kind.encode("utf-8")),
            write_var_bytes(self.message.encode("utf-8")),
            write_varint(len(self.params)),
        ]
        parts.extend(write_varint(value) for value in self.params)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "ErrorResponse":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        kind = _utf8(reader.var_bytes())
        message = _utf8(reader.var_bytes())
        count = reader.varint()
        if count > 16:
            raise EncodingError(f"implausible error param count {count}")
        params = tuple(reader.varint() for _ in range(count))
        reader.finish()
        return cls(kind, message, params)

    def __repr__(self) -> str:
        return f"ErrorResponse({self.kind}: {self.message!r})"


class PingRequest:
    """Client → server: liveness/health probe, answered inline (§9.4).

    The net server replies without queueing a worker, so a pong proves
    the event loop is alive even when the query queue is saturated.
    ``nonce`` is echoed back, binding each pong to its ping.
    """

    __slots__ = ("nonce",)

    type_tag = _MSG_PING

    def __init__(self, nonce: int = 0) -> None:
        if nonce < 0:
            raise EncodingError(f"negative ping nonce {nonce}")
        self.nonce = nonce

    def serialize(self) -> bytes:
        return bytes([self.type_tag]) + write_varint(self.nonce)

    @classmethod
    def deserialize(cls, payload: bytes) -> "PingRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        nonce = reader.varint()
        reader.finish()
        return cls(nonce)


class PongResponse:
    """Server → client: ping echo plus the served chain's tip height.

    The tip lets a pooled client learn the peer's height without paying
    for a header sync — it is *advisory* (nothing about it is verified);
    any data derived from it still goes through the usual proof checks.
    """

    __slots__ = ("nonce", "tip_height")

    type_tag = _MSG_PONG

    def __init__(self, nonce: int, tip_height: int) -> None:
        if nonce < 0 or tip_height < 0:
            raise EncodingError(
                f"negative pong fields ({nonce}, {tip_height})"
            )
        self.nonce = nonce
        self.tip_height = tip_height

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_varint(self.nonce)
            + write_varint(self.tip_height)
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "PongResponse":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        nonce = reader.varint()
        tip_height = reader.varint()
        reader.finish()
        return cls(nonce, tip_height)


#: Hard bound on a declared client id: identity is an accounting key,
#: not a payload — a hostile peer must not stuff kilobytes into it.
MAX_CLIENT_ID_BYTES = 64


class HelloRequest:
    """Client → server: declare a client identity for this connection.

    Optional and purely operational (§11): the id keys the server's
    per-client token bucket, so a wallet fleet behind one NAT is rate-
    limited per wallet instead of per source address.  Answered inline
    with a :class:`PongResponse` (nonce 0) carrying the advisory tip —
    like the ping path, a hello never queues behind query work.  The id
    grants nothing: it can only *narrow* a rate bucket, and an unsent
    hello leaves the connection keyed by its socket peer.
    """

    __slots__ = ("client_id",)

    type_tag = _MSG_HELLO

    def __init__(self, client_id: str) -> None:
        if not client_id:
            raise EncodingError("hello needs a non-empty client id")
        if len(client_id.encode("utf-8")) > MAX_CLIENT_ID_BYTES:
            raise EncodingError(
                f"client id exceeds {MAX_CLIENT_ID_BYTES} bytes"
            )
        self.client_id = client_id

    def serialize(self) -> bytes:
        return bytes([self.type_tag]) + write_var_bytes(
            self.client_id.encode("utf-8")
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "HelloRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        client_id = _utf8(reader.var_bytes())
        reader.finish()
        return cls(client_id)


#: Hard bound on watch-set size: large enough for any wallet, small
#: enough that a hostile subscribe cannot make the server build
#: megaframe updates on every append.
MAX_WATCH_ADDRESSES = 1024


class SubscribeRequest:
    """Client → server: "push me verifiable updates for these addresses".

    The address list becomes the subscription's watch set; every pushed
    :class:`PushUpdate` answers exactly this list, in this order, so the
    client can pin ``expected_addresses`` during verification (§10.2).
    """

    __slots__ = ("addresses",)

    type_tag = _MSG_SUBSCRIBE_REQUEST

    def __init__(self, addresses: "List[str]") -> None:
        if not addresses:
            raise EncodingError("subscription needs at least one address")
        if len(addresses) > MAX_WATCH_ADDRESSES:
            raise EncodingError(
                f"watch set of {len(addresses)} exceeds the "
                f"{MAX_WATCH_ADDRESSES}-address bound"
            )
        if any(not address for address in addresses):
            raise EncodingError("empty address in watch set")
        if len(set(addresses)) != len(addresses):
            raise EncodingError("watch set addresses must be distinct")
        self.addresses = list(addresses)

    def serialize(self) -> bytes:
        parts = [bytes([self.type_tag]), write_varint(len(self.addresses))]
        parts.extend(
            write_var_bytes(address.encode("utf-8"))
            for address in self.addresses
        )
        return b"".join(parts)

    @classmethod
    def deserialize(cls, payload: bytes) -> "SubscribeRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        count = reader.varint()
        if count == 0 or count > MAX_WATCH_ADDRESSES:
            raise EncodingError(f"implausible watch set size {count}")
        addresses = [_utf8(reader.var_bytes()) for _ in range(count)]
        reader.finish()
        return cls(addresses)


class SubscribeAck:
    """Server → client: the subscription is registered.

    ``tip_height`` is the server's tip *at registration*: every block
    appended after this moment will be pushed, so a client whose local
    tip lags the ack tip knows exactly the gap it must backfill with a
    normal (verified) range query.  Like the pong tip, the value itself
    is advisory — data derived from it still passes full verification.
    Also answers :class:`UnsubscribeRequest` (same shape, same fields).
    """

    __slots__ = ("subscription_id", "tip_height")

    type_tag = _MSG_SUBSCRIBE_ACK

    def __init__(self, subscription_id: int, tip_height: int) -> None:
        if subscription_id < 1 or tip_height < 0:
            raise EncodingError(
                f"bad subscribe ack ({subscription_id}, {tip_height})"
            )
        self.subscription_id = subscription_id
        self.tip_height = tip_height

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_varint(self.subscription_id)
            + write_varint(self.tip_height)
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "SubscribeAck":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        subscription_id = reader.varint()
        tip_height = reader.varint()
        reader.finish()
        return cls(subscription_id, tip_height)


class UnsubscribeRequest:
    """Client → server: drop one subscription (answered by an ack)."""

    __slots__ = ("subscription_id",)

    type_tag = _MSG_UNSUBSCRIBE_REQUEST

    def __init__(self, subscription_id: int) -> None:
        if subscription_id < 1:
            raise EncodingError(f"bad subscription id {subscription_id}")
        self.subscription_id = subscription_id

    def serialize(self) -> bytes:
        return bytes([self.type_tag]) + write_varint(self.subscription_id)

    @classmethod
    def deserialize(cls, payload: bytes) -> "UnsubscribeRequest":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        subscription_id = reader.varint()
        reader.finish()
        return cls(subscription_id)


class PushUpdate:
    """Server → client (unsolicited): one appended block, proven.

    ``header_bytes`` is the new block's full header; ``batch_bytes`` is
    a serialized :class:`~repro.query.batch.BatchQueryResult` answering
    the subscription's watch set over the single-height range
    ``[height, height]``, built *at tip == height* (inside the append
    listener, before the chain can move again).  The client links the
    header onto its local chain, then runs the identical
    ``verify_batch_result`` path a pull query uses — quiet addresses
    arrive as BF-negative attestations, hits as SMT existence plus
    Merkle/BMT inclusion proofs.  Nothing here is trusted unverified.

    The batch stays opaque bytes at this layer because decoding needs
    the chain's :class:`~repro.query.config.SystemConfig`; the client
    decodes with its own trusted config, never one supplied by a peer.
    """

    __slots__ = ("height", "header_bytes", "batch_bytes")

    type_tag = _MSG_PUSH_UPDATE

    def __init__(
        self, height: int, header_bytes: bytes, batch_bytes: bytes
    ) -> None:
        if height < 1:
            raise EncodingError(f"bad push update height {height}")
        if not header_bytes or not batch_bytes:
            raise EncodingError("push update needs header and batch bytes")
        self.height = height
        self.header_bytes = header_bytes
        self.batch_bytes = batch_bytes

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_varint(self.height)
            + write_var_bytes(self.header_bytes)
            + write_var_bytes(self.batch_bytes)
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "PushUpdate":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        height = reader.varint()
        header_bytes = reader.var_bytes()
        batch_bytes = reader.var_bytes()
        reader.finish()
        return cls(height, header_bytes, batch_bytes)


class PushRetraction:
    """Server → client (unsolicited): blocks above ``fork_height`` are gone.

    Sent from the reorg listener the moment the server rolls back; the
    replacement blocks follow as ordinary :class:`PushUpdate` frames
    whose headers must *link* onto the retained prefix — that linkage
    plus their batch proofs is what actually authorizes the switch.  A
    fabricated retraction can therefore only cost the client a
    re-verification round trip (deny), never install wrong history
    (deceive).  ``old_tip`` is advisory: the tip the server had before
    rolling back, letting the client report the retracted span.
    """

    __slots__ = ("fork_height", "old_tip")

    type_tag = _MSG_PUSH_RETRACTION

    def __init__(self, fork_height: int, old_tip: int) -> None:
        if fork_height < 0 or old_tip < fork_height:
            raise EncodingError(
                f"bad retraction ({fork_height}, {old_tip})"
            )
        self.fork_height = fork_height
        self.old_tip = old_tip

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_varint(self.fork_height)
            + write_varint(self.old_tip)
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "PushRetraction":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        fork_height = reader.varint()
        old_tip = reader.varint()
        reader.finish()
        return cls(fork_height, old_tip)


class SubscriptionEvicted:
    """Server → client (unsolicited, final): slow-consumer eviction (§10.5).

    When a subscriber's bounded outbox overflows, the server reclaims
    the queued frames, delivers this one frame in their place, and
    closes the connection.  The client rebuilds it as a typed
    :class:`~repro.errors.SubscriberEvictedError`.
    """

    __slots__ = ("subscription_id", "dropped_frames", "reason")

    type_tag = _MSG_SUBSCRIPTION_EVICTED

    def __init__(
        self, subscription_id: int, dropped_frames: int, reason: str
    ) -> None:
        if subscription_id < 1 or dropped_frames < 0:
            raise EncodingError(
                f"bad eviction ({subscription_id}, {dropped_frames})"
            )
        self.subscription_id = subscription_id
        self.dropped_frames = dropped_frames
        self.reason = reason

    def serialize(self) -> bytes:
        return (
            bytes([self.type_tag])
            + write_varint(self.subscription_id)
            + write_varint(self.dropped_frames)
            + write_var_bytes(self.reason.encode("utf-8"))
        )

    @classmethod
    def deserialize(cls, payload: bytes) -> "SubscriptionEvicted":
        reader = ByteReader(payload)
        _expect_tag(reader, cls.type_tag)
        subscription_id = reader.varint()
        dropped_frames = reader.varint()
        reason = _utf8(reader.var_bytes())
        reader.finish()
        return cls(subscription_id, dropped_frames, reason)

    def to_error(self):
        from repro.errors import SubscriberEvictedError

        return SubscriberEvictedError(
            self.subscription_id, self.dropped_frames, self.reason
        )


def _expect_tag(reader: ByteReader, tag: int) -> None:
    actual = reader.bytes(1)[0]
    if actual != tag:
        raise EncodingError(f"expected message tag {tag}, got {actual}")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not UTF-8: {exc}") from exc
