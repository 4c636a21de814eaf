"""Wire messages of the simulated RPC protocol.

The paper runs its query over an RPC link between a light-node client and
a full-node server; the communication cost it reports is the size of the
response.  These message classes give that cost a concrete wire form: a
one-byte type tag plus a length-exact payload.  The transport layer counts
``len(message.serialize())`` per direction.

Each plain-field message is declared once, as data: a :class:`Message`
subclass sets ``type_tag`` and ``fields``, an ordered tuple of ``(name,
kind)`` or ``(name, kind, default)``.  A kind — :class:`Varint`,
:class:`Utf8`, :class:`VarBytes`, :class:`ListOf` or :class:`Header` —
says how the field is written and read and carries its value bound
(``min=``, ``nonempty=``, ``max_bytes=``, list ``min=``/``max=``).  One
interpreter, :class:`Message`, reads the declaration and provides the
slots, a validating ``__init__``, ``serialize`` and ``deserialize``;
because the constructor and the decoder check the same declared bound,
a frame the encoder writes is one the decoder accepts.  Decoding is
strict: tag checked, length-exact, trailing bytes refused, and every
failure an :class:`~repro.errors.EncodingError`.

To add a message: pick an unassigned tag (PROTOCOL.md §3 lists them),
declare its fields, put any rule that spans fields in a ``_check``
method, write its layout line in PROTOCOL.md §3 (a test renders the
declaration and fails when the two differ), and add a golden vector in
``tests/vectors/make_vectors.py``.  Only two shapes keep hand codecs:
the proof-carrying responses, whose body codec lives beside the proof
types (:class:`_ProofResponse`), and :class:`DeltaHeadersResponse`,
whose delta encoding is not field-shaped.
"""

from __future__ import annotations

import inspect
import math
from typing import TYPE_CHECKING, List, Optional

from repro.chain.block import BlockHeader, deserialize_extension
from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.crypto.hashing import HASH_SIZE
from repro.errors import (
    MAX_RETRY_AFTER_SECONDS,
    BackpressureError,
    ChainError,
    ConnectionLimitError,
    EncodingError,
    QueryError,
    RateLimitedError,
    RequestShedError,
    ServerOverloadedError,
    SubscriberEvictedError,
    TransportError,
)
from repro.query.aggregate import decode_aggregated_batch, encode_aggregated_batch
from repro.query.batch import BatchQueryResult
from repro.query.config import SystemConfig
from repro.query.result import QueryResult

if TYPE_CHECKING:
    from repro.query.memo import VerifierMemo

#: Wire encodings for RequestShedError params (PROTOCOL.md §11.3): the
#: priority class and shed state ride as indices into these tuples so a
#: client rebuilds the typed refusal without trusting free-form strings.
SHED_PRIORITIES = ("interactive", "sync", "batch", "backfill")
SHED_STATES = ("normal", "shed_batch", "shed_low", "shed_all")

#: Hard bound on a declared client id: identity is an accounting key,
#: not a payload — a hostile peer must not stuff kilobytes into it.
MAX_CLIENT_ID_BYTES = 64

#: Hard bound on watch-set size: large enough for any wallet, small
#: enough that a hostile subscribe cannot make the server build
#: megaframe updates on every append.
MAX_WATCH_ADDRESSES = 1024

#: Plausibility bounds on a batch request and on a header list.
MAX_BATCH_ADDRESSES = 10_000
MAX_HEADERS = 100_000_000

#: The largest integer a CompactSize varint carries.
MAX_VARINT = 0xFFFF_FFFF_FFFF_FFFF


# -- field kinds -------------------------------------------------------------


def _unchecked(value):
    return value


class Varint:
    """``varint(name)``: a CompactSize integer, ``min..MAX_VARINT``."""

    __slots__ = ("min",)

    def __init__(self, min: int = 0) -> None:
        self.min = min

    def check(self, value):
        if not isinstance(value, int) or not self.min <= value <= MAX_VARINT:
            raise EncodingError(
                f"{value!r} is not an integer in {self.min}..{MAX_VARINT}"
            )
        return value

    def read(self, reader: ByteReader, context: tuple) -> int:
        value = reader.varint()
        if value < self.min:
            raise EncodingError(f"{value} is below {self.min}")
        return value

    write = staticmethod(write_varint)


class VarBytes:
    """``var_bytes(name)``: length-prefixed raw bytes, optionally
    non-empty and at most ``max_bytes`` long."""

    __slots__ = ("nonempty", "max_bytes")

    def __init__(self, nonempty: bool = False, max_bytes: Optional[int] = None) -> None:
        self.nonempty = nonempty
        self.max_bytes = max_bytes

    def sized(self, raw: bytes) -> bytes:
        if self.nonempty and not raw:
            raise EncodingError("must not be empty")
        if self.max_bytes is not None and len(raw) > self.max_bytes:
            raise EncodingError(f"exceeds {self.max_bytes} bytes")
        return raw

    def check(self, value):
        if not isinstance(value, (bytes, bytearray)):
            raise EncodingError(f"{type(value).__name__} is not bytes")
        return self.sized(value)

    def read(self, reader: ByteReader, context: tuple) -> bytes:
        return self.sized(reader.var_bytes())

    write = staticmethod(write_var_bytes)


class Utf8(VarBytes):
    """``var_bytes(name)`` holding UTF-8 text; the bounds count bytes."""

    __slots__ = ()

    def check(self, value):
        if not isinstance(value, str):
            raise EncodingError(f"{type(value).__name__} is not text")
        if self.max_bytes is not None:
            self.sized(value.encode("utf-8"))
        elif self.nonempty and not value:
            raise EncodingError("must not be empty")
        return value

    def read(self, reader: ByteReader, context: tuple) -> str:
        raw = self.sized(reader.var_bytes())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"not UTF-8: {exc}") from exc

    def write(self, value: str) -> bytes:
        return write_var_bytes(value.encode("utf-8"))


class Header:
    """``var_bytes(header)``: one full §2 block header.  Decoding takes
    the chain's ``(extension_kind, bloom_bytes)`` as its context."""

    __slots__ = ()

    # A header is a typed object the chain or a decoder built; there is
    # no bound to check, and a list of them is not walked to check it.
    check = staticmethod(_unchecked)

    def read(self, reader: ByteReader, context: tuple) -> BlockHeader:
        header_reader = ByteReader(reader.var_bytes())
        header = BlockHeader.deserialize(header_reader, *context)
        header_reader.finish()
        return header

    def write(self, header: BlockHeader) -> bytes:
        return write_var_bytes(header.serialize())


class ListOf:
    """``varint(n) || n × item``, with ``min <= n <= max``.  The count is
    bounded before any item is read, so a frame claiming a huge list
    costs nothing but its own bytes."""

    __slots__ = ("item", "min", "max")

    def __init__(self, item, *, min: int = 0, max: int) -> None:
        self.item = item
        self.min = min
        self.max = max

    def counted(self, count: int) -> int:
        if not self.min <= count <= self.max:
            raise EncodingError(f"{count} items, not {self.min}..{self.max}")
        return count

    def check(self, values):
        if not isinstance(values, (list, tuple)):
            raise EncodingError(f"{type(values).__name__} is not a list")
        self.counted(len(values))
        check = self.item.check
        if check is not _unchecked:
            for value in values:
                check(value)
        return values

    def read(self, reader: ByteReader, context: tuple) -> list:
        item = self.item
        return [
            item.read(reader, context)
            for _ in range(self.counted(reader.varint()))
        ]

    def write(self, values) -> bytes:
        write = self.item.write
        return write_varint(len(values)) + b"".join([write(v) for v in values])


# -- the interpreter ---------------------------------------------------------


def _expect_tag(payload: bytes, tag: int) -> ByteReader:
    """A reader past ``payload``'s first byte, which must be ``tag``."""
    reader = ByteReader(payload)
    actual = reader.bytes(1)[0]
    if actual != tag:
        raise EncodingError(f"expected message tag {tag}, got {actual}")
    return reader


class _Declared(type):
    """Reads a message's ``fields`` when its class is created: slots
    named after the fields, the ``(name, kind)`` layout the codec walks,
    and the constructor signature with its defaults.  A subclass that
    only changes ``type_tag`` keeps its parent's layout."""

    def __new__(mcls, name, bases, namespace):
        declared = namespace.get("fields", ())
        namespace["__slots__"] = tuple(field[0] for field in declared)
        cls = super().__new__(mcls, name, bases, namespace)
        if "fields" in namespace:
            cls._layout = tuple((field[0], field[1]) for field in declared)
            cls.__signature__ = inspect.Signature(
                [
                    inspect.Parameter(
                        field[0],
                        inspect.Parameter.POSITIONAL_OR_KEYWORD,
                        default=field[2] if len(field) > 2 else inspect.Parameter.empty,
                    )
                    for field in declared
                ]
            )
        return cls


class Message(metaclass=_Declared):
    """The one codec for every declared message (see the module doc)."""

    fields: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._layout):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        try:
            for (name, kind), value in zip(self._layout, args):
                setattr(self, name, kind.check(value))
        except EncodingError as exc:
            raise EncodingError(f"{type(self).__name__}.{name}: {exc}") from exc
        if self._check is not None:
            self._check()

    #: Rules that span fields: a method that raises
    #: :class:`EncodingError`, or None for a message that has none.
    _check = None

    @staticmethod
    def _context() -> tuple:
        """Binds ``deserialize``'s extra arguments into the context every
        kind's ``read`` receives; only header lists take one."""
        return ()

    def serialize(self) -> bytes:
        return bytes([self.type_tag]) + b"".join(
            [kind.write(getattr(self, name)) for name, kind in self._layout]
        )

    @classmethod
    def deserialize(cls, payload: bytes, *args, **kwargs):
        context = cls._context(*args, **kwargs) if args or kwargs else ()
        reader = _expect_tag(payload, cls.type_tag)
        message = cls.__new__(cls)
        try:
            for name, kind in cls._layout:
                setattr(message, name, kind.read(reader, context))
        except EncodingError as exc:
            raise EncodingError(f"{cls.__name__}.{name}: {exc}") from exc
        reader.finish()
        if message._check is not None:
            message._check()
        return message


class _ProofResponse:
    """A tag byte, then a proof body whose codec lives beside the proof
    types (PROTOCOL.md §4, §8.1).  A subclass's one slot holds the body;
    its ``_decode`` (and, unless the body serializes itself, its
    ``_encode``) is the body codec."""

    __slots__ = ()

    @staticmethod
    def _encode(body, config: SystemConfig) -> bytes:
        return body.serialize(config)

    def serialize(self, config: SystemConfig) -> bytes:
        body = getattr(self, self.__slots__[0])
        return bytes([self.type_tag]) + self._encode(body, config)

    @classmethod
    def deserialize(
        cls,
        payload: bytes,
        config: SystemConfig,
        memo: "Optional[VerifierMemo]" = None,
    ):
        _expect_tag(payload, cls.type_tag)
        return cls(cls._decode(payload[1:], config, memo=memo))


# -- messages ----------------------------------------------------------------


class QueryRequest(Message):
    """Light → full: "send me the verifiable history of this address".

    ``first_height``/``last_height`` optionally restrict the query to a
    height range; ``last_height = 0`` means "up to your tip" (the client
    cross-checks the answered range against its own headers).
    """

    type_tag = 0x01
    fields = (
        ("address", Utf8()),
        ("first_height", Varint(min=1), 1),
        ("last_height", Varint(), 0),
    )


class QueryResponse(_ProofResponse):
    """Full → light: the complete :class:`QueryResult`."""

    __slots__ = ("result",)

    type_tag = 0x02
    _decode = QueryResult.deserialize

    def __init__(self, result: QueryResult) -> None:
        self.result = result


class BatchQueryRequest(Message):
    """Light → full: verifiable histories for several addresses at once."""

    type_tag = 0x05
    fields = (
        ("addresses", ListOf(Utf8(), min=1, max=MAX_BATCH_ADDRESSES)),
        ("first_height", Varint(min=1), 1),
        ("last_height", Varint(), 0),
    )


class BatchQueryResponse(_ProofResponse):
    """Full → light: one :class:`BatchQueryResult` for the whole request."""

    __slots__ = ("batch",)

    type_tag = 0x06
    _decode = BatchQueryResult.deserialize

    def __init__(self, batch) -> None:
        self.batch = batch


class HeadersRequest(Message):
    """Light → full: "send headers from this height on" (initial sync)."""

    type_tag = 0x03
    fields = (("from_height", Varint(), 0),)


#: One full header, and a header list; the delta response bounds its
#: count and writes its first header with the same two objects.
_HEADER = Header()
_HEADERS = ListOf(_HEADER, max=MAX_HEADERS)


class HeadersResponse(Message):
    """Full → light: consecutive headers (the light node's whole storage)."""

    type_tag = 0x04
    fields = (("from_height", Varint()), ("headers", _HEADERS))

    @staticmethod
    def _context(extension_kind: int, bloom_bytes: int = 0) -> tuple:
        return (extension_kind, bloom_bytes)


class DeltaHeadersRequest(HeadersRequest):
    """Light → full: headers from a height on, delta-encoded (§8.2).

    Same payload shape as :class:`HeadersRequest`; the tag alone selects
    the response encoding, which is how compression is "negotiated" —
    an old server simply rejects the unknown tag.
    """

    type_tag = 0x07


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not (z & 1) else -((z + 1) >> 1)


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

    type_tag = 0x08

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
                parts.append(_HEADER.write(header))
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
        reader = _expect_tag(payload, cls.type_tag)
        from_height = reader.varint()
        count = _HEADERS.counted(reader.varint())
        headers: List[BlockHeader] = []
        previous = None
        for _ in range(count):
            if previous is None:
                previous = _HEADER.read(reader, (extension_kind, bloom_bytes))
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

    type_tag = 0x09


class AggregatedBatchResponse(_ProofResponse):
    """Full → light: a :class:`BatchQueryResult` in blob-table form."""

    __slots__ = ("batch",)

    type_tag = 0x0A
    _encode = staticmethod(encode_aggregated_batch)
    _decode = staticmethod(decode_aggregated_batch)

    def __init__(self, batch) -> None:
        self.batch = batch


# -- typed errors ------------------------------------------------------------


def _retry_ms(error: BackpressureError) -> int:
    # Wire params are non-negative varints; the retry-after hint rides
    # as integer milliseconds (0 = no hint), rounded up so a client
    # honouring it never comes back early.
    if error.retry_after is None or error.retry_after <= 0:
        return 0
    return math.ceil(error.retry_after * 1000.0)


def _retry_seconds(params: "tuple[int, ...]", position: int) -> "float | None":
    """Decode a retry-after-milliseconds wire param (0 / absent = none),
    clamped so a hostile hint cannot park a client for hours."""
    if len(params) <= position or params[position] <= 0:
        return None
    return min(params[position] / 1000.0, MAX_RETRY_AFTER_SECONDS)


def _at(params: "tuple[int, ...]", position: int, default: int = 0) -> int:
    return params[position] if len(params) > position else default


def _index(options: "tuple[str, ...]", name: str) -> int:
    # An unknown name rides out of range, and rebuilds as "unknown".
    return options.index(name) if name in options else len(options)


def _name_at(options: "tuple[str, ...]", params: "tuple[int, ...]", position: int) -> str:
    index = _at(params, position, len(options))
    return options[index] if index < len(options) else "unknown"


#: The error kinds whose params carry fields (PROTOCOL.md §11.4), both
#: directions in one row: ``class: (exception → params, params →
#: exception)``.  Every param is an optional suffix, so an older,
#: shorter frame still rebuilds.
_ERROR_PARAMS = {
    ServerOverloadedError: (
        lambda error: (error.pending, error.max_pending, _retry_ms(error)),
        lambda p: ServerOverloadedError(_at(p, 0), _at(p, 1), _retry_seconds(p, 2)),
    ),
    ConnectionLimitError: (
        lambda error: (error.active, error.max_connections, _retry_ms(error)),
        lambda p: ConnectionLimitError(_at(p, 0), _at(p, 1), _retry_seconds(p, 2)),
    ),
    RateLimitedError: (
        lambda error: (_retry_ms(error),),
        lambda p: RateLimitedError("self", _retry_seconds(p, 0)),
    ),
    RequestShedError: (
        lambda error: (
            _index(SHED_PRIORITIES, error.priority),
            _index(SHED_STATES, error.state),
            _retry_ms(error),
        ),
        lambda p: RequestShedError(
            _name_at(SHED_PRIORITIES, p, 0),
            _name_at(SHED_STATES, p, 1),
            _retry_seconds(p, 2),
        ),
    ),
    SubscriberEvictedError: (
        lambda error: (error.subscription_id, error.dropped_frames),
        lambda p: SubscriberEvictedError(_at(p, 0, 1), _at(p, 1)),
    ),
}

#: Param-less kinds a client also rebuilds, from the message alone.
#: Only *benign* kinds are rebuilt at all — a malicious server naming
#: anything else (or inventing kinds) degrades to a generic
#: :class:`TransportError`, which can deny service but never influence
#: what verifies.
_PLAIN_ERRORS = (EncodingError, QueryError, ChainError, TransportError)


class ErrorResponse(Message):
    """Server → client: a typed failure instead of a result frame (§9).

    In-process, a handler failure propagates as a Python exception; over
    a socket it must take a wire form.  ``kind`` names the exception
    class (from :mod:`repro.errors`), ``message`` is its text, and
    ``params`` carries kind-specific non-negative integers (queue depth
    and bound for ``ServerOverloadedError``, active count and gate for
    ``ConnectionLimitError``) so the client can rebuild the exact typed
    error that peer scoring and retry machinery already classify.
    """

    type_tag = 0x0B
    fields = (
        ("kind", Utf8(nonempty=True)),
        ("message", Utf8()),
        ("params", ListOf(Varint(), max=16), ()),
    )

    def _check(self) -> None:
        # Params are a tuple on the instance, whatever sequence built them.
        self.params = tuple(self.params)

    @classmethod
    def from_exception(cls, error: Exception) -> "ErrorResponse":
        for error_cls, (to_params, _) in _ERROR_PARAMS.items():
            if isinstance(error, error_cls):
                return cls(type(error).__name__, str(error), to_params(error))
        return cls(type(error).__name__, str(error))

    def __repr__(self) -> str:
        return f"ErrorResponse({self.kind}: {self.message!r})"


def error_from_frame(error: ErrorResponse) -> Exception:
    """Rebuild the typed exception an :class:`ErrorResponse` carries."""
    for error_cls, (_, rebuild) in _ERROR_PARAMS.items():
        if error.kind == error_cls.__name__:
            return rebuild(error.params)
    for error_cls in _PLAIN_ERRORS:
        if error.kind == error_cls.__name__:
            return error_cls(error.message)
    return TransportError(f"peer reported {error.kind}: {error.message}")


def raise_for_error(frame: bytes) -> None:
    """Raise the typed exception if ``frame`` is an error frame; any
    other frame passes.  A malformed error frame raises
    :class:`EncodingError`."""
    if frame and frame[0] == ErrorResponse.type_tag:
        raise error_from_frame(ErrorResponse.deserialize(frame))


class PingRequest(Message):
    """Client → server: liveness/health probe, answered inline (§9.4).

    The net server replies without queueing a worker, so a pong proves
    the event loop is alive even when the query queue is saturated.
    ``nonce`` is echoed back, binding each pong to its ping.
    """

    type_tag = 0x0C
    fields = (("nonce", Varint(), 0),)


class PongResponse(Message):
    """Server → client: ping echo plus the served chain's tip height.

    The tip lets a pooled client learn the peer's height without paying
    for a header sync — it is *advisory* (nothing about it is verified);
    any data derived from it still goes through the usual proof checks.
    """

    type_tag = 0x0D
    fields = (("nonce", Varint()), ("tip_height", Varint()))


class HelloRequest(Message):
    """Client → server: declare a client identity for this connection.

    Optional and purely operational (§11): the id keys the server's
    per-client token bucket, so a wallet fleet behind one NAT is rate-
    limited per wallet instead of per source address.  Answered inline
    with a :class:`PongResponse` (nonce 0) carrying the advisory tip —
    like the ping path, a hello never queues behind query work.  The id
    grants nothing: it can only *narrow* a rate bucket, and an unsent
    hello leaves the connection keyed by its socket peer.
    """

    type_tag = 0x1A
    fields = (
        ("client_id", Utf8(nonempty=True, max_bytes=MAX_CLIENT_ID_BYTES)),
    )


class SubscribeRequest(Message):
    """Client → server: "push me verifiable updates for these addresses".

    The address list becomes the subscription's watch set; every pushed
    :class:`PushUpdate` answers exactly this list, in this order, so the
    client can pin ``expected_addresses`` during verification (§10.2).
    """

    # Subscription tags start at 0x14: 0x0e-0x13 are left unassigned so
    # the compression frame markers (0x10/0x11, transport.py) and room
    # around them can never be mistaken for a message tag on first-byte
    # dispatch.
    type_tag = 0x14
    fields = (
        (
            "addresses",
            ListOf(Utf8(nonempty=True), min=1, max=MAX_WATCH_ADDRESSES),
        ),
    )

    def _check(self) -> None:
        if len(set(self.addresses)) != len(self.addresses):
            raise EncodingError("watch set addresses must be distinct")


class SubscribeAck(Message):
    """Server → client: the subscription is registered.

    ``tip_height`` is the server's tip *at registration*: every block
    appended after this moment will be pushed, so a client whose local
    tip lags the ack tip knows exactly the gap it must backfill with a
    normal (verified) range query.  Like the pong tip, the value itself
    is advisory — data derived from it still passes full verification.
    Also answers :class:`UnsubscribeRequest` (same shape, same fields).
    """

    type_tag = 0x15
    fields = (("subscription_id", Varint(min=1)), ("tip_height", Varint()))


class UnsubscribeRequest(Message):
    """Client → server: drop one subscription (answered by an ack)."""

    type_tag = 0x16
    fields = (("subscription_id", Varint(min=1)),)


class PushUpdate(Message):
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

    type_tag = 0x17
    fields = (
        ("height", Varint(min=1)),
        ("header_bytes", VarBytes(nonempty=True)),
        ("batch_bytes", VarBytes(nonempty=True)),
    )


class PushRetraction(Message):
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

    type_tag = 0x18
    fields = (("fork_height", Varint()), ("old_tip", Varint()))

    def _check(self) -> None:
        if self.old_tip < self.fork_height:
            raise EncodingError(
                f"bad retraction ({self.fork_height}, {self.old_tip})"
            )


class SubscriptionEvicted(Message):
    """Server → client (unsolicited, final): slow-consumer eviction (§10.5).

    When a subscriber's bounded outbox overflows, the server reclaims
    the queued frames, delivers this one frame in their place, and
    closes the connection.  The client rebuilds it as a typed
    :class:`~repro.errors.SubscriberEvictedError`.
    """

    type_tag = 0x19
    fields = (
        ("subscription_id", Varint(min=1)),
        ("dropped_frames", Varint()),
        ("reason", Utf8()),
    )

    def to_error(self):
        return SubscriberEvictedError(
            self.subscription_id, self.dropped_frames, self.reason
        )
