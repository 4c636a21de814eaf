"""Trailing-byte strictness audit over every wire message type.

A deserializer that tolerates trailing garbage gives an attacker (or a
corrupting link) a free byte-channel and makes "byte-identical" result
comparisons unsound.  Every message ``deserialize`` must consume the
payload exactly: one extra byte anywhere — appended to the message, or
smuggled inside a nested length-prefixed blob — must raise
:class:`EncodingError`.

The TCP layer gets the same treatment from the *delivery* side: a frame
dribbled in one byte at a time, or split at every header/body boundary,
must produce a response byte-identical to the in-process handler call —
TCP segmentation can never change what a server decodes.
"""

import socket
import time

import pytest

from repro.errors import EncodingError
from repro.node.full_node import FullNode
from repro.node.messages import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorResponse,
    HeadersRequest,
    HeadersResponse,
    PingRequest,
    PongResponse,
    QueryRequest,
    QueryResponse,
)

MESSAGE_TYPES = (
    "QueryRequest",
    "QueryResponse",
    "BatchQueryRequest",
    "BatchQueryResponse",
    "HeadersRequest",
    "HeadersResponse",
    "ErrorResponse",
    "PingRequest",
    "PongResponse",
)


def _encode_and_decoder(message_type, system, address):
    """Return (serialized_bytes, strict_decoder) for one message type."""
    config = system.config
    node = FullNode(system)
    if message_type == "QueryRequest":
        return (
            QueryRequest(address).serialize(),
            QueryRequest.deserialize,
        )
    if message_type == "QueryResponse":
        return (
            node.handle_query(QueryRequest(address).serialize()),
            lambda raw: QueryResponse.deserialize(raw, config),
        )
    if message_type == "BatchQueryRequest":
        return (
            BatchQueryRequest([address]).serialize(),
            BatchQueryRequest.deserialize,
        )
    if message_type == "BatchQueryResponse":
        return (
            node.handle_batch_query(BatchQueryRequest([address]).serialize()),
            lambda raw: BatchQueryResponse.deserialize(raw, config),
        )
    if message_type == "HeadersRequest":
        return (
            HeadersRequest(0).serialize(),
            HeadersRequest.deserialize,
        )
    if message_type == "HeadersResponse":
        return (
            node.handle_headers(HeadersRequest(0).serialize()),
            lambda raw: HeadersResponse.deserialize(
                raw, config.header_extension_kind, config.header_bloom_bytes
            ),
        )
    if message_type == "ErrorResponse":
        return (
            ErrorResponse("QueryError", "bad range", (3, 9)).serialize(),
            ErrorResponse.deserialize,
        )
    if message_type == "PingRequest":
        return (PingRequest(77).serialize(), PingRequest.deserialize)
    assert message_type == "PongResponse"
    return (PongResponse(77, 48).serialize(), PongResponse.deserialize)


@pytest.mark.parametrize("message_type", MESSAGE_TYPES)
class TestTrailingBytes:
    def test_clean_roundtrip(self, any_system, probe_addresses, message_type):
        raw, decode = _encode_and_decoder(
            message_type, any_system, probe_addresses["Addr5"]
        )
        decode(raw)  # must not raise

    @pytest.mark.parametrize("garbage", [b"\x00", b"\xff", b"\x00\x01\x02"])
    def test_trailing_garbage_rejected(
        self, any_system, probe_addresses, message_type, garbage
    ):
        raw, decode = _encode_and_decoder(
            message_type, any_system, probe_addresses["Addr5"]
        )
        with pytest.raises(EncodingError):
            decode(raw + garbage)

    def test_truncation_rejected(
        self, any_system, probe_addresses, message_type
    ):
        raw, decode = _encode_and_decoder(
            message_type, any_system, probe_addresses["Addr5"]
        )
        with pytest.raises(EncodingError):
            decode(raw[:-1])

    def test_empty_rejected(self, any_system, probe_addresses, message_type):
        raw, decode = _encode_and_decoder(
            message_type, any_system, probe_addresses["Addr5"]
        )
        with pytest.raises(EncodingError):
            decode(b"")


# ---------------------------------------------------------------------------
# delivery strictness over real TCP: segmentation must be invisible


@pytest.fixture(scope="module")
def tcp_served_node(request):
    """A served LVQ node, started once for the delivery-strictness tests."""
    from netserve import NodeServer
    from repro.node.net import EventLoopThread

    lvq_system = request.getfixturevalue("lvq_system")
    loop_thread = EventLoopThread("test-strictness-loop")
    node = FullNode(lvq_system)
    server = NodeServer(
        node, idle_timeout=30.0, read_timeout=10.0, loop_thread=loop_thread
    )
    server.start()
    yield server, node
    server.close()
    loop_thread.stop()


def _tcp_exchange_with_chunks(address, chunks):
    """Send pre-split wire bytes (with pauses between chunks) and read
    one full response frame back."""
    from repro.node.net import FRAME_HEADER

    with socket.create_connection(address, timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
            time.sleep(0.002)  # force distinct TCP segments
        header = b""
        while len(header) < FRAME_HEADER.size:
            piece = sock.recv(FRAME_HEADER.size - len(header))
            assert piece, "server closed before the response header"
            header += piece
        (length,) = FRAME_HEADER.unpack(header)
        body = b""
        while len(body) < length:
            piece = sock.recv(length - len(body))
            assert piece, "server closed mid-response"
            body += piece
        return body


def _wire_bytes(frame):
    from repro.node.net import FRAME_HEADER

    return FRAME_HEADER.pack(len(frame)) + frame


def test_tcp_byte_dribble_matches_in_process(
    tcp_served_node, probe_addresses
):
    """The whole request delivered ONE BYTE AT A TIME: the decoded
    request — hence the response — must be byte-identical to the
    in-process handler call (InProcessTransport's delivery)."""
    server, node = tcp_served_node
    request = QueryRequest(probe_addresses["Addr5"]).serialize()
    expected = node.handle_query(request)

    wire = _wire_bytes(request)
    dribbled = [wire[i : i + 1] for i in range(len(wire))]
    assert _tcp_exchange_with_chunks(server.address, dribbled) == expected


@pytest.mark.parametrize("split", [1, 2, 3, 4])
def test_tcp_header_boundary_splits_match_in_process(
    tcp_served_node, probe_addresses, split
):
    """The wire bytes split at every header-boundary offset (inside the
    4-byte length prefix and exactly between header and body)."""
    server, node = tcp_served_node
    request = QueryRequest(probe_addresses["Addr4"]).serialize()
    expected = node.handle_query(request)

    wire = _wire_bytes(request)
    chunks = [wire[:split], wire[split:]]
    assert _tcp_exchange_with_chunks(server.address, chunks) == expected


def test_tcp_back_to_back_frames_in_one_segment(
    tcp_served_node, probe_addresses
):
    """Two frames coalesced into a single send must still produce two
    correct responses — the inverse segmentation hazard."""
    from repro.node.net import FRAME_HEADER

    server, node = tcp_served_node
    first = QueryRequest(probe_addresses["Addr4"]).serialize()
    second = QueryRequest(probe_addresses["Addr5"]).serialize()
    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(_wire_bytes(first) + _wire_bytes(second))
        responses = []
        for _ in range(2):
            header = b""
            while len(header) < FRAME_HEADER.size:
                header += sock.recv(FRAME_HEADER.size - len(header))
            (length,) = FRAME_HEADER.unpack(header)
            body = b""
            while len(body) < length:
                body += sock.recv(length - len(body))
            responses.append(body)
    assert responses[0] == node.handle_query(first)
    assert responses[1] == node.handle_query(second)


def test_nested_header_blob_trailing_byte_rejected(lvq_system):
    """Garbage hidden *inside* a length-prefixed header blob (so the
    outer framing still lines up) must still be rejected."""
    from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint

    node = FullNode(lvq_system)
    raw = node.handle_headers(HeadersRequest(0).serialize())
    config = lvq_system.config

    # Re-frame: append one byte to the first header's var_bytes payload.
    reader = ByteReader(raw)
    tag = reader.bytes(1)
    from_height = reader.varint()
    count = reader.varint()
    first_blob = reader.var_bytes()
    rest = reader.bytes(reader.remaining)
    tampered = (
        tag
        + write_varint(from_height)
        + write_varint(count)
        + write_var_bytes(first_blob + b"\x00")
        + rest
    )
    with pytest.raises(EncodingError):
        HeadersResponse.deserialize(
            tampered, config.header_extension_kind, config.header_bloom_bytes
        )
