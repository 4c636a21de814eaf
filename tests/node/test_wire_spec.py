"""The message declarations in ``messages.py`` against their three
readers: the constructor, the decoder and PROTOCOL.md §3.

* A constructor refuses exactly what the decoder refuses, so a message
  that encodes always decodes (the declared bound is one object).
* Every public constructor keeps the signature it had before the
  declarations existed.
* PROTOCOL.md §3 states each declared layout and bound: the renderer
  below writes a declaration the way §3 does, and the test fails when
  the document and the declaration differ.
"""

import inspect
import pathlib
import re

import pytest

from repro.errors import EncodingError
from repro.node import messages
from repro.node.messages import (
    AggregatedBatchRequest,
    BatchQueryRequest,
    ErrorResponse,
    Header,
    HelloRequest,
    ListOf,
    Message,
    PushRetraction,
    SubscribeRequest,
    VarBytes,
    Varint,
)

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "PROTOCOL.md"

MESSAGE_CLASSES = sorted(
    (
        value
        for value in vars(messages).values()
        if isinstance(value, type)
        and isinstance(getattr(value, "type_tag", None), int)
    ),
    key=lambda cls: cls.type_tag,
)
DECLARED = [cls for cls in MESSAGE_CLASSES if issubclass(cls, Message)]


class TestEncodeRefusesWhatDecodeRefuses:
    @pytest.mark.parametrize("cls", [BatchQueryRequest, AggregatedBatchRequest])
    def test_batch_of_10001_addresses_refused_at_construction(self, cls):
        cls(["a"] * 10_000)
        with pytest.raises(EncodingError):
            cls(["a"] * 10_001)

    def test_error_with_17_params_refused_at_construction(self):
        ErrorResponse("QueryError", "m", tuple(range(16)))
        with pytest.raises(EncodingError):
            ErrorResponse("QueryError", "m", tuple(range(17)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HelloRequest("x" * 65),
            lambda: HelloRequest(""),
            lambda: SubscribeRequest(["a", "a"]),
            lambda: SubscribeRequest(["a", ""]),
            lambda: PushRetraction(5, 4),
            lambda: BatchQueryRequest([]),
            lambda: messages.QueryRequest(7),
            lambda: messages.PushUpdate(1, "header", b"batch"),
        ],
    )
    def test_out_of_bound_fields_raise_encoding_error(self, build):
        with pytest.raises(EncodingError):
            build()

    @pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
    def test_varint_fields_stop_at_64_bits(self, cls):
        """Every top-level varint field takes 2**64 - 1, which decodes
        back, and refuses 2**64 at construction, which no frame holds."""
        context = (3, 0) if cls is messages.HeadersResponse else ()
        widest = [
            2**64 - 1 if isinstance(kind, Varint) else edge(kind)
            for _name, kind, *_ in cls.fields
        ]
        frame = cls(*widest).serialize()
        assert cls.deserialize(frame, *context).serialize() == frame
        for index, (_name, kind, *_) in enumerate(cls.fields):
            if isinstance(kind, Varint):
                with pytest.raises(EncodingError, match="integer in"):
                    cls(*widest[:index], 2**64, *widest[index + 1 :])

    @pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
    def test_every_encodable_bound_edge_decodes(self, cls):
        """The smallest message each declaration allows encodes, and
        its frame decodes back to the same bytes."""
        values = [edge(kind) for _name, kind, *_ in cls.fields]
        frame = cls(*values).serialize()
        context = (3, 0) if cls is messages.HeadersResponse else ()
        assert cls.deserialize(frame, *context).serialize() == frame


def edge(kind):
    if isinstance(kind, Varint):
        return kind.min
    if isinstance(kind, ListOf):
        return [edge(kind.item) for _ in range(kind.min)]
    if isinstance(kind, messages.Utf8):
        return "a" if kind.nonempty else ""
    if isinstance(kind, VarBytes):
        return b"a" if kind.nonempty else b""
    raise AssertionError(f"no edge value for {kind!r}")


#: Every constructor's parameters and defaults, as they stood when each
#: class had a hand-written ``__init__``.
SIGNATURES = {
    "QueryRequest": "(address, first_height=1, last_height=0)",
    "QueryResponse": "(result)",
    "HeadersRequest": "(from_height=0)",
    "HeadersResponse": "(from_height, headers)",
    "BatchQueryRequest": "(addresses, first_height=1, last_height=0)",
    "BatchQueryResponse": "(batch)",
    "DeltaHeadersRequest": "(from_height=0)",
    "DeltaHeadersResponse": "(from_height, headers)",
    "AggregatedBatchRequest": "(addresses, first_height=1, last_height=0)",
    "AggregatedBatchResponse": "(batch)",
    "ErrorResponse": "(kind, message, params=())",
    "PingRequest": "(nonce=0)",
    "PongResponse": "(nonce, tip_height)",
    "SubscribeRequest": "(addresses)",
    "SubscribeAck": "(subscription_id, tip_height)",
    "UnsubscribeRequest": "(subscription_id)",
    "PushUpdate": "(height, header_bytes, batch_bytes)",
    "PushRetraction": "(fork_height, old_tip)",
    "SubscriptionEvicted": "(subscription_id, dropped_frames, reason)",
    "HelloRequest": "(client_id)",
}


def test_constructor_signatures_are_unchanged():
    def plain(cls):
        signature = inspect.signature(cls)
        return str(
            signature.replace(
                parameters=[
                    p.replace(annotation=inspect.Parameter.empty)
                    for p in signature.parameters.values()
                ],
                return_annotation=inspect.Signature.empty,
            )
        )

    assert {cls.__name__: plain(cls) for cls in MESSAGE_CLASSES} == SIGNATURES


def test_declared_keyword_arguments_and_errors():
    request = messages.QueryRequest(address="a", last_height=9)
    assert (request.address, request.first_height, request.last_height) == (
        "a",
        1,
        9,
    )
    with pytest.raises(TypeError):
        messages.QueryRequest()
    with pytest.raises(TypeError):
        messages.QueryRequest("a", 1, 0, 5)
    with pytest.raises(TypeError):
        messages.QueryRequest("a", height=3)


# -- PROTOCOL.md §3 ----------------------------------------------------------


def singular(name):
    return name[:-2] if name.endswith("sses") else name[:-1]


def render(name, kind):
    """One field as §3 writes it."""
    if isinstance(kind, Varint):
        return f"varint({name})"
    if isinstance(kind, (VarBytes, Header)):
        return f"var_bytes({name})"
    if isinstance(kind, ListOf):
        return f"varint(n) || n × {render(singular(name), kind.item)}"
    raise AssertionError(f"no rendering for {kind!r}")


def bounds(name, kind):
    """The value bounds of one field as §3 writes them."""
    if isinstance(kind, Varint) and kind.min:
        yield f"{name} >= {kind.min}"
    if isinstance(kind, VarBytes):
        if kind.nonempty:
            yield f"non-empty {name}"
        if kind.max_bytes is not None:
            yield f"{name} <= {kind.max_bytes} bytes"
    if isinstance(kind, ListOf):
        yield f"{kind.min} <= n <= {kind.max}"
        yield from bounds(singular(name), kind.item)


def section_3():
    """``{"0x01 QueryRequest": bullet text}`` for every §3 bullet."""
    text = PROTOCOL.read_text()
    body = text[text.index("## 3. Messages") : text.index("## 4. QueryResult")]
    bullets = re.findall(r"^\* `(0x[0-9a-f]{2} \w+)` — (.*?)(?=^\* |^$)", body, re.S | re.M)
    return {head: bullet for head, bullet in bullets}


def squash(text):
    return re.sub(r"\s+", "", text)


def test_section_3_lists_every_message_under_its_tag():
    heads = {f"0x{cls.type_tag:02x} {cls.__name__}" for cls in MESSAGE_CLASSES}
    assert heads <= set(section_3())


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
def test_section_3_states_the_declared_layout_and_bounds(cls):
    bullet = section_3()[f"0x{cls.type_tag:02x} {cls.__name__}"]
    layout = " || ".join(render(name, kind) for name, kind, *_ in cls.fields)
    first_span = re.match(r"`([^`]*)`", squash(bullet))
    assert first_span and first_span.group(1) == squash(layout), bullet
    for bound in (b for name, kind, *_ in cls.fields for b in bounds(name, kind)):
        assert squash(bound) in squash(bullet).replace("`", ""), (bound, bullet)
