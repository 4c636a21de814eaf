"""Deserializer fuzzing: hostile bytes must fail *cleanly*.

A full node's responses are attacker-controlled input, so every decoder
must either return a valid object or raise a :class:`ReproError`
subclass — never an uncontrolled ``IndexError``/``struct.error``/
``MemoryError``.  The random-bytes table covers every one of the 20
message classes, ``decompress_frame``, the proof structures, and a
``QueryResponse`` decoded through a light node's warm memo.  Two
generators: pure random bytes, and random
mutations of valid payloads (which reach much deeper into the parsers):
bit flips, and for plain batch responses and push updates also
truncation, splices and inflated varints.  A mutated payload that
decodes must then either be rejected by the verifier or verify to
exactly the honest history; where a light node's memo is in play, the
warm outcome must equal the cold one.

Every class declared through ``messages.Message`` also gets a mutator
derived from its declaration, seeded with its golden vectors: truncate
at a field boundary, inflate a field's varint (value, length or count)
or re-encode it non-canonically, splice in a field of another frame,
and flip bits.  A mutant must fail cleanly or decode to a message that
re-encodes to exactly the mutant and that its constructor accepts.  And
no decode of any golden message frame, or of its inflated mutants, may
allocate more than a stated multiple of the frame's size.
"""

import functools
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.crypto.encoding import ByteReader, read_varint, write_varint
from repro.errors import ReproError
from repro.merkle.bmt import BmtMultiProof
from repro.merkle.sorted_tree import SmtBranch, SmtInexistenceProof
from repro.merkle.tree import MerkleBranch
from repro.node import messages
from repro.node.light_node import LightNode
from repro.node.messages import (
    AggregatedBatchRequest,
    AggregatedBatchResponse,
    BatchQueryResponse,
    DeltaHeadersRequest,
    DeltaHeadersResponse,
    ErrorResponse,
    HeadersRequest,
    HeadersResponse,
    HelloRequest,
    PingRequest,
    PongResponse,
    PushRetraction,
    PushUpdate,
    QueryRequest,
    QueryResponse,
    SubscribeAck,
    SubscribeRequest,
    SubscriptionEvicted,
    UnsubscribeRequest,
)
from repro.node.transport import FRAME_ZLIB, decompress_frame
from repro.query.batch import (
    BatchQueryResult,
    answer_batch_query,
    verify_batch_result,
)
from repro.query.builder import build_system
from repro.query.config import SystemConfig, SystemKind
from repro.query.prover import answer_query
from repro.query.result import QueryResult
from repro.query.verifier import verify_result

CONFIG = SystemConfig.lvq(bf_bytes=192, segment_len=16)


def _decoders():
    return [
        ("transaction", Transaction.from_bytes),
        ("merkle_branch", MerkleBranch.from_bytes),
        (
            "smt_branch",
            lambda raw: SmtBranch.deserialize(ByteReader(raw)),
        ),
        (
            "smt_inexistence",
            lambda raw: SmtInexistenceProof.deserialize(ByteReader(raw)),
        ),
        (
            "bmt_multiproof",
            lambda raw: BmtMultiProof.deserialize(ByteReader(raw), CONFIG.bf_bits),
        ),
        (
            "block_header",
            lambda raw: BlockHeader.deserialize(ByteReader(raw), 3),
        ),
        ("query_request", QueryRequest.deserialize),
        ("headers_request", HeadersRequest.deserialize),
        (
            "headers_response",
            lambda raw: HeadersResponse.deserialize(raw, 3),
        ),
        (
            "query_response",
            lambda raw: QueryResponse.deserialize(raw, CONFIG),
        ),
        (
            "query_result",
            lambda raw: QueryResult.deserialize(raw, CONFIG),
        ),
        ("batch_request", _batch_request),
        ("batch_result", _batch_result),
        # The client-side responses below get their tag byte supplied, so
        # the random bytes reach the payload decoder behind it.
        (
            "aggregated_batch_response",
            lambda raw: AggregatedBatchResponse.deserialize(
                _tagged(AggregatedBatchResponse, raw), CONFIG
            ),
        ),
        (
            "batch_query_response",
            lambda raw: BatchQueryResponse.deserialize(
                _tagged(BatchQueryResponse, raw), CONFIG
            ),
        ),
        (
            "delta_headers_response",
            lambda raw: DeltaHeadersResponse.deserialize(
                _tagged(DeltaHeadersResponse, raw), 3
            ),
        ),
        (
            "push_update",
            lambda raw: PushUpdate.deserialize(_tagged(PushUpdate, raw)),
        ),
        (
            "push_retraction",
            lambda raw: PushRetraction.deserialize(_tagged(PushRetraction, raw)),
        ),
        (
            "error_response",
            lambda raw: ErrorResponse.deserialize(_tagged(ErrorResponse, raw)),
        ),
        (
            "query_response_warm_memo",
            lambda raw: QueryResponse.deserialize(
                _tagged(QueryResponse, raw), CONFIG, memo=_warm_memo()
            ),
        ),
        # Every other message class, tag supplied the same way.
        *(
            (name, functools.partial(_tagged_decode, message_cls))
            for name, message_cls in (
                ("delta_headers_request", DeltaHeadersRequest),
                ("aggregated_batch_request", AggregatedBatchRequest),
                ("ping_request", PingRequest),
                ("pong_response", PongResponse),
                ("hello_request", HelloRequest),
                ("subscribe_request", SubscribeRequest),
                ("subscribe_ack", SubscribeAck),
                ("unsubscribe_request", UnsubscribeRequest),
                ("subscription_evicted", SubscriptionEvicted),
            )
        ),
        ("decompress_frame", decompress_frame),
        (
            "decompress_zlib_frame",
            lambda raw: decompress_frame(bytes([FRAME_ZLIB]) + raw),
        ),
    ]


def _tagged(message_cls, raw):
    return bytes([message_cls.type_tag]) + raw


def _tagged_decode(message_cls, raw):
    return message_cls.deserialize(_tagged(message_cls, raw))


@functools.lru_cache(maxsize=None)
def _warm_memo():
    """A light node's memo after it accepted whole-chain answers for two
    addresses of a small chain built with ``CONFIG``."""
    from repro.workload.generator import WorkloadParams, generate_workload

    workload = generate_workload(
        WorkloadParams(num_blocks=16, txs_per_block=5, seed=5)
    )
    system = build_system(workload.bodies, CONFIG)
    light = LightNode(system.headers(), CONFIG)
    for address in sorted(workload.bodies[3][0].addresses())[:2]:
        frame = QueryResponse(answer_query(system, address)).serialize(CONFIG)
        result = QueryResponse.deserialize(frame, CONFIG, memo=light.memo).result
        light.verify(result, address)
    assert light.memo.resolutions
    return light.memo


def _batch_request(raw):
    from repro.node.messages import BatchQueryRequest

    return BatchQueryRequest.deserialize(raw)


def _batch_result(raw):
    return BatchQueryResult.deserialize(raw, CONFIG)


@pytest.mark.parametrize("name,decoder", _decoders(), ids=lambda d: str(d))
@given(raw=st.binary(max_size=600))
@settings(max_examples=60, deadline=None)
def test_random_bytes_fail_cleanly(name, decoder, raw):
    try:
        decoder(raw)
    except ReproError:
        pass  # the only acceptable failure mode


FLIPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000_000),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=4,
)
MUTATION_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    # The fixtures are read-only (session-scoped chain); no reset needed.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def mutate(payload, flips):
    mutated = bytearray(payload)
    for position, bit in flips:
        mutated[position % len(mutated)] ^= 1 << bit
    return bytes(mutated)


def history(verified):
    return [(height, tx.txid()) for height, tx in verified.transactions]


@given(flips=FLIPS)
@MUTATION_SETTINGS
def test_mutated_result_payload_fails_cleanly(
    lvq_system, probe_addresses, flips
):
    config = lvq_system.config
    address = probe_addresses["Addr5"]
    honest = answer_query(lvq_system, address)
    expected = history(verify_result(honest, lvq_system.headers(), config))
    payload = mutate(honest.serialize(config), flips)
    try:
        result = QueryResult.deserialize(payload, config)
        verified = verify_result(
            result,
            lvq_system.headers(),
            config,
            address,
            (honest.first_height, honest.last_height),
        )
    except ReproError:
        return
    assert history(verified) == expected


BATCH_SPAN = (10, 40)


def batch_outcome(response_cls, system, frame, addresses, span, memo=None):
    """Decode a batch response frame and verify it with ``memo``
    (``None``: the cold path); the histories, or the exception."""
    config = system.config
    try:
        batch = response_cls.deserialize(frame, config, memo=memo).batch
        verified = verify_batch_result(
            batch, system.headers(), config, addresses, span, memo=memo
        )
    except ReproError as error:
        return type(error), str(error)
    return {address: history(histories) for address, histories in verified.items()}


@functools.lru_cache(maxsize=None)
def warm_batch(response_cls, system, addresses):
    """The honest frame, its histories, and a light node's memo that
    accepted it."""
    honest = answer_batch_query(system, list(addresses), *BATCH_SPAN)
    frame = response_cls(honest).serialize(system.config)
    light = LightNode(system.headers(), system.config)
    expected = batch_outcome(
        response_cls, system, frame, list(addresses), BATCH_SPAN, light.memo
    )
    assert isinstance(expected, dict)
    return frame, expected, light.memo


def check_batch_mutation(response_cls, system, probe_addresses, change):
    """``change`` the honest frame of ``response_cls`` for three probe
    addresses: rejected or the honest histories, warm as cold."""
    addresses = [probe_addresses[name] for name in ("Addr3", "Addr4", "Addr5")]
    frame, expected, memo = warm_batch(response_cls, system, tuple(addresses))
    mutated = change(frame)
    cold = batch_outcome(response_cls, system, mutated, addresses, BATCH_SPAN)
    assert cold == expected or isinstance(cold, tuple)
    warm = batch_outcome(response_cls, system, mutated, addresses, BATCH_SPAN, memo)
    assert warm == cold


@given(flips=FLIPS)
@MUTATION_SETTINGS
def test_mutated_aggregated_batch_fails_cleanly(
    lvq_system, probe_addresses, flips
):
    check_batch_mutation(
        AggregatedBatchResponse,
        lvq_system,
        probe_addresses,
        lambda frame: mutate(frame, flips),
    )


#: Edits of a valid frame: flip a bit, cut the frame short, insert a copy
#: of another run of its bytes, or rewrite a byte below 0xFD as the
#: three-byte (non-canonical) varint of the same value.
EDITS = st.lists(
    st.one_of(
        st.tuples(
            st.just("flip"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=7),
        ),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=10_000_000)),
        st.tuples(
            st.just("splice"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=1, max_value=48),
        ),
        st.tuples(st.just("inflate"), st.integers(min_value=0, max_value=10_000_000)),
    ),
    min_size=1,
    max_size=3,
)


def edit(frame, edits):
    data = bytearray(frame)
    for kind, position, *args in edits:
        if not data:
            break
        at = position % len(data)
        if kind == "flip":
            data[at] ^= 1 << args[0]
        elif kind == "truncate":
            del data[at:]
        elif kind == "splice":
            source = args[0] % len(data)
            data[at:at] = data[source : source + args[1]]
        elif data[at] < 0xFD:
            data[at : at + 1] = bytes([0xFD, data[at], 0])
    return bytes(data)


@given(edits=EDITS)
@MUTATION_SETTINGS
def test_edited_plain_batch_response_fails_cleanly(
    lvq_system, probe_addresses, edits
):
    check_batch_mutation(
        BatchQueryResponse,
        lvq_system,
        probe_addresses,
        lambda frame: edit(frame, edits),
    )


def push_outcome(system, frame, watched):
    """What a watcher does with a push frame for the last block
    (``SubscriptionSession``): decode header and batch, link the header
    onto the headers below it, verify; the histories, or the refusal."""
    config = system.config
    below = system.headers()[:-1]
    try:
        update = PushUpdate.deserialize(frame)
        if update.height != len(below):
            return "not the next height"
        reader = ByteReader(update.header_bytes)
        header = BlockHeader.deserialize(
            reader, config.header_extension_kind, config.header_bloom_bytes
        )
        reader.finish()
        batch = BatchQueryResult.deserialize(update.batch_bytes, config)
        if header.prev_hash != below[-1].block_id():
            return "does not link"
        verified = verify_batch_result(
            batch, below + [header], config, watched, (update.height,) * 2
        )
    except ReproError as error:
        return type(error), str(error)
    return {address: history(histories) for address, histories in verified.items()}


@given(edits=EDITS)
@MUTATION_SETTINGS
def test_edited_push_update_fails_cleanly(lvq_system, probe_addresses, edits):
    config = lvq_system.config
    watched = [probe_addresses[name] for name in ("Addr4", "Addr5", "Addr6")]
    height = lvq_system.tip_height
    honest = PushUpdate(
        height,
        lvq_system.chain.header_at(height).serialize(),
        answer_batch_query(lvq_system, watched, height, height).serialize(config),
    ).serialize()
    expected = push_outcome(lvq_system, honest, watched)
    assert isinstance(expected, dict)
    verdict = push_outcome(lvq_system, edit(honest, edits), watched)
    assert verdict == expected or not isinstance(verdict, dict)


# -- declaration-derived mutations over every declared message class ---------

VECTORS = pathlib.Path(__file__).resolve().parents[1] / "vectors"


def _vector_frames():
    """Message class name → its committed golden frames, and each frame
    written under another config than ``CONFIG`` → that config."""
    frames, configs = {}, {}
    for path in sorted(VECTORS.glob("*.json")):
        vector = json.loads(path.read_text())
        frame = bytes.fromhex(vector["hex"])
        frames.setdefault(vector["message"], []).append(frame)
        recorded = vector.get("chain", {}).get("config")
        if recorded is not None:
            configs[frame] = SystemConfig(
                SystemKind(recorded["kind"]),
                recorded["bf_bytes"],
                recorded["num_hashes"],
                recorded["segment_len"],
            )
    return frames, configs


VECTOR_FRAMES, VECTOR_CONFIGS = _vector_frames()
DECLARED = sorted(
    (
        value
        for value in vars(messages).values()
        if isinstance(value, type)
        and issubclass(value, messages.Message)
        and isinstance(getattr(value, "type_tag", None), int)
    ),
    key=lambda cls: cls.type_tag,
)
#: Proof-carrying responses decode with the chain's config.
PROOF_MESSAGES = (QueryResponse, BatchQueryResponse, AggregatedBatchResponse)


def decode_message(cls, frame, config=CONFIG):
    if cls in PROOF_MESSAGES:
        return cls.deserialize(frame, config)
    if cls in (HeadersResponse, DeltaHeadersResponse):
        return cls.deserialize(
            frame, CONFIG.header_extension_kind, CONFIG.header_bloom_bytes
        )
    return cls.deserialize(frame)


def field_spans(cls, frame):
    """``(start, end)`` of every declared field of a valid ``frame``;
    each field starts with a varint (its value, length or count)."""
    reader = ByteReader(frame)
    reader.bytes(1)
    context = (
        (CONFIG.header_extension_kind, CONFIG.header_bloom_bytes)
        if cls is HeadersResponse
        else ()
    )
    spans = []
    for _name, kind, *_ in cls.fields:
        start = reader.offset
        kind.read(reader, context)
        spans.append((start, reader.offset))
    return spans


def inflated(frame, start, delta):
    """``frame`` with the varint at ``start`` raised by ``delta`` (or,
    for ``delta == 0``, re-encoded in a longer, non-canonical form)."""
    value, end = read_varint(frame, start)
    if delta:
        prefix = write_varint(min(value + delta, 2**64 - 1))
    else:
        prefix = b"\xff" + value.to_bytes(8, "little")
    return frame[:start] + prefix + frame[end:]


#: ``(op, a, b)``: ``a`` picks a field (or a boundary, or a bit
#: position), ``b`` a delta, a donor frame or a bit.
STRUCTURED = st.tuples(
    st.sampled_from(["truncate", "inflate", "splice", "flip"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
INFLATIONS = (0, 1, 255, 65_536, 2**32, 2**64)
#: Frames whose fields a splice borrows: every declared class's vectors.
DONORS = [(cls, frame) for cls in DECLARED for frame in VECTOR_FRAMES[cls.__name__]]


def structured_edit(cls, frame, op, a, b):
    if op == "flip":
        mutated = bytearray(frame)
        mutated[a % len(mutated)] ^= 1 << (b % 8)
        return bytes(mutated)
    spans = field_spans(cls, frame)
    start, end = spans[a % len(spans)]
    if op == "truncate":
        boundaries = sorted({1} | {s for s, _ in spans} | {e for _, e in spans[:-1]})
        return frame[: boundaries[a % len(boundaries)]]
    if op == "inflate":
        return inflated(frame, start, INFLATIONS[b % len(INFLATIONS)])
    if op == "splice":
        donor_cls, donor = DONORS[b % len(DONORS)]
        donor_spans = field_spans(donor_cls, donor)
        donor_start, donor_end = donor_spans[a % len(donor_spans)]
        return frame[:start] + donor[donor_start:donor_end] + frame[end:]
    raise AssertionError(f"unknown edit {op}")


@pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
@given(edits=st.lists(STRUCTURED, min_size=1, max_size=2), pick=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_declared_mutations_fail_cleanly_or_reencode_exactly(cls, edits, pick):
    frames = VECTOR_FRAMES[cls.__name__]
    mutated = frames[pick % len(frames)]
    for op, a, b in edits:
        try:
            field_spans(cls, mutated)
        except ReproError:
            op = "flip"  # an earlier edit broke the layout: bits only
        mutated = structured_edit(cls, mutated, op, a, b)
    try:
        message = decode_message(cls, mutated)
    except ReproError:
        return
    assert message.serialize() == mutated
    cls(*[getattr(message, name) for name, *_ in cls.fields])


#: A decode may allocate at most ``ALLOC_PER_FRAME_BYTE`` bytes per
#: frame byte plus ``ALLOC_FIXED`` bytes for its own objects (reader,
#: message, exception); the proof-carrying frames, whose Python objects
#: are bulkier than their bytes, stay under the same bound.  A decoder
#: that sized anything by a claimed count or length would blow it.
ALLOC_PER_FRAME_BYTE = 10
ALLOC_FIXED = 4096


def peak_decode_bytes(cls, frame, config=CONFIG):
    tracemalloc.start()
    try:
        decode_message(cls, frame, config)
    except ReproError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "name", sorted(name for name in VECTOR_FRAMES if name != "zlib")
)
def test_decode_allocation_is_bounded_by_frame_size(name):
    cls = getattr(messages, name)
    for frame in VECTOR_FRAMES[name]:
        candidates = [frame]
        if cls in DECLARED:
            candidates += [
                inflated(frame, start, delta)
                for start, _ in field_spans(cls, frame)
                for delta in INFLATIONS
            ]
        config = VECTOR_CONFIGS.get(frame, CONFIG)
        for candidate in candidates:
            decode_message(cls, frame, config)  # warm any lazy import or cache
            peak = peak_decode_bytes(cls, candidate, config)
            assert peak <= ALLOC_PER_FRAME_BYTE * len(candidate) + ALLOC_FIXED, (
                name,
                len(candidate),
                peak,
            )
