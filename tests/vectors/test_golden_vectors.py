"""Golden wire vectors: committed frames the codec and the verifier must
keep reading exactly as they did when the frames were written.

Each JSON file in this directory holds one frame (``make_vectors.py``
wrote them; nothing rewrites them): every message class has at least
one.  The two proof vectors also hold the request that produced them
from the ``lvq_system`` fixture and the ``(height, txid)`` history a
light node accepts from them.  The tests pin that every frame decodes
and re-encodes to itself, that the node still writes exactly those
bytes (from the fixture, or from the vector's recorded ``fields``),
that the proofs verify to the recorded history, and — for the BMT
vector — that flipping any single bit of a multiproof's tags, hashes or
filters is rejected, identically by a cold verifier and by a light node
whose replay memo is warm.  The four other system kinds each have a
plain and an aggregated batch vector over one request: the prover
writes both, the aggregated frame expands to exactly the plain one,
both verify to the recorded histories, and together with the ``lvq``
vectors they reach every slot of the aggregated frame's walk.
"""

import json
import pathlib

import pytest

from repro.errors import ReproError
from repro.node import messages
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import AggregatedBatchResponse, QueryResponse
from repro.node.transport import compress_frame, decompress_frame
from repro.query.aggregate import expand_aggregated_batch
from repro.query.batch import answer_batch_query, verify_batch_result
from repro.query.builder import build_system
from repro.query.config import SystemConfig, SystemKind
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    WireResolution,
)
from repro.query.prover import answer_query
from repro.query.verifier import verify_result

HERE = pathlib.Path(__file__).resolve().parent


def load(name):
    return json.loads((HERE / f"{name}.json").read_text())


VECTOR_NAMES = sorted(path.stem for path in HERE.glob("*.json"))


@pytest.fixture(scope="module")
def bmt_vector():
    return load("bmt_query_response")


@pytest.fixture(scope="module")
def batch_vector():
    return load("aggregated_batch_response")


def trusted_headers(system, vector):
    headers = system.headers()
    assert headers[-1].block_id().hex() == vector["chain"]["tip_block_id"], (
        "the lvq_system fixture no longer builds the chain the vectors "
        "were written from"
    )
    return headers


def request_range(vector):
    return vector["request"]["first_height"], vector["request"]["last_height"]


def history(verified):
    return [[height, tx.txid().hex()] for height, tx in verified.transactions]


class TestBmtQueryResponseVector:
    def test_prover_writes_the_vector(self, lvq_system, bmt_vector):
        trusted_headers(lvq_system, bmt_vector)
        address = bmt_vector["request"]["address"]
        result = answer_query(lvq_system, address, *request_range(bmt_vector))
        frame = QueryResponse(result).serialize(lvq_system.config)
        assert frame.hex() == bmt_vector["hex"]

    def test_decode_then_serialize_is_identity(self, lvq_system, bmt_vector):
        config = lvq_system.config
        frame = bytes.fromhex(bmt_vector["hex"])
        assert QueryResponse.deserialize(frame, config).serialize(config) == frame

    def test_verifies_to_the_recorded_history(self, lvq_system, bmt_vector):
        config = lvq_system.config
        headers = trusted_headers(lvq_system, bmt_vector)
        result = QueryResponse.deserialize(
            bytes.fromhex(bmt_vector["hex"]), config
        ).result
        verified = verify_result(
            result,
            headers,
            config,
            bmt_vector["request"]["address"],
            request_range(bmt_vector),
        )
        assert history(verified) == bmt_vector["verified"]

    def test_holds_every_node_tag_and_both_resolution_kinds(
        self, lvq_system, bmt_vector
    ):
        result = QueryResponse.deserialize(
            bytes.fromhex(bmt_vector["hex"]), lvq_system.config
        ).result
        tags = {
            tag
            for segment in result.segments
            for tag, _hashes, _bf in segment.multiproof.nodes()
        }
        kinds = {
            type(resolution)
            for segment in result.segments
            for resolution in segment.resolutions.values()
        }
        assert tags == set(range(6))
        assert kinds == {ExistenceResolution, FpmResolution}


class TestAggregatedBatchResponseVector:
    def test_prover_writes_the_vector(self, lvq_system, batch_vector):
        trusted_headers(lvq_system, batch_vector)
        batch = answer_batch_query(
            lvq_system,
            batch_vector["request"]["addresses"],
            *request_range(batch_vector),
        )
        frame = AggregatedBatchResponse(batch).serialize(lvq_system.config)
        assert frame.hex() == batch_vector["hex"]

    def test_decode_then_serialize_is_identity(self, lvq_system, batch_vector):
        config = lvq_system.config
        frame = bytes.fromhex(batch_vector["hex"])
        decoded = AggregatedBatchResponse.deserialize(frame, config)
        assert decoded.serialize(config) == frame

    def test_verifies_to_the_recorded_histories(self, lvq_system, batch_vector):
        config = lvq_system.config
        headers = trusted_headers(lvq_system, batch_vector)
        batch = AggregatedBatchResponse.deserialize(
            bytes.fromhex(batch_vector["hex"]), config
        ).batch
        addresses = batch_vector["request"]["addresses"]
        histories = verify_batch_result(
            batch, headers, config, addresses, request_range(batch_vector)
        )
        assert {
            address: history(histories[address]) for address in addresses
        } == batch_vector["verified"]


def flip_sites(frame, result):
    """``(offset, bit, what)``: every bit of every node tag, and one bit
    in the middle of every child hash, stub hash and filter, of every
    multiproof in ``frame``."""
    for segment in result.segments:
        raw = segment.multiproof.serialize()
        offset = frame.index(raw)
        for tag, hashes, bf in segment.multiproof.nodes():
            for bit in range(8):
                yield offset, bit, f"tag {tag}"
            offset += 1
            for node_hash in hashes:
                yield offset + len(node_hash) // 2, 3, f"hash of tag {tag}"
                offset += len(node_hash)
            if bf is not None:
                yield offset + len(bf) // 2, 5, f"filter of tag {tag}"
                offset += len(bf)


def test_every_single_bit_flip_in_the_bmt_vector_is_rejected(
    lvq_system, bmt_vector
):
    config = lvq_system.config
    headers = trusted_headers(lvq_system, bmt_vector)
    frame = bytes.fromhex(bmt_vector["hex"])
    honest = QueryResponse.deserialize(frame, config).result
    accepted = []
    sites = list(flip_sites(frame, honest))
    for offset, bit, what in sites:
        mutated = bytearray(frame)
        mutated[offset] ^= 1 << bit
        try:
            result = QueryResponse.deserialize(bytes(mutated), config).result
            verified = verify_result(
                result,
                headers,
                config,
                bmt_vector["request"]["address"],
                request_range(bmt_vector),
            )
        except ReproError:
            continue
        accepted.append((offset, bit, what, history(verified)))
    assert len(sites) > 100
    assert accepted == []


def outcome(verify):
    """The recorded history ``verify()`` accepts, or its exception."""
    try:
        return history(verify())
    except ReproError as error:
        return type(error), str(error)


def test_warm_memo_rejects_every_bit_flip_exactly_as_cold(
    lvq_system, bmt_vector
):
    """A light node whose replay memo already holds every node of the
    honest vector — and then every node of each flipped frame before it
    — rejects each flip with the same exception and message as a
    verifier with no memo."""
    config = lvq_system.config
    headers = trusted_headers(lvq_system, bmt_vector)
    address = bmt_vector["request"]["address"]
    span = request_range(bmt_vector)
    frame = bytes.fromhex(bmt_vector["hex"])
    light = LightNode(headers, config)

    def verified(raw, memo):
        result = QueryResponse.deserialize(raw, config, memo=memo).result
        return verify_result(result, headers, config, address, span, memo=memo)

    assert outcome(lambda: verified(frame, light.memo)) == bmt_vector[
        "verified"
    ]
    sites = list(flip_sites(frame, QueryResponse.deserialize(frame, config).result))
    for offset, bit, what in sites:
        mutated = bytearray(frame)
        mutated[offset] ^= 1 << bit
        cold = outcome(lambda: verified(bytes(mutated), None))
        warm = outcome(lambda: verified(bytes(mutated), light.memo))
        assert isinstance(cold, tuple), (offset, bit, what)
        assert warm == cold, (offset, bit, what)
    assert len(sites) == 178
    assert outcome(lambda: verified(frame, light.memo)) == bmt_vector[
        "verified"
    ]


def test_every_message_class_has_a_vector():
    classes = {
        name
        for name, value in vars(messages).items()
        if isinstance(value, type)
        and isinstance(getattr(value, "type_tag", None), int)
    }
    assert len(classes) == 20
    assert classes <= {load(name)["message"] for name in VECTOR_NAMES}


#: Messages whose codec takes the chain's config (proof-carrying bodies).
PROOF_MESSAGES = ("QueryResponse", "BatchQueryResponse", "AggregatedBatchResponse")


def vector_config(vector, system):
    """The config a vector was written under: its recorded one, else the
    ``lvq_system`` fixture's."""
    fields = vector.get("chain", {}).get("config")
    if fields is None:
        return system.config
    return SystemConfig(
        SystemKind(fields["kind"]),
        fields["bf_bytes"],
        fields["num_hashes"],
        fields["segment_len"],
    )


def decode(vector, system):
    """The vector's frame decoded by its class, with the context the
    fixture's light node would pass."""
    config = vector_config(vector, system)
    message_cls = getattr(messages, vector["message"])
    frame = bytes.fromhex(vector["hex"])
    if vector["message"] in PROOF_MESSAGES:
        return message_cls.deserialize(frame, config)
    if vector["message"] in ("HeadersResponse", "DeltaHeadersResponse"):
        return message_cls.deserialize(
            frame, config.header_extension_kind, config.header_bloom_bytes
        )
    return message_cls.deserialize(frame)


def encode(vector, message, system):
    if vector["message"] in PROOF_MESSAGES:
        return message.serialize(vector_config(vector, system))
    return message.serialize()


@pytest.mark.parametrize("name", VECTOR_NAMES)
def test_decode_then_encode_is_identity(lvq_system, name):
    vector = load(name)
    frame = bytes.fromhex(vector["hex"])
    if vector["message"] == "zlib":
        inner = bytes.fromhex(load(vector["inner"])["hex"])
        assert decompress_frame(frame) == inner
        assert compress_frame(inner) == frame
        return
    assert encode(vector, decode(vector, lvq_system), lvq_system) == frame


@pytest.mark.parametrize(
    "name", [name for name in VECTOR_NAMES if "fields" in load(name)]
)
def test_fields_encode_to_the_vector_and_back(name):
    vector = load(name)
    message_cls = getattr(messages, vector["message"])
    frame = bytes.fromhex(vector["hex"])
    assert message_cls(**vector["fields"]).serialize() == frame
    decoded = message_cls.deserialize(frame)
    for field, value in vector["fields"].items():
        got = getattr(decoded, field)
        assert (list(got) if isinstance(got, tuple) else got) == value


def test_node_writes_the_header_and_plain_batch_vectors(lvq_system):
    node = FullNode(lvq_system)
    for name, request in (
        ("headers_response", messages.HeadersRequest),
        ("delta_headers_response", messages.DeltaHeadersRequest),
    ):
        vector = load(name)
        trusted_headers(lvq_system, vector)
        frame = node.handle_headers(
            request(vector["request"]["from_height"]).serialize()
        )
        assert frame.hex() == vector["hex"]
    vector = load("batch_query_response")
    request = messages.BatchQueryRequest(
        vector["request"]["addresses"], *request_range(vector)
    )
    assert node.handle_batch_query(request.serialize()).hex() == vector["hex"]
    batch = messages.BatchQueryResponse.deserialize(
        bytes.fromhex(vector["hex"]), lvq_system.config
    ).batch
    histories = verify_batch_result(
        batch,
        lvq_system.headers(),
        lvq_system.config,
        vector["request"]["addresses"],
        request_range(vector),
    )
    assert {
        address: history(histories[address])
        for address in vector["request"]["addresses"]
    } == vector["verified"]


def test_push_update_vector_is_the_tip_block_proven(lvq_system):
    vector = load("push_update")
    trusted_headers(lvq_system, vector)
    height = vector["request"]["height"]
    update = messages.PushUpdate(
        height,
        lvq_system.chain.header_at(height).serialize(),
        answer_batch_query(
            lvq_system, vector["request"]["addresses"], height, height
        ).serialize(lvq_system.config),
    )
    assert update.serialize().hex() == vector["hex"]


#: The kinds with batch vectors of their own (``make_vectors.BATCH_KINDS``).
BATCH_KINDS = ("strawman", "strawman_header_bf", "lvq_no_bmt", "lvq_no_smt")


@pytest.fixture(scope="module", params=BATCH_KINDS)
def kind_vectors(request, workload):
    """``(system, plain vector, aggregated vector)`` of one kind, the
    system built from the chain the vectors were written from."""
    plain = load(f"{request.param}_batch_query_response")
    aggregated = load(f"{request.param}_aggregated_batch_response")
    system = build_system(workload.bodies, vector_config(plain, None))
    trusted_headers(system, plain)
    return system, plain, aggregated


class TestKindBatchVectors:
    def test_prover_writes_both_vectors(self, kind_vectors):
        system, plain, aggregated = kind_vectors
        node = FullNode(system)
        for vector, request_cls in (
            (plain, messages.BatchQueryRequest),
            (aggregated, messages.AggregatedBatchRequest),
        ):
            request = request_cls(
                vector["request"]["addresses"], *request_range(vector)
            )
            frame = node.handle_batch_query(request.serialize())
            assert frame.hex() == vector["hex"]

    def test_aggregated_expands_to_the_plain_frame(self, kind_vectors):
        system, plain, aggregated = kind_vectors
        body = bytes.fromhex(aggregated["hex"])[1:]
        expanded = expand_aggregated_batch(body, system.config)
        assert expanded == bytes.fromhex(plain["hex"])[1:]

    def test_both_verify_to_the_recorded_histories(self, kind_vectors):
        system, plain, aggregated = kind_vectors
        addresses = plain["request"]["addresses"]
        assert aggregated["verified"] == plain["verified"]
        for vector in (plain, aggregated):
            batch = decode(vector, system).batch
            histories = verify_batch_result(
                batch,
                system.headers(),
                system.config,
                addresses,
                request_range(vector),
            )
            assert {
                address: history(histories[address]) for address in addresses
            } == vector["verified"]


def walk_features(batch):
    """Which slots of the aggregated walk a decoded batch reaches."""
    features = set()
    if batch.per_address_segments is not None:
        answers = []
        for segments in batch.per_address_segments:
            for segment in segments:
                features.update(
                    f"tag {tag}" for tag, _h, _bf in segment.multiproof.nodes()
                )
                answers.extend(segment.resolutions.values())
    else:
        if batch.shared_filters:
            features.add("shared filters")
        answers = [a for block in batch.per_address_answers for a in block]
    for answer in answers:
        resolution = answer
        if isinstance(answer, WireResolution):
            resolution = answer.decoded()
        if resolution is None:
            features.add("empty")
        elif isinstance(resolution, ExistenceResolution):
            with_smt = resolution.smt_branch is not None
            features.add("existence with SMT" if with_smt else "existence")
        elif isinstance(resolution, FpmResolution):
            features.add("fpm")
        elif isinstance(resolution, IntegralBlockResolution):
            features.add("integral")
    return features


def test_batch_vectors_reach_every_slot_of_the_walk(lvq_system):
    features = set()
    for name in VECTOR_NAMES:
        vector = load(name)
        if vector["message"] in ("BatchQueryResponse", "AggregatedBatchResponse"):
            features |= walk_features(decode(vector, lvq_system).batch)
    assert features == {
        "shared filters",
        "empty",
        "existence with SMT",
        "existence",
        "fpm",
        "integral",
    } | {f"tag {tag}" for tag in range(6)}
