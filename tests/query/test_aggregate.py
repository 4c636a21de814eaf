"""The §8.1 aggregated batch encoding: round-trip oracle + adversaries.

The invariant: for every system kind the aggregated bytes decode to a
batch whose plain serialization is byte-identical to the original (the
PR 5 encoding is the oracle), and *any* mangling of the aggregated
frame — a tampered blob table, a dangling back-reference, truncation,
trailing garbage, arbitrary bit flips — surfaces as a typed
:class:`ReproError`, never a crash and never a silently different batch.
Decoded and verified through a light node's warm memo, every frame ends
exactly as it does on the cold path (``memo=None``): the same histories,
or the same exception type and text.
"""

import copy

import pytest

from repro.crypto.encoding import ByteReader, write_var_bytes, write_varint
from repro.errors import EncodingError, ProofError, ReproError
from repro.node.light_node import LightNode
from repro.node.transport import compress_frame
from repro.query.adversary import materialize
from repro.query.aggregate import (
    batch_of_result,
    decode_aggregated_batch,
    encode_aggregated_batch,
)
from repro.query.batch import answer_batch_query, verify_batch_result
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.fragments import ExistenceResolution
from repro.query.prover import answer_query
from repro.workload.generator import WorkloadParams, generate_workload


def _probe_batch(system, probe_addresses):
    addresses = list(probe_addresses.values())
    return addresses, answer_batch_query(system, addresses)


def outcome(system, payload, addresses, memo=None):
    """Decode and verify an aggregated whole-chain batch with ``memo``
    (``None``: the cold path); the histories, or the exception."""
    config = system.config
    try:
        batch = decode_aggregated_batch(payload, config, memo=memo)
        verified = verify_batch_result(
            batch,
            system.headers(),
            config,
            addresses,
            (1, system.tip_height),
            memo=memo,
        )
    except ReproError as error:
        return type(error), str(error)
    return {
        address: [(height, tx.txid()) for height, tx in history.transactions]
        for address, history in verified.items()
    }


def warm_memo(system, addresses, payload):
    """A light node's memo after it accepted ``payload``."""
    light = LightNode(system.headers(), system.config)
    assert isinstance(outcome(system, payload, addresses, light.memo), dict)
    return light.memo


def split_table(aggregated):
    """``(table entries, body)`` of an aggregated payload."""
    reader = ByteReader(aggregated)
    entries = [reader.var_bytes() for _ in range(reader.varint())]
    return entries, aggregated[reader.offset :]


def join_table(entries, body):
    return write_varint(len(entries)) + b"".join(
        write_var_bytes(entry) for entry in entries
    ) + body


def test_round_trip_is_byte_identical(any_system, probe_addresses):
    """decode(encode(batch)) reserializes to the oracle bytes exactly."""
    config = any_system.config
    _, batch = _probe_batch(any_system, probe_addresses)
    plain = batch.serialize(config)
    aggregated = encode_aggregated_batch(batch, config)
    decoded = decode_aggregated_batch(aggregated, config)
    assert decoded.serialize(config) == plain


def test_decoded_batch_verifies_like_the_oracle(any_system, probe_addresses):
    """Verification accepts the decoded batch with identical histories."""
    config = any_system.config
    addresses, batch = _probe_batch(any_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    decoded = decode_aggregated_batch(aggregated, config)
    expected_range = (1, any_system.tip_height)
    headers = any_system.headers()
    plain_histories = verify_batch_result(
        batch, headers, config, addresses, expected_range
    )
    agg_histories = verify_batch_result(
        decoded, headers, config, addresses, expected_range
    )
    assert set(plain_histories) == set(agg_histories)
    for address in addresses:
        assert [
            (h, t.txid()) for h, t in plain_histories[address].transactions
        ] == [(h, t.txid()) for h, t in agg_histories[address].transactions]


def test_single_result_view_round_trips(any_system, probe_addresses):
    """batch_of_result wraps one QueryResult into an encodable batch."""
    config = any_system.config
    for address in probe_addresses.values():
        result = answer_query(any_system, address)
        batch = batch_of_result(result)
        aggregated = encode_aggregated_batch(batch, config)
        decoded = decode_aggregated_batch(aggregated, config)
        assert decoded.serialize(config) == batch.serialize(config)


def test_aggregation_shrinks_bmt_batches(lvq_system, probe_addresses):
    """On the BMT system shared-node dedup wins before any compression."""
    config = lvq_system.config
    _, batch = _probe_batch(lvq_system, probe_addresses)
    plain = batch.serialize(config)
    aggregated = encode_aggregated_batch(batch, config)
    assert len(aggregated) < len(plain)


def test_wrong_config_kind_is_refused(lvq_system, strawman_system,
                                      probe_addresses):
    _, batch = _probe_batch(lvq_system, probe_addresses)
    with pytest.raises(ProofError):
        encode_aggregated_batch(batch, strawman_system.config)


def test_truncated_frames_raise_typed_errors(lvq_system, probe_addresses):
    """Every prefix of the frame fails decoding with EncodingError."""
    config = lvq_system.config
    _, batch = _probe_batch(lvq_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    for cut in (0, 1, 2, len(aggregated) // 2, len(aggregated) - 1):
        with pytest.raises(EncodingError):
            decode_aggregated_batch(aggregated[:cut], config)
    with pytest.raises(EncodingError):
        decode_aggregated_batch(aggregated + b"\x00", config)


def test_dangling_blob_reference_is_typed(lvq_system, probe_addresses):
    """A slot pointing past the blob table must raise, not index-crash.

    Emptying the table turns every back-reference in the body into a
    dangling one.
    """
    config = lvq_system.config
    addresses, batch = _probe_batch(lvq_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    entries, body = split_table(aggregated)
    assert entries, "probe batch should populate the blob table"
    mangled = join_table([], body)
    memo = warm_memo(lvq_system, addresses, aggregated)
    for used in (None, memo):
        with pytest.raises(
            EncodingError,
            match=r"^dangling blob reference 1 \(table has 0 entries\)$",
        ):
            decode_aggregated_batch(mangled, config, memo=used)


def test_wrong_length_table_blob_is_typed(lvq_system, probe_addresses):
    """A table entry one byte short of the hash a slot needs."""
    config = lvq_system.config
    addresses, batch = _probe_batch(lvq_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    entries, body = split_table(aggregated)
    index = next(i for i, entry in enumerate(entries) if len(entry) == 32)
    entries[index] = entries[index][:-1]
    mangled = join_table(entries, body)
    memo = warm_memo(lvq_system, addresses, aggregated)
    for used in (None, memo):
        with pytest.raises(
            EncodingError,
            match=rf"^blob reference {index + 1} carries 31 bytes where 32 "
            "are required$",
        ):
            decode_aggregated_batch(mangled, config, memo=used)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bitflip_sweep_never_crashes(any_system, probe_addresses, seed):
    """Arbitrary single-byte mutations: a typed error, or the honest
    histories — identically on the cold path and through a warm memo.

    A flip inside a blob's *contents* can decode fine (the table stores
    opaque bytes); the verifier must then reject it or find it changes
    nothing that matters.  Nothing may raise outside ReproError.
    """
    import random

    addresses, batch = _probe_batch(any_system, probe_addresses)
    honest = encode_aggregated_batch(batch, any_system.config)
    expected = outcome(any_system, honest, addresses)
    memo = warm_memo(any_system, addresses, honest)
    aggregated = bytearray(honest)
    rng = random.Random(seed * 7919)
    for _ in range(80):
        pos = rng.randrange(len(aggregated))
        old = aggregated[pos]
        aggregated[pos] = rng.randrange(256)
        mutated = bytes(aggregated)
        aggregated[pos] = old
        cold = outcome(any_system, mutated, addresses)
        assert cold == expected or isinstance(cold, tuple)
        assert outcome(any_system, mutated, addresses, memo) == cold


def test_evidence_for_another_address_in_one_batch_misses_the_memo(
    lvq_system, probe_addresses
):
    """Address X's valid existence evidence, served in the same batch
    for Y at a height where Y's filter check fails too: the memo holds
    both honest entries, hits neither, and the batch is rejected as on
    the cold path."""
    config = lvq_system.config
    addresses, batch = _probe_batch(lvq_system, probe_addresses)
    memo = warm_memo(
        lvq_system, addresses, encode_aggregated_batch(batch, config)
    )
    segments = materialize(batch).per_address_segments
    cases = 0
    for x, x_segments in enumerate(segments):
        for y, y_segments in enumerate(segments):
            if x == y:
                continue
            for index, (x_seg, y_seg) in enumerate(zip(x_segments, y_segments)):
                for height, evidence in x_seg.resolutions.items():
                    if not isinstance(evidence, ExistenceResolution):
                        continue
                    if height not in y_seg.resolutions:
                        continue
                    forged = copy.deepcopy(batch)
                    forged.per_address_segments[y][index].resolutions[
                        height
                    ] = evidence
                    payload = encode_aggregated_batch(forged, config)
                    decoded = decode_aggregated_batch(payload, config, memo=memo)
                    served = decoded.per_address_segments[y][index]
                    assert served.resolutions[height]._decoded is not None
                    want = outcome(lvq_system, payload, addresses)
                    assert isinstance(want, tuple)
                    assert outcome(lvq_system, payload, addresses, memo) == want
                    cases += 1
    assert cases >= 3


def test_tampered_blob_table_fails_verification(lvq_system, probe_addresses):
    """Flipping a byte inside a table blob (a hash, a tx, a filter) must
    be caught by the verifier even when decoding succeeds."""
    from repro.errors import VerificationError

    config = lvq_system.config
    addresses, batch = _probe_batch(lvq_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    reader = ByteReader(aggregated)
    table_len = reader.varint()
    assert table_len > 0
    # Locate the first table blob's first content byte and flip it.
    head = len(aggregated) - reader.remaining
    first_blob = reader.var_bytes()
    offset = (len(aggregated) - reader.remaining) - len(first_blob)
    mangled = bytearray(aggregated)
    mangled[offset] ^= 0x01
    expected_range = (1, lvq_system.tip_height)
    try:
        decoded = decode_aggregated_batch(bytes(mangled), config)
    except EncodingError:
        return  # refused at decode time — equally sound
    with pytest.raises(VerificationError):
        verify_batch_result(
            decoded,
            lvq_system.headers(),
            config,
            addresses,
            expected_range,
        )


_FIG12_BLOCKS = 64


@pytest.fixture(scope="module")
def fig12_workload():
    return generate_workload(
        WorkloadParams(num_blocks=_FIG12_BLOCKS, txs_per_block=40, seed=2020)
    )


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig.strawman(bf_bytes=512, num_hashes=3),
        SystemConfig.lvq_no_bmt(bf_bytes=512, num_hashes=3),
        SystemConfig.lvq_no_smt(
            bf_bytes=1408, segment_len=_FIG12_BLOCKS, num_hashes=3
        ),
        SystemConfig.lvq(
            bf_bytes=1408, segment_len=_FIG12_BLOCKS, num_hashes=3
        ),
    ],
    ids=lambda config: config.kind.value,
)
def test_wire_pays_a_quarter_less_than_plain(fig12_workload, config):
    """The PR 6 wire gate: at the fig12 geometry (10 and 30 paper-KB
    filters, one segment spanning the chain) the all-probes batch,
    aggregated then framed, is at least 25 % under its plain encoding
    on every evaluated system."""
    system = build_system(fig12_workload.bodies, config)
    _, batch = _probe_batch(system, fig12_workload.probe_addresses)
    wire = compress_frame(encode_aggregated_batch(batch, config))
    assert len(wire) <= 0.75 * len(batch.serialize(config))
