"""The §8.1 aggregated batch encoding: round-trip oracle + adversaries.

The invariant: for every system kind the aggregated bytes decode to a
batch whose plain serialization is byte-identical to the original (the
PR 5 encoding is the oracle), and *any* mangling of the aggregated
frame — a tampered blob table, a dangling back-reference, truncation,
trailing garbage, arbitrary bit flips — surfaces as a typed
:class:`ReproError`, never a crash and never a silently different batch.
"""

import pytest

from repro.errors import EncodingError, ProofError, ReproError
from repro.node.transport import compress_frame
from repro.query.aggregate import (
    batch_of_result,
    decode_aggregated_batch,
    encode_aggregated_batch,
)
from repro.query.batch import answer_batch_query, verify_batch_result
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.workload.generator import WorkloadParams, generate_workload


def _probe_batch(system, probe_addresses):
    addresses = list(probe_addresses.values())
    return addresses, answer_batch_query(system, addresses)


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

    The frame opens with the table length; forcing it to zero turns
    every back-reference in the body into a dangling one.
    """
    from repro.crypto.encoding import ByteReader, write_varint

    config = lvq_system.config
    _, batch = _probe_batch(lvq_system, probe_addresses)
    aggregated = encode_aggregated_batch(batch, config)
    reader = ByteReader(aggregated)
    table_len = reader.varint()
    assert table_len > 0, "probe batch should populate the blob table"
    for _ in range(table_len):
        reader.var_bytes()
    body = aggregated[len(aggregated) - reader.remaining:]
    mangled = write_varint(0) + body
    with pytest.raises(EncodingError):
        decode_aggregated_batch(mangled, config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bitflip_sweep_never_crashes(any_system, probe_addresses, seed):
    """Arbitrary single-byte mutations: typed error or oracle-equal bytes.

    A flip inside a blob's *contents* can decode fine (the table stores
    opaque bytes) — but then the reserialized batch must differ from the
    original plain bytes only in the corresponding position, i.e. decode
    is still a function of the bytes; it must never raise anything
    outside ReproError.
    """
    import random

    config = any_system.config
    _, batch = _probe_batch(any_system, probe_addresses)
    aggregated = bytearray(encode_aggregated_batch(batch, config))
    rng = random.Random(seed * 7919)
    for _ in range(80):
        pos = rng.randrange(len(aggregated))
        old = aggregated[pos]
        aggregated[pos] = rng.randrange(256)
        try:
            decoded = decode_aggregated_batch(bytes(aggregated), config)
        except ReproError:
            pass  # typed rejection — fine
        else:
            # Accepted: reserialization must still be well-defined.
            decoded.serialize(config)
        finally:
            aggregated[pos] = old


def test_tampered_blob_table_fails_verification(lvq_system, probe_addresses):
    """Flipping a byte inside a table blob (a hash, a tx, a filter) must
    be caught by the verifier even when decoding succeeds."""
    from repro.crypto.encoding import ByteReader
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
