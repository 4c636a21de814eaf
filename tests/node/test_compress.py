"""Per-frame compression codec and :class:`CompressedTransport`.

Covers the §8.3 negotiation rules (tag-dispatched, passthrough for
small or incompressible frames), adversarial decoding (truncated or
corrupt compressed frames raise :class:`EncodingError`, never a zlib
exception or a crash), and the codec-agnosticism of the PR 2 fault
machinery: a chaos spot-run where corrupt/truncate faults land on the
*compressed* bytes must uphold the same soundness invariant as the
plain-transport matrix.
"""

import hashlib
import random
import zlib

import pytest

from repro.crypto.encoding import ByteReader, write_varint
from repro.errors import EncodingError, ReproError
from repro.node.faults import (
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import AggregatedBatchRequest
from repro.node.session import Peer, QuerySession, RetryPolicy
from repro.node.netclient import ConnectionPool
from repro.node.transport import (
    FRAME_RESERVED,
    FRAME_ZLIB,
    MIN_COMPRESS_SIZE,
    CompressedTransport,
    InProcessTransport,
    SimulatedClock,
    compress_frame,
    decompress_frame,
)
from repro.query.adversary import ALL_ATTACKS, MaliciousFullNode
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload


# ---------------------------------------------------------------------------
# codec


def test_round_trip_compressible_frame():
    payload = b"ab" * 4096
    frame = compress_frame(payload)
    assert frame[0] == FRAME_ZLIB
    assert len(frame) < len(payload)
    assert decompress_frame(frame) == payload


def test_small_frames_pass_through():
    payload = b"x" * (MIN_COMPRESS_SIZE - 1)
    assert compress_frame(payload) == payload
    assert decompress_frame(payload) == payload


def test_incompressible_frames_pass_through():
    payload = random.Random(7).randbytes(4096)
    assert compress_frame(payload) == payload


def test_unknown_codec_is_refused():
    """zlib is the one codec: a pool asked for any other refuses at
    construction, before it dials anything."""
    for codec in ("zstd", "lz4", ""):
        with pytest.raises(ValueError, match="unknown frame codec"):
            ConnectionPool(("127.0.0.1", 1), codec=codec)


def test_reserved_tag_is_refused():
    """0x11 stays a reserved frame marker (PROTOCOL.md §8.3): whatever
    follows it, decoding fails typed instead of passing it through."""
    payload = b"ab" * 4096
    for body in (b"", write_varint(len(payload)) + zlib.compress(payload)):
        with pytest.raises(EncodingError, match="reserved"):
            decompress_frame(bytes([FRAME_RESERVED]) + body)


def test_truncated_compressed_frame_is_typed():
    frame = compress_frame(b"ab" * 4096)
    for cut in (1, 2, len(frame) // 2, len(frame) - 1):
        truncated = frame[:cut]
        try:
            decompressed = decompress_frame(truncated)
        except EncodingError:
            continue
        # A cut before the codec tag byte survives only as passthrough.
        assert decompressed == truncated


def test_corrupt_compressed_frame_is_typed():
    frame = bytearray(compress_frame(b"ab" * 4096))
    rng = random.Random(13)
    for _ in range(200):
        pos = rng.randrange(len(frame))
        old = frame[pos]
        frame[pos] = rng.randrange(256)
        try:
            decompress_frame(bytes(frame))
        except ReproError:
            pass  # typed — the invariant
        finally:
            frame[pos] = old


def test_declared_length_must_match():
    body = zlib.compress(b"ab" * 4096)
    # Lie about the raw length: both shorter and longer must be refused.
    for lie in (1, 8191, 8193, 1 << 20):
        frame = bytes([FRAME_ZLIB]) + write_varint(lie) + body
        with pytest.raises(EncodingError):
            decompress_frame(frame)


def test_trailing_garbage_is_refused():
    frame = compress_frame(b"ab" * 4096)
    with pytest.raises(EncodingError):
        decompress_frame(frame + b"\x00\x01")


#: ``compress_frame`` output of the level-6, default-strategy encoder
#: this codec shipped with, for ``_LEGACY_PAYLOAD``: its stream carries
#: LZ77 back-references, which today's encoder never emits.
_LEGACY_PAYLOAD = (
    b"".join(hashlib.sha256(bytes([i])).digest() for i in range(4)) * 2
    + bytes(96)
)
_LEGACY_FRAME = bytes.fromhex(
    "10fd6001789ccb33e19ef37f73d58c394b5d9eedaee0d2a998206bbfd9dca2ac"
    "5570319bf8fa05b2de5f85f44d5c438e5adfd3dbdd7369fbe38b095cd70c0fb7"
    "2ebd7ee6914d79abebacdb07b79c64f8ffa4373c3a76e9310b1646d56fb11bfe"
    "d9a9787a97bd9a91127eb38dc3ff2dc7ce8af5beb59259256e2bb22318e62567"
    "27ca6e4c12dc16356bed7fcda379036c3f038d0100ab5279ab"
)


def test_frames_from_the_level6_encoder_still_decode():
    assert decompress_frame(_LEGACY_FRAME) == _LEGACY_PAYLOAD


def test_frame_body_is_a_plain_rfc1950_stream():
    """The deflate strategy is the encoder's business, not the wire's:
    any zlib decoder inflates the body with no knowledge of it."""
    frame = compress_frame(_LEGACY_PAYLOAD)
    reader = ByteReader(frame)
    assert reader.bytes(1)[0] == FRAME_ZLIB
    assert reader.varint() == len(_LEGACY_PAYLOAD)
    assert zlib.decompress(reader.bytes(reader.remaining)) == _LEGACY_PAYLOAD


def test_entropy_only_frame_is_no_larger_on_an_lvq_batch():
    """At the fig12 ``lvq`` geometry (the e2e benchmark's chain, an
    eighth as long) an aggregated batch is digests and dense endpoint
    filters, and LZ77 matching buys nothing over the Huffman stage."""
    workload = generate_workload(
        WorkloadParams(num_blocks=128, txs_per_block=40, seed=42)
    )
    system = build_system(
        workload.bodies,
        SystemConfig.lvq(bf_bytes=1408, segment_len=128, num_hashes=3),
    )
    payload = FullNode(system).handle_batch_query(
        AggregatedBatchRequest(list(workload.probe_addresses.values())).serialize()
    )
    level6 = (
        bytes([FRAME_ZLIB])
        + write_varint(len(payload))
        + zlib.compress(payload, 6)
    )
    assert decompress_frame(level6) == payload
    frame = compress_frame(payload)
    assert decompress_frame(frame) == payload
    assert len(frame) <= len(level6)


# ---------------------------------------------------------------------------
# transport wrapper


def test_compressed_transport_end_to_end(lvq_nodes, probe_addresses):
    full_node, light_node = lvq_nodes
    plain = InProcessTransport()
    compressed = CompressedTransport()
    address = probe_addresses["Addr5"]
    history_plain = light_node.query_history(full_node, address, plain)
    history_compressed = light_node.query_history(
        full_node, address, compressed
    )
    assert [(h, t.txid()) for h, t in history_plain.transactions] == [
        (h, t.txid()) for h, t in history_compressed.transactions
    ]
    # The compressed link moved fewer bytes for the same verified answer.
    assert (
        compressed.stats.bytes_to_client < plain.stats.bytes_to_client
    )


def test_compressed_transport_aggregated_batch(lvq_nodes, probe_addresses):
    full_node, light_node = lvq_nodes
    addresses = [probe_addresses[name] for name in ("Addr4", "Addr5", "Addr6")]
    plain_t = InProcessTransport()
    agg_t = CompressedTransport()
    plain = light_node.query_batch(full_node, addresses, plain_t)
    aggregated = light_node.query_batch(
        full_node, addresses, agg_t, aggregated=True
    )
    for address in addresses:
        assert [(h, t.txid()) for h, t in plain[address].transactions] == [
            (h, t.txid()) for h, t in aggregated[address].transactions
        ]
    assert agg_t.stats.bytes_to_client < plain_t.stats.bytes_to_client


def test_compressed_transport_delta_sync(lvq_system):
    full_node = FullNode(lvq_system)
    genesis = lvq_system.headers()[0]
    light_node = LightNode([genesis], lvq_system.config)
    transport = CompressedTransport()
    accepted = light_node.sync_headers(full_node, transport, delta=True)
    assert accepted == lvq_system.tip_height
    assert [h.serialize() for h in light_node.headers] == [
        h.serialize() for h in lvq_system.headers()
    ]


# ---------------------------------------------------------------------------
# chaos spot-run: faults land on compressed bytes


def _mangling_schedule(seed):
    rng = random.Random(seed)
    rules = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(
            [FaultKind.CORRUPT, FaultKind.TRUNCATE, FaultKind.DROP]
        )
        rules.append(
            FaultRule(
                kind,
                direction=rng.choice(("both", "to_server", "to_client")),
                probability=rng.uniform(0.1, 0.5),
                param=rng.randrange(1, 6) if kind is FaultKind.CORRUPT else None,
            )
        )
    return FaultSchedule(rules, seed=rng.randrange(1 << 30))


@pytest.mark.parametrize("index", range(12))
def test_chaos_spot_run_over_compressed_transport(
    lvq_system, probe_addresses, index
):
    """PR 2 invariant, codec-stacked: corrupt/truncate on *compressed*
    frames still yields baseline-equal history or a typed error."""
    rng = random.Random(20200806 + index)
    clock = SimulatedClock()
    address = probe_addresses[rng.choice(("Addr2", "Addr4", "Addr5", "Addr6"))]

    baseline_history = LightNode(
        lvq_system.headers(), lvq_system.config
    ).query_history(FullNode(lvq_system), address)
    expected = [(h, t.txid()) for h, t in baseline_history.transactions]

    def chaotic_compressed():
        return CompressedTransport(
            inner=FaultyTransport(
                schedule=_mangling_schedule(rng.randrange(1 << 30)),
                clock=clock,
            )
        )

    peers = [
        Peer("flaky", FullNode(lvq_system), transport_factory=chaotic_compressed)
    ]
    if index % 2:
        liar = MaliciousFullNode(
            lvq_system, ALL_ATTACKS[rng.choice(sorted(ALL_ATTACKS))]
        )
        peers.append(Peer("liar", liar, transport_factory=chaotic_compressed))
    # A clean compressed peer keeps half the scenarios satisfiable.
    peers.append(
        Peer(
            "honest",
            FullNode(lvq_system),
            transport_factory=CompressedTransport,
        )
    )
    rng.shuffle(peers)

    session = QuerySession(
        LightNode(lvq_system.headers(), lvq_system.config),
        peers,
        clock=clock,
        request_timeout=5.0,
        retry=RetryPolicy(max_rounds=4, base_delay=0.05, max_delay=0.5),
        quarantine_base=0.05,
        seed=rng.randrange(1 << 30),
    )
    try:
        history = session.query(address)
    except ReproError:
        pass  # typed denial — allowed under mangling faults
    else:
        assert [(h, t.txid()) for h, t in history.transactions] == expected


# ---------------------------------------------------------------------------
# frame-size limits (symmetric) and dropped-deadline accounting


def test_frame_limit_enforced_on_send():
    payload = b"z" * 200
    with pytest.raises(EncodingError, match="exceeds"):
        compress_frame(payload, max_frame_bytes=100)


def test_frame_limit_enforced_on_receive_plain():
    payload = b"z" * 200
    with pytest.raises(EncodingError, match="exceeds"):
        decompress_frame(payload, 100)


def test_frame_limit_enforced_on_claimed_length():
    """A zip bomb: tiny compressed frame *claiming* a huge raw size must
    be rejected before any decompression buffer is allocated."""
    import zlib

    from repro.crypto.encoding import write_varint

    bomb = bytes([FRAME_ZLIB]) + write_varint(1 << 40) + zlib.compress(b"x")
    with pytest.raises(EncodingError, match="over"):
        decompress_frame(bomb)


def test_frame_limit_is_configurable_per_transport(lvq_nodes, probe_addresses):
    from repro.node.messages import QueryRequest

    full_node, _light = lvq_nodes
    tight = CompressedTransport(max_frame_bytes=64)
    request = QueryRequest(probe_addresses["Addr5"]).serialize()
    # The request fits; the (much larger) response must be refused by
    # the same limit on the other direction — symmetric enforcement.
    framed = tight.send_to_server(request)
    response = full_node.handle_query(decompress_frame(framed))
    with pytest.raises(EncodingError, match="exceeds"):
        tight.send_to_client(response)
    with pytest.raises(EncodingError):
        CompressedTransport(max_frame_bytes=0)


def test_default_frame_limit_is_32mib():
    from repro.node.transport import DEFAULT_MAX_FRAME_BYTES

    assert DEFAULT_MAX_FRAME_BYTES == 32 << 20


def test_dropped_deadline_is_recorded_not_silent():
    """arm_timeout over an inner transport with no deadline support used
    to be a silent no-op; it must now count in TransportStats."""

    class _BareTransport:
        def __init__(self):
            from repro.node.transport import TransportStats

            self.stats = TransportStats()
            self.is_closed = False

        def send_to_server(self, payload):
            return payload

        def send_to_client(self, payload):
            return payload

        def close(self):
            self.is_closed = True

    wrapped = CompressedTransport(inner=_BareTransport())
    wrapped.arm_timeout(5.0)
    wrapped.arm_timeout(1.0)
    wrapped.arm_timeout(None)  # clearing a deadline is not a drop
    assert wrapped.stats.dropped_deadlines == 2
    assert wrapped.stats.as_dict()["dropped_deadlines"] == 2


def test_armed_deadline_forwards_when_inner_supports_it():
    inner = FaultyTransport(clock=SimulatedClock())  # has arm_timeout
    wrapped = CompressedTransport(inner=inner)
    wrapped.arm_timeout(3.0)
    assert wrapped.stats.dropped_deadlines == 0


def test_dropped_deadlines_merge_across_stats():
    from repro.node.transport import TransportStats

    first, second = TransportStats(), TransportStats()
    first.dropped_deadlines = 2
    second.dropped_deadlines = 3
    first.merge(second)
    assert first.dropped_deadlines == 5
