"""Unit tests for fragment/resolution wire formats."""

import pytest

from repro.crypto.encoding import ByteReader
from repro.errors import EncodingError, ProofError
from repro.merkle.bmt import BmtMultiProof
from repro.query.adversary import materialize
from repro.query.config import SystemConfig
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    PerBlockAnswer,
    SegmentProof,
    TxWithBranch,
)
from repro.query.prover import answer_query


def _first_of(result, cls):
    result = materialize(result)
    if result.segments is not None:
        pools = (seg.resolutions.values() for seg in result.segments)
    else:
        pools = ([a.resolution] for a in result.blocks if a.resolution)
    for pool in pools:
        for resolution in pool:
            if isinstance(resolution, cls):
                return resolution
    return None


class TestResolutionRoundtrips:
    def test_existence(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        resolution = _first_of(result, ExistenceResolution)
        assert resolution is not None
        reader = ByteReader(resolution.serialize())
        restored = ExistenceResolution.deserialize(reader)
        reader.finish()
        assert restored.serialize() == resolution.serialize()
        assert restored.smt_branch == resolution.smt_branch

    def test_integral_block(self, lvq_no_smt_system, probe_addresses):
        result = answer_query(lvq_no_smt_system, probe_addresses["Addr6"])
        resolution = _first_of(result, IntegralBlockResolution)
        assert resolution is not None
        reader = ByteReader(resolution.serialize())
        restored = IntegralBlockResolution.deserialize(reader)
        reader.finish()
        assert restored.body == resolution.body
        assert restored.transactions() == resolution.transactions()

    def test_fpm(self, lvq_system):
        """Build an FPM resolution directly from a block's SMT."""
        smt = lvq_system.smts[1]
        proof = smt.prove_inexistence("1zzzzzNotPresent")
        resolution = FpmResolution(proof)
        reader = ByteReader(resolution.serialize())
        restored = FpmResolution.deserialize(reader)
        reader.finish()
        assert restored.serialize() == resolution.serialize()

    def test_existence_needs_entries(self):
        with pytest.raises(ProofError):
            ExistenceResolution(None, [])

    def test_integral_block_needs_body(self):
        with pytest.raises(ProofError):
            IntegralBlockResolution(b"")


class TestTxWithBranch:
    def test_roundtrip(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        resolution = _first_of(result, ExistenceResolution)
        entry = resolution.entries[0]
        reader = ByteReader(entry.serialize())
        restored = TxWithBranch.deserialize(reader)
        reader.finish()
        assert restored.transaction == entry.transaction
        assert restored.branch == entry.branch

    def test_component_sizes(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        entry = _first_of(result, ExistenceResolution).entries[0]
        assert entry.tx_bytes() + entry.branch_bytes() == len(entry.serialize())


class TestSegmentProof:
    def test_anchor_must_be_end(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr1"])
        segment = result.segments[0]
        with pytest.raises(ProofError):
            SegmentProof(
                segment.anchor - 1,
                segment.start,
                segment.end,
                segment.multiproof,
                {},
            )

    def test_resolution_out_of_range_rejected(
        self, lvq_system, probe_addresses
    ):
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        segment = next(s for s in result.segments if s.resolutions)
        height, resolution = next(iter(segment.resolutions.items()))
        with pytest.raises(ProofError):
            SegmentProof(
                segment.anchor,
                segment.start,
                segment.end,
                segment.multiproof,
                {segment.end + 1: resolution},
            )

    def test_roundtrip(self, lvq_system, probe_addresses):
        config = lvq_system.config
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        for segment in result.segments:
            reader = ByteReader(segment.serialize())
            restored = SegmentProof.deserialize(reader, config)
            reader.finish()
            assert restored.serialize() == segment.serialize()
            assert (restored.anchor, restored.start, restored.end) == (
                segment.anchor,
                segment.start,
                segment.end,
            )

    def test_duplicate_resolution_heights_rejected(
        self, lvq_system, probe_addresses
    ):
        config = lvq_system.config
        result = answer_query(lvq_system, probe_addresses["Addr5"])
        segment = next(s for s in result.segments if s.resolutions)
        payload = segment.serialize()
        # Craft a payload with the resolution list repeated: simplest is to
        # bump the count and duplicate the tail entry bytes.
        from repro.crypto.encoding import write_varint

        height = sorted(segment.resolutions)[0]
        entry = write_varint(height) + b"\x00"  # wrong but parse-level check
        # Instead, exercise the documented behaviour via deserialize of a
        # hand-built duplicate map: SegmentProof.deserialize must reject
        # duplicate heights.  Build bytes: original minus count, plus 2x.
        single = segment.multiproof  # reuse proof
        resolution = segment.resolutions[height]
        from repro.query.fragments import _serialize_resolution

        body = (
            write_varint(segment.anchor)
            + write_varint(segment.start)
            + write_varint(segment.end)
            + single.serialize()
            + write_varint(2)
            + write_varint(height)
            + _serialize_resolution(resolution)
            + write_varint(height)
            + _serialize_resolution(resolution)
        )
        with pytest.raises(EncodingError):
            SegmentProof.deserialize(ByteReader(body), config)


class TestPerBlockAnswer:
    def test_filter_discipline(self, strawman_system):
        config = strawman_system.config
        bf = strawman_system.filters[1]
        # Missing filter on a shipping system.
        with pytest.raises(ProofError):
            PerBlockAnswer(None, None).serialize(config)
        # Spurious filter on a header-BF system.
        header_config = SystemConfig.strawman_header_bf(bf_bytes=96)
        with pytest.raises(ProofError):
            PerBlockAnswer(bf, None).serialize(header_config)

    def test_roundtrip(self, strawman_system, probe_addresses):
        config = strawman_system.config
        result = answer_query(strawman_system, probe_addresses["Addr6"])
        for answer in result.blocks[:10]:
            reader = ByteReader(answer.serialize(config))
            restored = PerBlockAnswer.deserialize(reader, config)
            reader.finish()
            assert restored.serialize(config) == answer.serialize(config)

    def test_bad_resolution_type_rejected(self):
        with pytest.raises(ProofError):
            PerBlockAnswer(None, object())
