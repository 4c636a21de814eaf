"""Unit tests for honest proof generation."""

import pytest

from repro.chain.segments import covering_spans
from repro.errors import QueryError
from repro.query.adversary import materialize
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
)
from repro.query.prover import answer_query
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile


class TestSegmentAnswers:
    def test_segments_match_covering_spans(self, lvq_system, probe_addresses):
        result = materialize(answer_query(lvq_system, probe_addresses["Addr4"]))
        expected = covering_spans(
            lvq_system.tip_height, lvq_system.config.segment_len
        )
        assert [(s.anchor, s.start, s.end) for s in result.segments] == expected

    def test_empty_address_has_no_resolutions_without_fpm(
        self, lvq_system, probe_addresses
    ):
        result = materialize(answer_query(lvq_system, probe_addresses["Addr1"]))
        # Addr1 never appears; resolutions only exist for (rare) FPMs,
        # and each must be an SMT inexistence pair, never an existence.
        for segment in result.segments:
            for resolution in segment.resolutions.values():
                assert isinstance(resolution, FpmResolution)

    def test_active_address_resolutions_cover_every_block(
        self, workload, lvq_system, probe_addresses
    ):
        address = probe_addresses["Addr5"]
        truth_heights = {h for h, _ in workload.history_of(address)}
        result = materialize(answer_query(lvq_system, address))
        resolved = set()
        for segment in result.segments:
            for height, resolution in segment.resolutions.items():
                if isinstance(resolution, ExistenceResolution):
                    resolved.add(height)
        assert resolved == truth_heights

    def test_existence_entries_match_truth(
        self, workload, lvq_system, probe_addresses
    ):
        address = probe_addresses["Addr3"]
        truth = workload.history_of(address)
        result = materialize(answer_query(lvq_system, address))
        shipped = []
        for segment in result.segments:
            for height, resolution in sorted(segment.resolutions.items()):
                if isinstance(resolution, ExistenceResolution):
                    assert resolution.smt_branch is not None
                    assert resolution.smt_branch.leaf.count == len(
                        resolution.entries
                    )
                    shipped.extend(
                        (height, e.transaction.txid())
                        for e in resolution.entries
                    )
        assert sorted(shipped) == sorted(
            (h, tx.txid()) for h, tx in truth
        )

    def test_no_smt_system_ships_integral_blocks(
        self, lvq_no_smt_system, probe_addresses
    ):
        result = materialize(answer_query(lvq_no_smt_system, probe_addresses["Addr6"]))
        kinds = {
            type(resolution)
            for segment in result.segments
            for resolution in segment.resolutions.values()
        }
        assert kinds == {IntegralBlockResolution}


class TestPerBlockAnswers:
    def test_one_answer_per_block(self, strawman_system, probe_addresses):
        result = materialize(answer_query(strawman_system, probe_addresses["Addr2"]))
        assert len(result.blocks) == strawman_system.tip_height

    def test_strawman_ships_filters(self, strawman_system, probe_addresses):
        result = materialize(answer_query(strawman_system, probe_addresses["Addr1"]))
        assert all(answer.bf is not None for answer in result.blocks)

    def test_header_bf_variant_ships_no_filters(self, workload, probe_addresses):
        system = build_system(
            workload.bodies, SystemConfig.strawman_header_bf(bf_bytes=96)
        )
        result = materialize(answer_query(system, probe_addresses["Addr1"]))
        assert all(answer.bf is None for answer in result.blocks)

    def test_strawman_existence_has_no_smt_branch(
        self, strawman_system, probe_addresses
    ):
        result = materialize(answer_query(strawman_system, probe_addresses["Addr6"]))
        existences = [
            a.resolution
            for a in result.blocks
            if isinstance(a.resolution, ExistenceResolution)
        ]
        assert existences
        assert all(r.smt_branch is None for r in existences)

    def test_lvq_no_bmt_existence_has_smt_branch(
        self, lvq_no_bmt_system, probe_addresses
    ):
        result = materialize(answer_query(lvq_no_bmt_system, probe_addresses["Addr6"]))
        existences = [
            a.resolution
            for a in result.blocks
            if isinstance(a.resolution, ExistenceResolution)
        ]
        assert existences
        assert all(r.smt_branch is not None for r in existences)

    def test_inactive_blocks_answered_empty(
        self, workload, strawman_system, probe_addresses
    ):
        address = probe_addresses["Addr2"]
        truth_heights = {h for h, _ in workload.history_of(address)}
        result = materialize(answer_query(strawman_system, address))
        for offset, answer in enumerate(result.blocks):
            height = offset + 1
            if height in truth_heights:
                assert answer.resolution is not None


class TestForcedFpm:
    def test_tiny_filter_forces_smt_inexistence(self):
        """A deliberately saturated BF makes the FPM path fire."""
        workload = generate_workload(
            WorkloadParams(
                num_blocks=8,
                txs_per_block=12,
                seed=1,  # seed chosen so the probe's positions collide
                probes=[ProbeProfile("Ghost", 0, 0)],
            )
        )
        system = build_system(
            workload.bodies,
            SystemConfig.lvq(bf_bytes=8, segment_len=8, num_hashes=2),
        )
        result = materialize(answer_query(system, workload.probe_addresses["Ghost"]))
        resolutions = [
            resolution
            for segment in result.segments
            for resolution in segment.resolutions.values()
        ]
        assert resolutions, "8-byte filters over 12-tx blocks must saturate"
        assert all(isinstance(r, FpmResolution) for r in resolutions)


class TestValidation:
    def test_genesis_only_chain_rejected(self, workload):
        system = build_system(
            workload.bodies[:1], SystemConfig.strawman(bf_bytes=96)
        )
        with pytest.raises(QueryError):
            answer_query(system, "1Whatever")
