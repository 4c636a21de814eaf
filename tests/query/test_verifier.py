"""Unit tests for light-node verification: honest answers accepted,
hand-crafted deviations rejected with the right error class."""

import pytest

from repro.errors import (
    CompletenessError,
    CorrectnessError,
    VerificationError,
)
from repro.query.adversary import materialize
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.fragments import (
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
)
from repro.query.prover import answer_query
from repro.query.verifier import verify_result


class TestHonestAnswersAccepted:
    def test_every_system_every_probe(self, workload, any_system, probe_addresses):
        headers = any_system.headers()
        for name, address in probe_addresses.items():
            result = answer_query(any_system, address)
            history = verify_result(result, headers, any_system.config, address)
            truth = workload.history_of(address)
            assert [(h, t.txid()) for h, t in history.transactions] == [
                (h, t.txid()) for h, t in truth
            ], f"{any_system.config.kind.value}/{name}"

    def test_balances_match_equation1(self, workload, any_system, probe_addresses):
        from repro.chain.utxo import balance_from_history

        headers = any_system.headers()
        for address in probe_addresses.values():
            result = answer_query(any_system, address)
            history = verify_result(result, headers, any_system.config, address)
            expected = balance_from_history(
                address, (tx for _h, tx in workload.history_of(address))
            )
            assert history.balance() == expected

    def test_endpoint_stats_only_on_bmt_systems(
        self, lvq_system, strawman_system, probe_addresses
    ):
        address = probe_addresses["Addr1"]
        lvq_history = verify_result(
            answer_query(lvq_system, address),
            lvq_system.headers(),
            lvq_system.config,
        )
        assert lvq_history.num_endpoints >= 1
        strawman_history = verify_result(
            answer_query(strawman_system, address),
            strawman_system.headers(),
            strawman_system.config,
        )
        assert strawman_history.num_endpoints is None


class TestResultEnvelope:
    def test_wrong_system_kind(self, lvq_system, strawman_system, probe_addresses):
        result = answer_query(strawman_system, probe_addresses["Addr1"])
        with pytest.raises(VerificationError):
            verify_result(result, lvq_system.headers(), lvq_system.config)

    def test_wrong_address(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr2"])
        with pytest.raises(VerificationError):
            verify_result(
                result,
                lvq_system.headers(),
                lvq_system.config,
                expected_address=probe_addresses["Addr3"],
            )

    def test_stale_tip(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr1"])
        shorter = lvq_system.headers()[:-4]
        with pytest.raises(CompletenessError):
            verify_result(result, shorter, lvq_system.config)


class TestSegmentTampering:
    def test_dropped_segment(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr1"])
        result.segments.pop()
        with pytest.raises(CompletenessError):
            verify_result(result, lvq_system.headers(), lvq_system.config)

    def test_reordered_segments(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr1"])
        assert len(result.segments) >= 2
        result.segments.reverse()
        with pytest.raises(CompletenessError):
            verify_result(result, lvq_system.headers(), lvq_system.config)

    def test_missing_resolution(self, lvq_system, probe_addresses):
        result = materialize(answer_query(lvq_system, probe_addresses["Addr6"]))
        for segment in result.segments:
            if segment.resolutions:
                del segment.resolutions[sorted(segment.resolutions)[0]]
                break
        with pytest.raises(CompletenessError):
            verify_result(result, lvq_system.headers(), lvq_system.config)

    def test_multiproof_from_wrong_segment(self, lvq_system, probe_addresses):
        result = answer_query(lvq_system, probe_addresses["Addr1"])
        seg_a, seg_b = result.segments[0], result.segments[1]
        seg_a.multiproof, seg_b.multiproof = seg_b.multiproof, seg_a.multiproof
        with pytest.raises(VerificationError):
            verify_result(result, lvq_system.headers(), lvq_system.config)


class TestExistenceTampering:
    def _result_with_existence(self, system, workload, probe_addresses):
        address = probe_addresses["Addr5"]
        return address, materialize(answer_query(system, address))

    def test_undercount_rejected(self, workload, lvq_system, probe_addresses):
        address, result = self._result_with_existence(
            lvq_system, workload, probe_addresses
        )
        for segment in result.segments:
            for resolution in segment.resolutions.values():
                if (
                    isinstance(resolution, ExistenceResolution)
                    and len(resolution.entries) >= 2
                ):
                    resolution.entries.pop()
                    with pytest.raises(CompletenessError):
                        verify_result(
                            result, lvq_system.headers(), lvq_system.config
                        )
                    return
        pytest.skip("no multi-entry block in this workload")

    def test_duplicate_entry_rejected(self, workload, lvq_system, probe_addresses):
        address, result = self._result_with_existence(
            lvq_system, workload, probe_addresses
        )
        for segment in result.segments:
            for resolution in segment.resolutions.values():
                if isinstance(resolution, ExistenceResolution):
                    resolution.entries.append(resolution.entries[0])
                    with pytest.raises(VerificationError):
                        verify_result(
                            result, lvq_system.headers(), lvq_system.config
                        )
                    return
        pytest.fail("expected at least one existence resolution")

    def test_foreign_transaction_rejected(
        self, workload, lvq_system, probe_addresses
    ):
        """A (tx, branch) pair from another address's history must fail."""
        address = probe_addresses["Addr5"]
        result = materialize(answer_query(lvq_system, address))
        other = materialize(answer_query(lvq_system, probe_addresses["Addr6"]))
        donor = None
        for segment in other.segments:
            for resolution in segment.resolutions.values():
                if isinstance(resolution, ExistenceResolution):
                    donor = resolution.entries[0]
        assert donor is not None
        for segment in result.segments:
            for resolution in segment.resolutions.values():
                if isinstance(resolution, ExistenceResolution):
                    resolution.entries[-1] = donor
                    with pytest.raises(VerificationError):
                        verify_result(
                            result, lvq_system.headers(), lvq_system.config
                        )
                    return
        pytest.fail("expected at least one existence resolution")


class TestSystemDiscipline:
    def test_no_smt_system_rejects_existence_resolution(
        self, workload, lvq_no_smt_system, probe_addresses
    ):
        """LVQ-no-SMT must ship IBs; converting one to Merkle branches
        (which cannot prove completeness) is rejected."""
        address = probe_addresses["Addr5"]
        result = materialize(answer_query(lvq_no_smt_system, address))
        system = lvq_no_smt_system
        for segment in result.segments:
            for height, resolution in segment.resolutions.items():
                if isinstance(resolution, IntegralBlockResolution):
                    block = system.chain.block_at(height)
                    txs = block.transactions_involving(address)
                    if not txs:
                        continue
                    from repro.query.fragments import TxWithBranch

                    tree = system.merkle_trees[height]
                    entries = [
                        TxWithBranch(tx, tree.branch(block.transactions.index(tx)))
                        for tx in txs
                    ]
                    segment.resolutions[height] = ExistenceResolution(
                        None, entries
                    )
                    with pytest.raises(CompletenessError):
                        verify_result(result, system.headers(), system.config)
                    return
        pytest.fail("expected an IB covering an active block")

    def test_smt_system_rejects_integral_block(
        self, workload, lvq_system, probe_addresses
    ):
        address = probe_addresses["Addr5"]
        result = materialize(answer_query(lvq_system, address))
        for segment in result.segments:
            for height in list(segment.resolutions):
                block = lvq_system.chain.block_at(height)
                segment.resolutions[height] = IntegralBlockResolution(
                    block.body_bytes()
                )
                with pytest.raises(VerificationError):
                    verify_result(
                        result, lvq_system.headers(), lvq_system.config
                    )
                return
        pytest.fail("expected at least one resolution")

    def test_fpm_for_present_address_rejected(
        self, workload, lvq_system, probe_addresses
    ):
        """Claiming a present address is a false positive must fail."""
        address = probe_addresses["Addr5"]
        result = materialize(answer_query(lvq_system, address))
        for segment in result.segments:
            for height, resolution in list(segment.resolutions.items()):
                if isinstance(resolution, ExistenceResolution):
                    smt = lvq_system.smts[height]
                    # Forge an 'inexistence' proof from two real branches
                    # around the true leaf — they are not adjacent.
                    index = next(
                        i
                        for i in range(smt.num_leaves)
                        if smt.leaf(i).address == address
                    )
                    from repro.merkle.sorted_tree import SmtInexistenceProof

                    if index == 0 or index + 1 >= smt.num_leaves:
                        continue
                    forged = SmtInexistenceProof(
                        smt.branch(index - 1), smt.branch(index + 1)
                    )
                    segment.resolutions[height] = FpmResolution(forged)
                    with pytest.raises(CompletenessError):
                        verify_result(
                            result, lvq_system.headers(), lvq_system.config
                        )
                    return
        pytest.skip("no interior existence leaf found")


class TestIntegralBlockTampering:
    def test_modified_body_rejected(self, workload, probe_addresses):
        system = build_system(
            workload.bodies, SystemConfig.lvq_no_smt(bf_bytes=192, segment_len=16)
        )
        address = probe_addresses["Addr6"]
        result = materialize(answer_query(system, address))
        from repro.crypto.encoding import write_varint

        for segment in result.segments:
            for height, resolution in segment.resolutions.items():
                assert isinstance(resolution, IntegralBlockResolution)
                txs = resolution.transactions()
                if len(txs) < 2:
                    continue
                kept = txs[:-1]
                parts = [write_varint(len(kept))]
                parts.extend(tx.serialize() for tx in kept)
                segment.resolutions[height] = IntegralBlockResolution(
                    b"".join(parts)
                )
                with pytest.raises(CorrectnessError):
                    verify_result(result, system.headers(), system.config)
                return
        pytest.fail("expected a multi-tx integral block")
