"""The durable store: incremental commits, recovery, and fsck."""

import json

import pytest

from repro.errors import ChainError
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.storage.durable import DurableStore, verify_store
from repro.storage.vfs import CrashPoint, CrashVfs
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

CONFIG = SystemConfig.lvq(bf_bytes=128, segment_len=4)


@pytest.fixture(scope="module")
def chains():
    main = generate_workload(
        WorkloadParams(
            num_blocks=10,
            txs_per_block=4,
            seed=71,
            probes=[ProbeProfile("P", 5, 4)],
        )
    )
    alt = generate_workload(
        WorkloadParams(
            num_blocks=10,
            txs_per_block=4,
            seed=72,
            probes=[ProbeProfile("P", 5, 4)],
        )
    )
    return main, alt


def _store_at(tmp_path, bodies, name="store"):
    system = build_system(bodies, CONFIG)
    return DurableStore.create(tmp_path / name, system)


def _headers(system):
    return [h.serialize() for h in system.headers()]


class TestRoundTrip:
    def test_create_open_identical(self, chains, tmp_path):
        main, _ = chains
        store = _store_at(tmp_path, main.bodies)
        reopened = DurableStore.open(tmp_path / "store")
        assert _headers(reopened.system) == _headers(store.system)
        address = main.probe_addresses["P"]
        assert answer_query(reopened.system, address).serialize(
            CONFIG
        ) == answer_query(store.system, address).serialize(CONFIG)

    def test_append_is_incremental(self, chains, tmp_path):
        main, _ = chains
        store = _store_at(tmp_path, main.bodies[:6])
        log = tmp_path / "store" / "chain.log"
        size_before = log.stat().st_size
        store.append_block(main.bodies[6])
        grown_by = log.stat().st_size - size_before
        # One framed record, not a rewrite of the whole chain.
        assert 0 < grown_by < size_before
        reopened = DurableStore.open(tmp_path / "store")
        assert _headers(reopened.system) == _headers(
            build_system(main.bodies[:7], CONFIG)
        )

    def test_rollback_appends_not_rewrites(self, chains, tmp_path):
        main, _ = chains
        store = _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        size_before = log.stat().st_size
        store.rollback_to(5)
        assert log.stat().st_size > size_before  # log only grows
        reopened = DurableStore.open(tmp_path / "store")
        assert _headers(reopened.system) == _headers(
            build_system(main.bodies[:6], CONFIG)
        )

    def test_reorg_roundtrip(self, chains, tmp_path):
        main, alt = chains
        store = _store_at(tmp_path, main.bodies)
        store.reorg(4, alt.bodies[5:9])
        reopened = DurableStore.open(tmp_path / "store")
        equivalent = build_system(main.bodies[:5] + alt.bodies[5:9], CONFIG)
        assert _headers(reopened.system) == _headers(equivalent)
        for address in set(main.probe_addresses.values()) | set(
            alt.probe_addresses.values()
        ):
            assert answer_query(reopened.system, address).serialize(
                CONFIG
            ) == answer_query(equivalent, address).serialize(CONFIG)

    def test_create_refuses_overwrite(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies[:4])
        with pytest.raises(ChainError, match="refusing to overwrite"):
            DurableStore.create(
                tmp_path / "store", build_system(main.bodies[:4], CONFIG)
            )


class TestRecovery:
    def test_torn_tail_truncated(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        clean = log.read_bytes()
        log.write_bytes(clean + b"\x01\x00\x00")
        reopened = DurableStore.open(tmp_path / "store")
        assert log.read_bytes() == clean
        assert _headers(reopened.system) == _headers(
            build_system(main.bodies, CONFIG)
        )

    def test_adopts_fsynced_record_beyond_checkpoint(self, chains, tmp_path):
        """Crash between the log fsync and the manifest replace: the new
        record is durable, so recovery must adopt it, not drop it."""
        main, _ = chains
        store = _store_at(tmp_path, main.bodies[:6])
        manifest_before = (tmp_path / "store" / "manifest.json").read_bytes()
        store.append_block(main.bodies[6])
        # Simulate the crash by restoring the pre-append manifest.
        (tmp_path / "store" / "manifest.json").write_bytes(manifest_before)
        reopened = DurableStore.open(tmp_path / "store")
        assert len(reopened.system.chain) == 7
        # Recovery re-checkpointed: a second open is clean.
        manifest = json.loads(
            (tmp_path / "store" / "manifest.json").read_text()
        )
        assert manifest["blocks"] == 7

    def test_corruption_inside_committed_prefix_rejected(
        self, chains, tmp_path
    ):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        raw = bytearray(log.read_bytes())
        raw[7] ^= 0xFF
        log.write_bytes(bytes(raw))
        with pytest.raises(ChainError, match="committed prefix"):
            DurableStore.open(tmp_path / "store")

    def test_externally_truncated_log_rejected(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        log.write_bytes(log.read_bytes()[:50])
        with pytest.raises(ChainError, match="truncated"):
            DurableStore.open(tmp_path / "store")

    def test_partial_manifest_is_chain_error(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        manifest = tmp_path / "store" / "manifest.json"
        manifest.write_text(manifest.read_text()[:37])
        with pytest.raises(ChainError, match="corrupt chain manifest"):
            DurableStore.open(tmp_path / "store")

    def test_missing_manifest_is_chain_error(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        (tmp_path / "store" / "manifest.json").unlink()
        with pytest.raises(ChainError, match="no chain manifest"):
            DurableStore.open(tmp_path / "store")

    def test_missing_log_is_chain_error(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        (tmp_path / "store" / "chain.log").unlink()
        with pytest.raises(ChainError, match="missing chain log"):
            DurableStore.open(tmp_path / "store")

    @pytest.mark.parametrize(
        "manifest",
        [{"format": 1}, {"format": 99}, []],
        ids=["format-1", "format-99", "not-an-object"],
    )
    def test_other_formats_are_refused(self, manifest, tmp_path):
        """Format 2 is the one chain store: a snapshot-era (format 1)
        or unknown manifest is refused, typed, not half-loaded."""
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ChainError, match="not a durable"):
            DurableStore.open(tmp_path / "store")

    def test_stray_manifest_tmp_is_harmless(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        (tmp_path / "store" / "manifest.json.tmp").write_text("{garbage")
        reopened = DurableStore.open(tmp_path / "store")
        assert _headers(reopened.system) == _headers(
            build_system(main.bodies, CONFIG)
        )

    def test_crash_mid_commit_recovers_cleanly(self, chains, tmp_path):
        main, _ = chains
        store = _store_at(tmp_path, main.bodies[:6])
        store.vfs = CrashVfs(crash_at=20)  # dies inside the record write
        with pytest.raises(CrashPoint):
            store.append_block(main.bodies[6])
        reopened = DurableStore.open(tmp_path / "store")
        assert len(reopened.system.chain) == 6
        report = verify_store(tmp_path / "store", deep=True)
        assert report.ok, report.detail


class TestVerifyStore:
    def test_clean(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        report = verify_store(tmp_path / "store", deep=True)
        assert report.ok
        assert report.blocks == len(main.bodies)
        assert report.torn_bytes == 0
        assert report.first_bad_offset is None

    def test_torn_tail_is_recoverable_not_corrupt(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        log.write_bytes(log.read_bytes() + b"\x02\x01")
        report = verify_store(tmp_path / "store")
        assert report.ok
        assert report.torn_bytes == 2

    def test_corruption_reports_first_bad_offset(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies)
        log = tmp_path / "store" / "chain.log"
        raw = bytearray(log.read_bytes())
        raw[3] ^= 0x01
        log.write_bytes(bytes(raw))
        report = verify_store(tmp_path / "store")
        assert not report.ok
        assert report.first_bad_offset == 0

    def test_header_tamper_caught_by_deep_check(self, chains, tmp_path):
        """A record whose header bytes disagree with its body survives the
        CRC walk (the frame is intact) — only the deep rebuild sees it."""
        main, _ = chains
        store = _store_at(tmp_path, main.bodies[:5])
        from repro.crypto.hashing import sha256d
        from repro.storage.record_log import block_record, walk_records

        tip = store.system.tip_height
        block = store.system.chain.block_at(tip)
        wrong_header = store.system.chain.header_at(tip - 1).serialize()
        frame = block_record(block.body_bytes(), wrong_header)
        log = tmp_path / "store" / "chain.log"
        raw = log.read_bytes()
        records, _, _ = walk_records(raw)
        patched = raw[: records[-1].offset] + frame
        log.write_bytes(patched)
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["log_bytes"] = len(patched)
        manifest["tip_id"] = sha256d(wrong_header).hex()
        manifest_path.write_text(json.dumps(manifest))
        # Shallow check only validates frames + checkpoint arithmetic...
        assert verify_store(tmp_path / "store").ok
        # ...while the deep rebuild compares every stored header byte.
        deep = verify_store(tmp_path / "store", deep=True)
        assert not deep.ok
        assert "does not match" in deep.detail
        with pytest.raises(ChainError, match="does not match"):
            DurableStore.open(tmp_path / "store")

    def test_missing_log(self, chains, tmp_path):
        main, _ = chains
        _store_at(tmp_path, main.bodies[:4])
        (tmp_path / "store" / "chain.log").unlink()
        report = verify_store(tmp_path / "store")
        assert not report.ok
        assert "missing chain log" in report.detail

    def test_wrong_format_manifest(self, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "manifest.json").write_text(
            json.dumps({"format": 1})
        )
        report = verify_store(tmp_path / "store")
        assert not report.ok
