"""Crash-injection VFS unit tests and a kill-point harness smoke run.

The exhaustive sweep (``--step 1``, every fault point) is a local
release check and the CI ``recovery`` job runs one point in seven; here
a thinner matrix keeps the tier-1 suite fast while still crossing every
commit phase (record bytes, log fsync, manifest tmp bytes, replace, dir
sync).
"""

import pytest

from repro.storage.recovery_harness import build_schedule, run_harness
from repro.storage.vfs import CountingVfs, CrashPoint, CrashVfs, Vfs


class TestCountingVfs:
    def test_counts_bytes_and_ops(self, tmp_path):
        vfs = CountingVfs()
        with vfs.open(tmp_path / "f", "wb") as handle:
            handle.write(b"12345")
            vfs.fsync(handle)
        vfs.replace(tmp_path / "f", tmp_path / "g")
        vfs.fsync_dir(tmp_path)
        assert vfs.fault_points == 5 + 1 + 1 + 1

    def test_read_paths_uncharged(self, tmp_path):
        (tmp_path / "f").write_bytes(b"data")
        vfs = CountingVfs()
        with vfs.open(tmp_path / "f", "rb") as handle:
            assert handle.read() == b"data"
        assert vfs.fault_points == 0


class TestCrashVfs:
    def test_partial_write_lands(self, tmp_path):
        vfs = CrashVfs(crash_at=3)
        with vfs.open(tmp_path / "f", "wb") as handle:
            with pytest.raises(CrashPoint):
                handle.write(b"abcdef")
            # Read while the handle is still open: the crash itself must
            # have flushed the partial bytes, not a later close().
            assert (tmp_path / "f").read_bytes() == b"abc"

    def test_dead_vfs_refuses_everything(self, tmp_path):
        vfs = CrashVfs(crash_at=1)
        with vfs.open(tmp_path / "f", "wb") as handle:
            with pytest.raises(CrashPoint):
                handle.write(b"xy")
        assert vfs.dead
        with pytest.raises(CrashPoint):
            vfs.open(tmp_path / "g", "wb")
        with pytest.raises(CrashPoint):
            vfs.replace(tmp_path / "f", tmp_path / "g")

    def test_crash_on_fsync_skips_the_sync(self, tmp_path):
        vfs = CrashVfs(crash_at=4)
        with vfs.open(tmp_path / "f", "wb") as handle:
            handle.write(b"abc")  # 3 fault points, all land
            with pytest.raises(CrashPoint):
                vfs.fsync(handle)  # 4th point: dies before syncing

    def test_exact_boundary_crashes_on_next_op(self, tmp_path):
        vfs = CrashVfs(crash_at=3)
        with vfs.open(tmp_path / "f", "wb") as handle:
            handle.write(b"abc")  # exactly exhausts the budget
            with pytest.raises(CrashPoint):
                handle.write(b"d")
            assert (tmp_path / "f").read_bytes() == b"abc"

    def test_crash_point_must_be_positive(self):
        with pytest.raises(ValueError):
            CrashVfs(crash_at=0)


class TestSchedule:
    def test_schedule_exercises_both_record_types(self):
        _system, ops, probes, _config = build_schedule(6, 2, seed=1)
        kinds = {kind for kind, _ in ops}
        assert kinds == {"append", "rollback"}
        assert probes

    def test_too_short_chain_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(3, 2, seed=1)


class TestHarness:
    def test_thinned_sweep_zero_divergences(self, tmp_path):
        result = run_harness(
            num_blocks=5,
            txs_per_block=2,
            seed=11,
            step=211,
            workdir=tmp_path / "sweep",
        )
        assert result.ok, result.divergences[:3]
        assert result.crashes_tested >= 20
        assert result.fault_points > result.crashes_tested

    def test_harness_detects_a_broken_store(self, tmp_path, monkeypatch):
        """Sanity check that the harness *can* fail: break recovery and
        the sweep must report divergences instead of vacuous success."""
        import repro.storage.recovery_harness as rh

        real_open = rh.DurableStore.open.__func__

        def flaky_open(cls, directory, vfs=None):
            store = real_open(cls, directory, vfs)
            if "crash" in str(directory) and len(store.system.chain) > 1:
                store.system.rollback_to(0)  # corrupt the recovered state
            return store

        monkeypatch.setattr(
            rh.DurableStore, "open", classmethod(flaky_open)
        )
        result = run_harness(
            num_blocks=5,
            txs_per_block=2,
            seed=11,
            step=997,
            workdir=tmp_path / "sweep",
        )
        assert not result.ok
