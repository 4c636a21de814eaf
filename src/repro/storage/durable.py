"""Crash-safe incremental chain store — the full node's one on-disk format.

:class:`DurableStore` keeps an append-only record log (``chain.log``,
framed per :mod:`repro.storage.record_log`) and a small manifest
checkpoint, so ``append_block`` and reorgs persist O(delta) and every
commit is crash-atomic.

Commit protocol (one mutation)::

    1. apply the mutation to the in-memory BuiltSystem
    2. append the framed record to chain.log; fsync the log
    3. write manifest.json.tmp (new block count, tip id, log length);
       fsync it; os.replace over manifest.json; fsync the directory

A crash anywhere in that sequence is recoverable:

* during 2 — the log has a torn frame beyond the manifest's committed
  ``log_bytes``; recovery truncates it and the store reopens at the
  previous commit;
* between 2 and 3 — the log carries a whole fsynced record the manifest
  does not know about; recovery *adopts* it (its effects were durable)
  and rewrites the manifest;
* during 3 — either the old manifest survives (tmp writes are to a side
  file) or the replace completed; both name a valid log prefix.

The invariant recovery enforces is that the manifest's ``log_bytes`` is
a durability *lower bound*: every byte below it must parse cleanly and
replay to exactly the manifest's ``blocks``/``tip_id`` — damage there is
real corruption (:class:`~repro.errors.ChainError`), never a torn tail.

All write-side I/O goes through a :class:`~repro.storage.vfs.Vfs`; the
kill-point harness swaps in a crashing VFS mid-run via the public
``store.vfs`` attribute to prove the above at every byte boundary.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional, Sequence, Tuple, Union

from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.crypto.hashing import sha256d
from repro.errors import ChainError
from repro.query.builder import BuiltSystem, build_system
from repro.query.config import SystemConfig
from repro.storage.record_log import (
    LogRecord,
    block_record,
    replay_records,
    rollback_record,
    walk_records,
)
from repro.storage.vfs import Vfs

PathLike = Union[str, pathlib.Path]

DURABLE_FORMAT = 2

_MANIFEST = "manifest.json"
_MANIFEST_TMP = "manifest.json.tmp"
_LOG = "chain.log"


class StoreReport:
    """Outcome of :func:`verify_store` — one offline fsck pass."""

    __slots__ = (
        "ok",
        "directory",
        "blocks",
        "tip_id",
        "log_bytes",
        "committed_bytes",
        "records",
        "torn_bytes",
        "first_bad_offset",
        "detail",
    )

    def __init__(
        self,
        ok: bool,
        directory: str,
        blocks: int = 0,
        tip_id: str = "",
        log_bytes: int = 0,
        committed_bytes: int = 0,
        records: int = 0,
        torn_bytes: int = 0,
        first_bad_offset: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.ok = ok
        self.directory = directory
        self.blocks = blocks
        self.tip_id = tip_id
        self.log_bytes = log_bytes
        self.committed_bytes = committed_bytes
        self.records = records
        self.torn_bytes = torn_bytes
        self.first_bad_offset = first_bad_offset
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "directory": self.directory,
            "blocks": self.blocks,
            "tip_id": self.tip_id,
            "log_bytes": self.log_bytes,
            "committed_bytes": self.committed_bytes,
            "records": self.records,
            "torn_bytes": self.torn_bytes,
            "first_bad_offset": self.first_bad_offset,
            "detail": self.detail,
        }


class DurableStore:
    """A :class:`BuiltSystem` bound to an append-only on-disk log.

    Mutations go through :meth:`append_block` / :meth:`rollback_to` /
    :meth:`reorg`, which update the in-memory system *and* durably log
    the delta before returning.  ``store.system`` is the live node state
    (safe to hand to :class:`~repro.node.full_node.FullNode`).
    """

    __slots__ = ("directory", "vfs", "system", "committed_bytes")

    def __init__(
        self,
        directory: pathlib.Path,
        vfs: Vfs,
        system: BuiltSystem,
        committed_bytes: int,
    ) -> None:
        self.directory = directory
        #: Swappable I/O layer — the recovery harness replaces this with
        #: a :class:`~repro.storage.vfs.CrashVfs` mid-run.
        self.vfs = vfs
        self.system = system
        self.committed_bytes = committed_bytes

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: PathLike,
        system: BuiltSystem,
        vfs: Optional[Vfs] = None,
    ) -> "DurableStore":
        """Write a fresh durable store for an already-built system."""
        vfs = vfs or Vfs()
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        if (path / _MANIFEST).exists() or (path / _LOG).exists():
            raise ChainError(f"refusing to overwrite existing store in {path}")
        with system.lock.read():
            frames = []
            for height, block in enumerate(system.chain):
                frames.append(
                    block_record(
                        block.body_bytes(),
                        system.chain.header_at(height).serialize(),
                    )
                )
        log_bytes = sum(len(frame) for frame in frames)
        with vfs.open(path / _LOG, "wb") as log:
            for frame in frames:
                log.write(frame)
            vfs.fsync(log)
        store = cls(path, vfs, system, log_bytes)
        store._write_manifest()
        return store

    @classmethod
    def open(
        cls, directory: PathLike, vfs: Optional[Vfs] = None
    ) -> "DurableStore":
        """Recover a durable store: truncate any torn tail, replay the
        log, rebuild indexes, and cross-check against the stored headers
        and the manifest checkpoint."""
        vfs = vfs or Vfs()
        path = pathlib.Path(directory)
        manifest = _read_manifest(path)
        config = _manifest_config(manifest)
        committed = _manifest_int(manifest, "log_bytes")
        expected_blocks = _manifest_int(manifest, "blocks")
        expected_tip = manifest.get("tip_id")
        if expected_blocks <= 0 or committed <= 0:
            raise ChainError(
                f"manifest in {path} promises an empty chain — corrupt"
            )

        log_path = path / _LOG
        try:
            raw = log_path.read_bytes()
        except FileNotFoundError as exc:
            raise ChainError(f"missing chain log in {path}") from exc
        if len(raw) < committed:
            raise ChainError(
                f"chain log in {path} is {len(raw)} bytes but the manifest "
                f"committed {committed} — log was externally truncated"
            )

        records, bad_offset, reason = walk_records(raw)
        if bad_offset is not None and bad_offset < committed:
            raise ChainError(
                f"corrupt chain log in {path} at offset {bad_offset} "
                f"({reason}) — inside the committed prefix"
            )

        # The committed length must land exactly on a record boundary.
        boundary = 0
        checkpoint_records: List[LogRecord] = []
        for record in records:
            if record.end_offset <= committed:
                checkpoint_records.append(record)
                boundary = record.end_offset
        if boundary != committed:
            raise ChainError(
                f"manifest in {path} commits {committed} log bytes, which "
                "is not a record boundary — store is corrupt"
            )

        # Cross-check the checkpoint: the committed prefix must replay to
        # exactly the manifest's block count and tip id.
        checkpoint = replay_records(checkpoint_records)
        checkpoint_tip = sha256d(checkpoint[-1][1]).hex() if checkpoint else ""
        if len(checkpoint) != expected_blocks or checkpoint_tip != expected_tip:
            raise ChainError(
                f"manifest checkpoint in {path} does not match the log: "
                f"replayed {len(checkpoint)} blocks tip {checkpoint_tip}, "
                f"manifest says {expected_blocks} / {expected_tip}"
            )

        # Adopt whole fsynced records beyond the checkpoint; their frames
        # verified, so their mutations were durably logged before the
        # crash.  Then drop the torn tail, if any.
        entries = replay_records(records)
        valid_bytes = records[-1].end_offset if records else 0
        if valid_bytes < len(raw):
            with vfs.open(log_path, "r+b") as log:
                vfs.truncate(log, valid_bytes)
                vfs.fsync(log)

        transactions = [Block.body_from_bytes(body) for body, _ in entries]
        system = build_system(transactions, config)
        for height, (_, stored_header) in enumerate(entries):
            if stored_header != system.chain.header_at(height).serialize():
                raise ChainError(
                    f"stored header at height {height} does not match the "
                    "header rebuilt from the bodies — store is corrupt"
                )

        store = cls(path, vfs, system, valid_bytes)
        # Re-checkpoint so the manifest reflects adopted records and the
        # truncation; idempotent when nothing changed.
        if valid_bytes != committed or len(raw) != valid_bytes:
            store._write_manifest()
        return store

    # -- mutations ---------------------------------------------------------

    def append_block(self, transactions: Sequence[Transaction]) -> None:
        """Append one block and durably commit it (O(block), not O(chain))."""
        self.system.append_block(transactions)
        with self.system.lock.read():
            tip = self.system.tip_height
            frame = block_record(
                self.system.chain.block_at(tip).body_bytes(),
                self.system.chain.header_at(tip).serialize(),
            )
        self._commit(frame)

    def rollback_to(self, height: int) -> int:
        """Pop every block above ``height``; returns how many were removed.

        The log only grows: the rollback is one appended record, so the
        discarded blocks' bytes stay behind it (and are skipped on
        replay) — crash-safety without rewriting the file.
        """
        removed = self.system.rollback_to(height)
        if removed:
            self._commit(rollback_record(height))
        return removed

    def reorg(
        self,
        fork_height: int,
        new_bodies: Sequence[Sequence[Transaction]],
    ) -> Tuple[int, int]:
        """Switch to a fork: rollback then append, each its own commit."""
        replaced = self.rollback_to(fork_height)
        for transactions in new_bodies:
            self.append_block(transactions)
        return replaced, len(new_bodies)

    # -- internals ---------------------------------------------------------

    def _commit(self, frame: bytes) -> None:
        with self.vfs.open(self.directory / _LOG, "ab") as log:
            log.write(frame)
            self.vfs.fsync(log)
        self.committed_bytes += len(frame)
        self._write_manifest()

    def _write_manifest(self) -> None:
        with self.system.lock.read():
            manifest = {
                "format": DURABLE_FORMAT,
                "config": self.system.config.to_dict(),
                "blocks": len(self.system.chain),
                "tip_id": self.system.chain.header_at(self.system.tip_height)
                .block_id()
                .hex(),
                "log_bytes": self.committed_bytes,
            }
        payload = json.dumps(manifest, indent=2).encode("ascii")
        tmp = self.directory / _MANIFEST_TMP
        with self.vfs.open(tmp, "wb") as handle:
            handle.write(payload)
            self.vfs.fsync(handle)
        self.vfs.replace(tmp, self.directory / _MANIFEST)
        self.vfs.fsync_dir(self.directory)


def verify_store(directory: PathLike, deep: bool = False) -> StoreReport:
    """Offline fsck of a durable store directory.

    Walks the log, validates every frame and the manifest checkpoint,
    and classifies damage: a torn tail beyond the committed prefix is
    *recoverable* (``ok`` stays true, ``torn_bytes`` reports its size);
    anything inside the committed prefix, or any semantic inconsistency,
    is corruption.  With ``deep=True`` the indexes are rebuilt and every
    stored header byte-checked, exactly as :meth:`DurableStore.open`
    would.
    """
    path = pathlib.Path(directory)
    where = str(path)
    try:
        manifest = _read_manifest(path)
        config = _manifest_config(manifest)
        committed = _manifest_int(manifest, "log_bytes")
        expected_blocks = _manifest_int(manifest, "blocks")
    except ChainError as exc:
        return StoreReport(False, where, detail=str(exc))

    try:
        raw = (path / _LOG).read_bytes()
    except FileNotFoundError:
        return StoreReport(False, where, detail=f"missing chain log in {path}")

    records, bad_offset, reason = walk_records(raw)
    report = StoreReport(
        True,
        where,
        log_bytes=len(raw),
        committed_bytes=committed,
        records=len(records),
    )
    if bad_offset is not None:
        if bad_offset < committed:
            report.ok = False
            report.first_bad_offset = bad_offset
            report.detail = f"{reason} inside the committed prefix"
            return report
        report.torn_bytes = len(raw) - (
            records[-1].end_offset if records else 0
        )
        report.detail = f"torn tail at offset {bad_offset} ({reason})"
    if len(raw) < committed:
        report.ok = False
        report.detail = (
            f"log is {len(raw)} bytes, manifest committed {committed}"
        )
        return report
    if not any(record.end_offset == committed for record in records):
        report.ok = False
        report.first_bad_offset = committed
        report.detail = "committed length is not a record boundary"
        return report

    try:
        checkpoint = replay_records(
            [r for r in records if r.end_offset <= committed]
        )
        entries = replay_records(records)
    except ChainError as exc:
        report.ok = False
        report.detail = str(exc)
        return report
    checkpoint_tip = sha256d(checkpoint[-1][1]).hex() if checkpoint else ""
    if (
        len(checkpoint) != expected_blocks
        or checkpoint_tip != manifest.get("tip_id")
    ):
        report.ok = False
        report.detail = "manifest checkpoint does not match the log replay"
        return report
    report.blocks = len(entries)
    report.tip_id = sha256d(entries[-1][1]).hex() if entries else ""

    if deep:
        try:
            transactions = [Block.body_from_bytes(body) for body, _ in entries]
            system = build_system(transactions, config)
            for height, (_, stored_header) in enumerate(entries):
                rebuilt = system.chain.header_at(height).serialize()
                if stored_header != rebuilt:
                    report.ok = False
                    report.detail = (
                        f"stored header at height {height} does not match "
                        "the header rebuilt from the bodies"
                    )
                    return report
        except ChainError as exc:
            report.ok = False
            report.detail = f"deep check failed: {exc}"
            return report
    return report


def _read_manifest(path: pathlib.Path) -> dict:
    try:
        manifest = json.loads((path / _MANIFEST).read_text())
    except FileNotFoundError as exc:
        raise ChainError(f"no chain manifest in {path}") from exc
    except json.JSONDecodeError as exc:
        raise ChainError(f"corrupt chain manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != DURABLE_FORMAT:
        raise ChainError(
            f"not a durable (format {DURABLE_FORMAT}) chain store: {path}"
        )
    return manifest


def _manifest_config(manifest: dict) -> SystemConfig:
    try:
        return SystemConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainError(f"malformed chain manifest: {exc}") from exc


def _manifest_int(manifest: dict, key: str) -> int:
    try:
        return int(manifest[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainError(
            f"malformed chain manifest field {key!r}: {exc}"
        ) from exc
