"""Kill-point recovery harness for the durable store.

SQLite's crash tests work by re-running a workload and killing the
process at every I/O boundary; this is the same idea for
:class:`~repro.storage.durable.DurableStore`:

1. build a *pristine* store and a schedule of primitive mutations
   (appends and rollbacks — a reorg is a rollback followed by appends);
2. dry-run the schedule under a :class:`~repro.storage.vfs.CountingVfs`
   to size the crash matrix (one fault point per written byte, one per
   fsync/replace/dir-sync/truncate) and run it to completion once with
   a real VFS — the never-crashed *oracle*;
3. for each crash point: copy the pristine store, swap in a
   :class:`~repro.storage.vfs.CrashVfs`, apply the schedule until the
   simulated kill, then reopen with a real VFS and check

   * recovery succeeds and lands on a state the oracle passed through
     (the committed prefix, possibly plus one adopted in-flight record);
   * resuming the remaining schedule from that state reproduces the
     oracle byte-for-byte — headers and full verifiable query answers
     for every probe address.

Matching the recovered ``(blocks, tip_id)`` against the oracle's prefix
states tells the harness where to resume: the schedule's operations are
functions of the current chain state alone, so any index with an equal
state replays to the same final state.

Run directly, as the CI ``recovery`` job does::

    python -m repro.storage.recovery_harness --blocks 5 --txs 2 --step 7
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from repro.query.builder import BuiltSystem, build_system
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.storage.durable import DurableStore, verify_store
from repro.storage.vfs import CountingVfs, CrashPoint, CrashVfs
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

# A primitive op: ("append", transactions) or ("rollback", height).
Op = Tuple[str, object]


class HarnessResult:
    """Aggregate outcome of one harness run."""

    __slots__ = (
        "fault_points",
        "crashes_tested",
        "divergences",
        "ops",
        "blocks_final",
    )

    def __init__(
        self,
        fault_points: int,
        crashes_tested: int,
        divergences: List[dict],
        ops: int,
        blocks_final: int,
    ) -> None:
        self.fault_points = fault_points
        self.crashes_tested = crashes_tested
        self.divergences = divergences
        self.ops = ops
        self.blocks_final = blocks_final

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "fault_points": self.fault_points,
            "crashes_tested": self.crashes_tested,
            "ops": self.ops,
            "blocks_final": self.blocks_final,
            "divergences": self.divergences,
        }


def build_schedule(
    num_blocks: int,
    txs_per_block: int,
    seed: int,
    config: Optional[SystemConfig] = None,
) -> Tuple[BuiltSystem, List[Op], List[str], SystemConfig]:
    """Deterministic append → reorg → append schedule.

    Returns ``(initial_system, ops, probe_addresses, config)``.  The
    initial system covers the first half of the main-fork bodies; the
    ops then extend it, switch to a fork (rollback + divergent bodies),
    and keep appending on the fork — exercising every record type.
    """
    if num_blocks < 4:
        raise ValueError("schedule needs at least 4 blocks")
    config = config or SystemConfig.lvq(bf_bytes=128, segment_len=4)
    main = generate_workload(
        WorkloadParams(
            num_blocks=num_blocks,
            txs_per_block=txs_per_block,
            seed=seed,
            probes=[ProbeProfile("P", min(4, num_blocks - 1), txs_per_block)],
        )
    )
    fork = generate_workload(
        WorkloadParams(
            num_blocks=num_blocks,
            txs_per_block=txs_per_block,
            seed=seed + 1,
            probes=[ProbeProfile("P", min(4, num_blocks - 1), txs_per_block)],
        )
    )
    bodies = main.bodies  # heights 0..num_blocks
    base = len(bodies) // 2
    system = build_system(bodies[:base], config)

    fork_height = max(1, base - 2)
    ops: List[Op] = []
    for body in bodies[base:]:
        ops.append(("append", body))
    ops.append(("rollback", fork_height))
    for body in fork.bodies[fork_height + 1 : fork_height + 4]:
        ops.append(("append", body))
    ops.append(("append", main.bodies[1]))

    probes = sorted(
        set(main.probe_addresses.values()) | set(fork.probe_addresses.values())
    )
    return system, ops, probes, config


def _apply_op(store: DurableStore, op: Op) -> None:
    kind, arg = op
    if kind == "append":
        store.append_block(arg)  # type: ignore[arg-type]
    elif kind == "rollback":
        store.rollback_to(arg)  # type: ignore[arg-type]
    else:  # pragma: no cover - schedule construction bug
        raise ValueError(f"unknown op {kind!r}")


def _state_of(store: DurableStore) -> Tuple[int, str]:
    system = store.system
    return (
        len(system.chain),
        system.chain.header_at(system.tip_height).block_id().hex(),
    )


def _fingerprint(store: DurableStore, probes: Sequence[str]) -> bytes:
    """Full behavioural fingerprint: headers + every probe's answer."""
    system = store.system
    parts = [header.serialize() for header in system.headers()]
    for address in probes:
        parts.append(
            answer_query(system, address).serialize(system.config)
        )
    return b"".join(parts)


def run_harness(
    num_blocks: int = 6,
    txs_per_block: int = 2,
    seed: int = 1,
    step: int = 1,
    workdir: Optional[pathlib.Path] = None,
    deep_fsck: bool = False,
) -> HarnessResult:
    """Sweep the crash matrix; returns the aggregate result.

    ``step`` thins the matrix (every ``step``-th fault point) for smoke
    runs; ``step=1`` is the exhaustive sweep the acceptance criterion
    demands.  ``deep_fsck`` additionally runs :func:`verify_store` with
    header cross-checking after every recovery.
    """
    owns_workdir = workdir is None
    root = pathlib.Path(
        tempfile.mkdtemp(prefix="lvq-recovery-")
        if owns_workdir
        else workdir
    )
    try:
        system, ops, probes, config = build_schedule(
            num_blocks, txs_per_block, seed
        )
        pristine = root / "pristine"
        DurableStore.create(pristine, system)

        # Oracle run (real VFS) — also records every prefix state.
        oracle_dir = root / "oracle"
        shutil.copytree(pristine, oracle_dir)
        oracle = DurableStore.open(oracle_dir)
        prefix_states: List[Tuple[int, str]] = [_state_of(oracle)]
        for op in ops:
            _apply_op(oracle, op)
            prefix_states.append(_state_of(oracle))
        oracle_print = _fingerprint(oracle, probes)
        blocks_final = len(oracle.system.chain)

        # Dry run under CountingVfs sizes the crash matrix.
        counting_dir = root / "counting"
        shutil.copytree(pristine, counting_dir)
        counter = CountingVfs()
        dry = DurableStore.open(counting_dir, counter)
        baseline = counter.fault_points
        for op in ops:
            _apply_op(dry, op)
        fault_points = counter.fault_points - baseline
        shutil.rmtree(counting_dir)

        divergences: List[dict] = []
        crashes_tested = 0
        work = root / "crash"
        for crash_at in range(1, fault_points + 1, max(1, step)):
            crashes_tested += 1
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(pristine, work)
            store = DurableStore.open(work)
            store.vfs = CrashVfs(crash_at)
            try:
                for op in ops:
                    _apply_op(store, op)
            except CrashPoint:
                pass
            else:
                divergences.append(
                    {"crash_at": crash_at, "error": "crash never fired"}
                )
                continue

            try:
                recovered = DurableStore.open(work)
            except Exception as exc:  # noqa: BLE001 - report, don't abort
                divergences.append(
                    {"crash_at": crash_at, "error": f"recovery failed: {exc}"}
                )
                continue

            state = _state_of(recovered)
            if state not in prefix_states:
                divergences.append(
                    {
                        "crash_at": crash_at,
                        "error": f"recovered to unknown state {state}",
                    }
                )
                continue
            if deep_fsck:
                report = verify_store(work, deep=True)
                if not report.ok:
                    divergences.append(
                        {"crash_at": crash_at, "error": report.detail}
                    )
                    continue

            resume_at = prefix_states.index(state)
            try:
                for op in ops[resume_at:]:
                    _apply_op(recovered, op)
            except Exception as exc:  # noqa: BLE001 - report, don't abort
                divergences.append(
                    {"crash_at": crash_at, "error": f"resume failed: {exc}"}
                )
                continue
            if _fingerprint(recovered, probes) != oracle_print:
                divergences.append(
                    {
                        "crash_at": crash_at,
                        "error": "final state diverges from oracle",
                    }
                )
        if work.exists():
            shutil.rmtree(work)
        return HarnessResult(
            fault_points, crashes_tested, divergences, len(ops), blocks_final
        )
    finally:
        if owns_workdir:
            shutil.rmtree(root, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill-point recovery sweep for the durable chain store"
    )
    parser.add_argument("--blocks", type=int, default=6)
    parser.add_argument("--txs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--step",
        type=int,
        default=1,
        help="test every Nth fault point (1 = exhaustive)",
    )
    parser.add_argument(
        "--deep-fsck",
        action="store_true",
        help="run a deep verify_store after every recovery",
    )
    args = parser.parse_args(argv)
    result = run_harness(
        num_blocks=args.blocks,
        txs_per_block=args.txs,
        seed=args.seed,
        step=args.step,
        deep_fsck=args.deep_fsck,
    )
    json.dump(result.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
