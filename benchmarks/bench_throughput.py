"""Prover throughput baseline: fast path vs naive reference (QPS).

This harness seeds the repo's performance trajectory.  It builds the
Fig-12 systems over the standard synthetic workload, then times three
query-serving mixes over the Table-III probe profiles:

* **single** — one full-range query per probe address, repeated;
* **batch**  — all probes answered in one ``answer_batch_query``;
* **range**  — sliding sub-range queries for the heavy probes.  The
  prover files only whole-span multiproofs (DESIGN.md §8), so every
  round of this mix times a cold clipped descent with warm block
  resolutions; a *served* repeat of the same ``(address, first, last)``
  is a response-cache hit in ``FullNode`` and never reaches the prover,
  which is why the mix is not gated.

Each mix is timed twice: once through :mod:`repro.query.naive` (the
pre-fast-path algorithms, preserved verbatim) and once through the fast
prover.  Before any timing, the harness asserts the two paths produce
**byte-identical** serialized answers — a speedup over a wrong answer is
worthless.  Results land in ``BENCH_throughput.json`` at the repo root;
EXPERIMENTS.md §"Prover performance" documents the schema.  The
gated figures are the **single** Addr5/Addr6 speedups (see below).

Run: ``PYTHONPATH=src python benchmarks/bench_throughput.py``
(``LVQ_BENCH_BLOCKS=64`` for the CI smoke run; the ≥5× Addr5/Addr6
speedup gate is enforced only at >= 1024 blocks, where the paper-scale
chain makes the naive path's O(chain) costs visible).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import BENCH_BLOCKS, BENCH_TXS, NUM_HASHES, fig12_configs
from repro.query.batch import answer_batch_query
from repro.query.naive import answer_batch_query_naive, answer_query_naive
from repro.query.builder import build_system
from repro.query.prover import answer_query
from repro.workload.generator import WorkloadParams, generate_workload

ROUNDS = int(os.environ.get("LVQ_BENCH_ROUNDS", "5"))
#: The acceptance gate: fast path must beat naive by this factor on the
#: heavy probes (Addr5/Addr6) at paper scale.
REQUIRED_SPEEDUP = 5.0
#: Below this chain length the gate is informational only (CI smoke).
GATE_MIN_BLOCKS = 1024

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_throughput.json"

#: Systems timed for throughput (BMT headline + per-block baseline);
#: the remaining kinds are still equivalence-checked.
TIMED_SYSTEMS = ("lvq", "strawman")
HEAVY_PROBES = ("Addr5", "Addr6")


def _time_queries(run_one, count: int) -> float:
    """Total seconds for ``count`` sequential invocations of ``run_one``.

    GC is paused while the clock runs — a collection pause landing inside
    a single-query cold measurement would otherwise dwarf the query.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(count):
            run_one()
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _mix_entry(system, naive_fn, fast_fn, check_bytes=True):
    """Time one (naive, fast) pair; returns the JSON row for the mix."""
    if check_bytes:
        config = system.config
        fast_bytes = fast_fn().serialize(config)
        naive_bytes = naive_fn().serialize(config)
        if fast_bytes != naive_bytes:
            raise AssertionError(
                f"{config.kind.value}: fast path diverges from naive path"
            )

    naive_total = _time_queries(naive_fn, ROUNDS)
    # Cold: memo dropped, first query pays full resolution cost.
    system.clear_query_caches()
    cold_seconds = _time_queries(fast_fn, 1)
    # Serving throughput: memo warm after the first round, as in steady
    # state.  The cold round is charged to the fast path's total.
    fast_total = cold_seconds + _time_queries(fast_fn, ROUNDS - 1)

    naive_per_query = naive_total / ROUNDS
    fast_per_query = fast_total / ROUNDS
    return {
        "rounds": ROUNDS,
        "naive_s_per_query": naive_per_query,
        "fast_s_per_query": fast_per_query,
        "fast_cold_s_per_query": cold_seconds,
        "naive_qps": 1.0 / naive_per_query if naive_per_query else 0.0,
        "fast_qps": 1.0 / fast_per_query if fast_per_query else 0.0,
        "speedup": naive_per_query / fast_per_query if fast_per_query else 0.0,
        "cold_speedup": (
            naive_per_query / cold_seconds if cold_seconds else 0.0
        ),
    }


def _serialize_batch(batch, config):
    return batch.serialize(config)


def _range_windows(tip_height: int):
    """Deterministic sliding windows covering ~quarter-chain slices."""
    width = max(1, tip_height // 4)
    step = max(1, tip_height // 8)
    windows = []
    first = 1
    while first <= tip_height:
        windows.append((first, min(first + width - 1, tip_height)))
        first += step
    return windows[:6]


def _bench_system(name, system, workload):
    config = system.config
    probes = workload.probe_addresses
    report = {
        "kind": config.kind.value,
        "bf_bytes": config.bf_bytes,
        "segment_len": config.segment_len,
        "single": {},
        "batch": {},
        "range": {},
    }

    for probe_name, address in probes.items():
        report["single"][probe_name] = _mix_entry(
            system,
            lambda a=address: answer_query_naive(system, a),
            lambda a=address: answer_query(system, a),
        )

    addresses = list(probes.values())
    fast_batch = answer_batch_query(system, addresses)
    naive_batch = answer_batch_query_naive(system, addresses)
    if fast_batch.serialize(config) != naive_batch.serialize(config):
        raise AssertionError(f"{name}: batch fast path diverges from naive")
    report["batch"]["all_probes"] = _mix_entry(
        system,
        lambda: answer_batch_query_naive(system, addresses),
        lambda: answer_batch_query(system, addresses),
        check_bytes=False,  # checked above (BatchQueryResult API differs)
    )

    windows = _range_windows(system.tip_height)
    for probe_name in HEAVY_PROBES:
        address = probes[probe_name]

        def naive_sweep(a=address):
            for first, last in windows:
                answer_query_naive(system, a, first, last)
            return answer_query_naive(system, a, *windows[0])

        def fast_sweep(a=address):
            for first, last in windows:
                answer_query(system, a, first, last)
            return answer_query(system, a, *windows[0])

        report["range"][probe_name] = _mix_entry(
            system, naive_sweep, fast_sweep
        )
    return report


def _check_equivalence(system, workload) -> bool:
    """Byte-identical fast/naive answers for every probe + absent addr."""
    config = system.config
    addresses = list(workload.probe_addresses.values()) + ["absent-addr"]
    for address in addresses:
        if answer_query(system, address).serialize(config) != (
            answer_query_naive(system, address).serialize(config)
        ):
            return False
    return True


def main() -> int:
    params = WorkloadParams(
        num_blocks=BENCH_BLOCKS, txs_per_block=BENCH_TXS, seed=2020
    )
    print(
        f"bench_throughput: blocks={BENCH_BLOCKS} txs/block={BENCH_TXS} "
        f"rounds={ROUNDS}"
    )
    workload = generate_workload(params)
    configs = fig12_configs()

    report = {
        "schema": "lvq-bench-throughput/v1",
        "params": {
            "blocks": BENCH_BLOCKS,
            "txs_per_block": BENCH_TXS,
            "num_hashes": NUM_HASHES,
            "seed": 2020,
            "rounds": ROUNDS,
        },
        "systems": {},
        "equivalence": {},
        "target": {
            "required_speedup": REQUIRED_SPEEDUP,
            "gate_min_blocks": GATE_MIN_BLOCKS,
            "enforced": BENCH_BLOCKS >= GATE_MIN_BLOCKS,
        },
    }

    systems = {}
    for name, config in configs.items():
        start = time.perf_counter()
        systems[name] = build_system(workload.bodies, config)
        build_seconds = time.perf_counter() - start
        equal = _check_equivalence(systems[name], workload)
        report["equivalence"][name] = equal
        print(
            f"  built {name:10s} in {build_seconds:7.2f}s  "
            f"equivalence={'ok' if equal else 'FAIL'}"
        )
        if not equal:
            raise AssertionError(
                f"{name}: fast path is not byte-identical to the naive path"
            )
        if name in TIMED_SYSTEMS:
            system_report = _bench_system(name, systems[name], workload)
            system_report["build_seconds"] = build_seconds
            report["systems"][name] = system_report
        else:
            del systems[name]  # free memory for the next build

    lvq_single = report["systems"]["lvq"]["single"]
    target = report["target"]
    for probe_name in HEAVY_PROBES:
        target[f"{probe_name.lower()}_speedup"] = lvq_single[probe_name][
            "speedup"
        ]
    target["met"] = all(
        target[f"{p.lower()}_speedup"] >= REQUIRED_SPEEDUP
        for p in HEAVY_PROBES
    )

    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")

    print("\nsystem      mix     probe       naive qps    fast qps   speedup")
    for name, system_report in report["systems"].items():
        for mix in ("single", "batch", "range"):
            for probe_name, row in system_report[mix].items():
                print(
                    f"{name:10s}  {mix:6s}  {probe_name:10s} "
                    f"{row['naive_qps']:11.1f} {row['fast_qps']:11.1f} "
                    f"{row['speedup']:8.2f}x"
                )

    if target["enforced"] and not target["met"]:
        print(
            f"FAIL: heavy-probe speedup below {REQUIRED_SPEEDUP}x "
            f"(Addr5={target['addr5_speedup']:.2f}x, "
            f"Addr6={target['addr6_speedup']:.2f}x)"
        )
        return 1
    print(
        f"target: Addr5={target['addr5_speedup']:.2f}x "
        f"Addr6={target['addr6_speedup']:.2f}x "
        f"(gate {'enforced' if target['enforced'] else 'informational'})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
