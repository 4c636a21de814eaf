"""Shared constants and helpers for the benchmark harness (non-fixture).

See ``benchmarks/conftest.py`` for the session fixtures and the scaling
conventions; this module holds everything bench modules import directly.
"""

from __future__ import annotations

import os
import pathlib

from repro.analysis.sizing import paper_equivalent_bf_bytes
from repro.query.config import SystemConfig

#: Chain length; the paper evaluates 4096 mainnet blocks.
BENCH_BLOCKS = int(os.environ.get("LVQ_BENCH_BLOCKS", "1024"))
#: Background transactions per block (~96 unique addresses each).
BENCH_TXS = int(os.environ.get("LVQ_BENCH_TXS", "40"))
#: Unique addresses per block the BF scaling assumes (measured).
ADDRESSES_PER_BLOCK = 96
#: Number of BF hash functions (DESIGN.md §2: matches the FP rate the
#: paper's Challenge-2 arithmetic implies).
NUM_HASHES = 3

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: The scale the committed ``results/*.txt`` were measured at.
COMMITTED_SCALE = (1024, 40)

#: Fig 13/14/15 sweep, in paper KiB.
BF_SWEEP_KIB = (10, 30, 50, 100, 200, 500)


def bf_bytes(paper_kib: float) -> int:
    """Our-scale filter size for a paper-KiB label."""
    return paper_equivalent_bf_bytes(paper_kib, ADDRESSES_PER_BLOCK)


def report_dir() -> pathlib.Path:
    """Where this run's tables go: ``results/`` at the committed scale,
    ``results/scale-<blocks>x<txs>/`` (git-ignored) at any other, so a
    smoke run never overwrites the tables EXPERIMENTS.md quotes."""
    if (BENCH_BLOCKS, BENCH_TXS) == COMMITTED_SCALE:
        return RESULTS_DIR
    return RESULTS_DIR / f"scale-{BENCH_BLOCKS}x{BENCH_TXS}"


def write_report(name: str, text: str) -> None:
    """Print a table and persist it for EXPERIMENTS.md."""
    directory = report_dir()
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} (blocks={BENCH_BLOCKS}) ===")
    print(text)


def fig12_configs():
    """§VII-B: 10KB filters for the non-BMT systems, 30KB + M=all-blocks
    for the BMT systems."""
    return {
        "strawman": SystemConfig.strawman(
            bf_bytes=bf_bytes(10), num_hashes=NUM_HASHES
        ),
        "lvq_no_bmt": SystemConfig.lvq_no_bmt(
            bf_bytes=bf_bytes(10), num_hashes=NUM_HASHES
        ),
        "lvq_no_smt": SystemConfig.lvq_no_smt(
            bf_bytes=bf_bytes(30),
            segment_len=BENCH_BLOCKS,
            num_hashes=NUM_HASHES,
        ),
        "lvq": SystemConfig.lvq(
            bf_bytes=bf_bytes(30),
            segment_len=BENCH_BLOCKS,
            num_hashes=NUM_HASHES,
        ),
    }


def lvq_config_for_kib(paper_kib: float) -> SystemConfig:
    return SystemConfig.lvq(
        bf_bytes=bf_bytes(paper_kib),
        segment_len=BENCH_BLOCKS,
        num_hashes=NUM_HASHES,
    )
