"""What one block costs a full node to keep, gated in tier 1.

A full node holds every block's transactions, Merkle tree, filter, SMT
and BMT nodes for the life of the chain, and the e2e benchmark reads the
sum as ``server_rss_mb``.  This builds the benchmark's chain at an
eighth of its length and bounds the two per-block figures that sum is
made of, so a change that inflates the resident chain fails here, with
no harness to run.

The bounds are the values measured when the SMT was packed (DESIGN.md
§8) plus 15 %.  The list-of-digests SMT before it read 43.7 KiB and 190
objects per block.
"""

import gc
import tracemalloc

from repro.query.builder import build_system

#: Measured at 128 blocks: 26.7 KiB of heap and 52.7 GC-tracked objects per block.
MAX_HEAP_BYTES_PER_BLOCK = 26.7 * 1024 * 1.15
MAX_GC_OBJECTS_PER_BLOCK = 52.7 * 1.15


def test_resident_heap_and_gc_objects_per_block_stay_bounded(benchmark_chain):
    workload, config = benchmark_chain
    bodies = workload.bodies  # the transactions are the caller's, not the build's
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        heap_before = tracemalloc.get_traced_memory()[0]
        system = build_system(bodies, config)
        gc.collect()
        heap_after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    objects_after = len(gc.get_objects())

    blocks = len(bodies)  # genesis included
    assert system.tip_height == blocks - 1
    heap = (heap_after - heap_before) / blocks
    objects = (objects_after - objects_before) / blocks
    assert heap <= MAX_HEAP_BYTES_PER_BLOCK, (
        f"build_system retains {heap / 1024:.1f} KiB per block, "
        f"bound {MAX_HEAP_BYTES_PER_BLOCK / 1024:.1f}"
    )
    assert objects <= MAX_GC_OBJECTS_PER_BLOCK, (
        f"build_system leaves {objects:.1f} GC-tracked objects per block, "
        f"bound {MAX_GC_OBJECTS_PER_BLOCK:.1f}"
    )
