"""Prover BMT cost per op: a descent per range against a memo per span.

Two ways to produce the BMT multiproofs of one range query, timed op by
op on the same stream (DESIGN.md §8, "one entry per address and span"):

* ``descent`` — one range-restricted descent from the root plus its
  encode per covering span, ``BmtTree.multiproof(query_range=...)``:
  what the prover did for every range that clipped a span;
* ``sliced`` — the prover's segment memo: the span's whole-span image
  (``SpanImage``, built once per address and span on a miss)
  restricted to the range by ``SpanImage.restrict``.

Every sliced image is asserted byte-identical to the descent's.  Two
streams, shaped like the end-to-end workloads of the same names (the
chain is the e2e chain: seed 2020, 40 tx per block, M = all blocks):

* ``history_cold`` — wide ranges (each covering at least 7/8 of the
  chain), alternating the six probe addresses with addresses drawn
  log-uniformly over appearance ranks 8..4096;
* ``live_chain`` — first its prefix, one 16-block window of the chain
  after another for addresses drawn over ranks 7..262 (mostly first
  sight of an address: what a narrow miss costs), then a poll of the
  last 16 blocks for four such addresses after each of up to 200 blocks
  appended past the chain.

Each row reports ms/op for both paths over its stream, the memo filled
by the stream itself, and what the memo holds at the end.
"""

import random
import time

from _common import BENCH_BLOCKS, BENCH_TXS, fig12_configs, write_report

from repro.analysis.report import render_table
from repro.bloom.filter import PositionCache
from repro.chain.address import address_item
from repro.chain.segments import covering_spans
from repro.merkle.bmt import SpanImage
from repro.query.builder import build_system
from repro.query.cache import QueryCaches
from repro.workload.generator import WorkloadParams, generate_workload

#: history_cold ops (at least 8 per block, at most the 8,000 the prover
#: memo was sized on).
HISTORY_OPS = min(8_000, 8 * BENCH_BLOCKS)
LIVE_PREFIX = 256
APPENDS = min(200, BENCH_BLOCKS // 4)
POLLS_PER_APPEND = 4
RECENT = 16
#: The e2e chain's continuation stream (``workloads.CONTINUATION_SEED_OFFSET``).
CONTINUATION_SEED = 2020 + 104729


def _ranked(bodies):
    counts = {}
    for transactions in bodies:
        for transaction in transactions:
            for address in transaction.addresses():
                counts[address] = counts.get(address, 0) + 1
    return sorted(counts, key=lambda address: (-counts[address], address))


def _log_uniform(rng, ranked, low, high):
    high = min(high, len(ranked) - 1)
    return ranked[int(low * (high / low) ** rng.random())]


def _history_cold(workload, ranked):
    rng = random.Random("frontier-memo/history_cold")
    probes = [
        workload.probe_addresses[name] for name in sorted(workload.probe_addresses)
    ]
    span = BENCH_BLOCKS // 8
    for turn in range(HISTORY_OPS):
        if turn % 2 == 0:
            address = probes[(turn // 2) % len(probes)]
        else:
            address = _log_uniform(rng, ranked, 8, 4096)
        first = 1 + rng.randrange(span)
        yield address, first, BENCH_BLOCKS - rng.randrange(span)


class _Replay:
    """Both paths over one system, timed op by op."""

    def __init__(self, system):
        self.system = system
        self.memo = QueryCaches().segments
        self.restart()

    def restart(self):
        """Start a new row; the memo keeps what it holds."""
        self.ops = 0
        self.descent_s = 0.0
        self.sliced_s = 0.0
        self.before = self.memo.stats()

    def op(self, address, first, last):
        system, config = self.system, self.system.config
        item = address_item(address)
        positions = PositionCache(item).positions(
            config.num_hashes, config.bf_bits
        )
        spans = covering_spans(system.tip_height, config.segment_len)
        for anchor, start, end in spans:
            if end < first or start > last:
                continue
            clipped = (max(start, first), min(end, last))
            tree = system.forest.tree(start, end)
            began = time.perf_counter()
            expected = tree.multiproof(item, clipped, positions).serialize()
            middle = time.perf_counter()
            key = (address, anchor, start, end)
            image = self.memo.get(key)
            if image is None:
                image = SpanImage(tree.root, positions)
                self.memo[key] = image
            raw, _failed = image.restrict(*clipped)
            self.sliced_s += time.perf_counter() - middle
            self.descent_s += middle - began
            assert raw == expected, (address, anchor, clipped)
        self.ops += 1

    def row(self, name):
        memo = self.memo.stats()
        hits = memo.hits - self.before.hits
        lookups = hits + memo.misses - self.before.misses
        return [
            name,
            self.ops,
            f"{1000 * self.descent_s / self.ops:.3f}",
            f"{1000 * self.sliced_s / self.ops:.3f}",
            f"{self.descent_s / self.sliced_s:.2f}x",
            f"{hits / lookups:.2f}",
            memo.size,
            f"{memo.weight / 2**20:.2f}",
        ]


def test_frontier_memo(bench_workload):
    config = fig12_configs()["lvq"]
    bodies = bench_workload.bodies
    ranked = _ranked(bodies)
    rows = []

    history = _Replay(build_system(bodies, config))
    for address, first, last in _history_cold(bench_workload, ranked):
        history.op(address, first, last)
    rows.append(history.row("history_cold"))

    live = _Replay(build_system(bodies, config))
    rng = random.Random("frontier-memo/live_chain")
    windows = BENCH_BLOCKS // RECENT
    for turn in range(LIVE_PREFIX):
        last = BENCH_BLOCKS - RECENT * (turn % windows)
        live.op(_log_uniform(rng, ranked, 7, 262), last - RECENT + 1, last)
    rows.append(live.row("live_chain prefix"))
    live.restart()
    continuation = generate_workload(
        WorkloadParams(
            num_blocks=APPENDS, txs_per_block=BENCH_TXS, seed=CONTINUATION_SEED
        )
    )
    for transactions in continuation.bodies[1:]:
        live.system.append_block(transactions)
        tip = live.system.tip_height
        for _poll in range(POLLS_PER_APPEND):
            live.op(_log_uniform(rng, ranked, 7, 262), tip - RECENT + 1, tip)
    rows.append(live.row("live_chain polls"))

    text = render_table(
        [
            "stream",
            "ops",
            "descent ms/op",
            "sliced ms/op",
            "speedup",
            "memo hit rate",
            "entries",
            "memo MiB",
        ],
        rows,
    )
    write_report("frontier_memo", text)
    assert history.memo.stats().hit_rate > 0.5
