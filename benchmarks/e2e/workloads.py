"""The canonical chain and the four seeded request streams.

Everything here is a pure function of ``--seed``: the chain bodies, the
address ranking, the ground-truth history index and every request.  The
server process builds the same bodies from the same seed but is never
told a workload's name — it only ever sees the frames generated here.

Why these four (the benchmark's record of its own choices):

``poll_recent``
    768 distinct ``(address, range)`` keys, fewer than the 1024 entries
    of ``FullNode.response_cache``, so after warm-up every request is a
    response-cache hit.  What is left is per-message cost: socket,
    framing, event loop, admission, scheduler, worker wake-up, Future.
``history_cold``
    Every ``(address, first, last)`` key is distinct by construction, so
    the response cache always misses and proof generation, encoding,
    decoding and verification dominate.
``wallet_batch``
    The only path through ``aggregate.py`` and ``compress_frame``:
    zlib-framed aggregated batch queries for 8-address wallets.
``live_chain``
    Writes beside reads: an open-loop appender, a closed-loop poller
    whose reads are cold after every append, and a watcher receiving
    proof-carrying pushes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analysis.sizing import paper_equivalent_bf_bytes
from repro.chain.transaction import Transaction
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload

TXS_PER_BLOCK = 40
#: Unique addresses per block the Bloom-filter scaling assumes (the same
#: constant ``benchmarks/_common.py`` uses for ``fig12_configs()``).
ADDRESSES_PER_BLOCK = 96
#: Appended blocks come from a second seeded stream, as in
#: ``repro serve --mine-blocks``; the base chain stays the canonical one.
CONTINUATION_SEED_OFFSET = 104729

#: Blocks in the canonical chain, and in the ``--smoke`` chain.
FULL_BLOCKS = 1024
SMOKE_BLOCKS = 64


def system_config(blocks: int) -> SystemConfig:
    """``fig12_configs()["lvq"]`` at this chain length."""
    return SystemConfig.lvq(
        bf_bytes=paper_equivalent_bf_bytes(30, ADDRESSES_PER_BLOCK),
        segment_len=blocks,
        num_hashes=3,
    )


def chain_bodies(
    seed: int, blocks: int, extra: int
) -> "Tuple[List[List[Transaction]], Dict[str, str]]":
    """Bodies of heights ``0..blocks+extra`` plus the probe addresses.

    Both processes call this with the same arguments and so hold the
    same chain; the first ``blocks + 1`` bodies are served from the
    start, the remaining ``extra`` are appended live, in order.
    """
    base = generate_workload(
        WorkloadParams(num_blocks=blocks, txs_per_block=TXS_PER_BLOCK, seed=seed)
    )
    bodies = list(base.bodies)
    if extra:
        continuation = generate_workload(
            WorkloadParams(
                num_blocks=extra,
                txs_per_block=TXS_PER_BLOCK,
                seed=seed + CONTINUATION_SEED_OFFSET,
            )
        )
        bodies.extend(continuation.bodies[1:])  # bodies[0] is its genesis
    return bodies, dict(base.probe_addresses)


class Chain:
    """The load generator's view of the chain: ranking and ground truth."""

    def __init__(self, seed: int, blocks: int, extra: int) -> None:
        self.seed = seed
        self.blocks = blocks
        self.extra = extra
        self.config = system_config(blocks)
        self.bodies, self.probes = chain_bodies(seed, blocks, extra)
        #: address -> (heights, txids), chain order: what any verified
        #: answer must reproduce (``workload.history_of`` as an index).
        self._truth: "Dict[str, Tuple[List[int], List[bytes]]]" = {}
        counts: Dict[str, int] = {}
        for height, transactions in enumerate(self.bodies):
            for transaction in transactions:
                txid = transaction.txid()
                for address in transaction.addresses():
                    entry = self._truth.get(address)
                    if entry is None:
                        entry = self._truth[address] = ([], [])
                    entry[0].append(height)
                    entry[1].append(txid)
                    if height <= blocks:
                        counts[address] = counts.get(address, 0) + 1
        #: Base-chain addresses, most appearances first (rank 0 = hottest).
        self.ranked: List[str] = sorted(
            counts, key=lambda address: (-counts[address], address)
        )

    def address_at(self, rank: int) -> str:
        return self.ranked[min(rank, len(self.ranked) - 1)]

    def expected(
        self, address: str, first: int, last: int
    ) -> "List[Tuple[int, bytes]]":
        """Ground truth ``(height, txid)`` pairs of ``address`` in range."""
        entry = self._truth.get(address)
        if entry is None:
            return []
        heights, txids = entry
        low = bisect.bisect_left(heights, first)
        high = bisect.bisect_right(heights, last)
        return list(zip(heights[low:high], txids[low:high]))

    def watch_set(self) -> List[str]:
        """Four hot addresses (pushes carry proofs) and four quiet ones
        (pushes carry Bloom-filter-negative attestations)."""
        return self.ranked[:4] + self.ranked[-4:]


class Op:
    """One client call that must end in a verified result."""

    __slots__ = ("kind", "addresses", "first", "last")

    def __init__(
        self, kind: str, addresses: Sequence[str], first: int = 0, last: int = 0
    ) -> None:
        #: ``query`` (one address), ``batch`` (a wallet) or ``live``
        #: (header sync, then the last blocks at whatever the tip is).
        self.kind = kind
        self.addresses = tuple(addresses)
        self.first = first
        self.last = last


def _log_uniform_ranks(rng: random.Random, low: int, high: int) -> Iterator[int]:
    """Appearance ranks log-uniform over ``[low, high]``, as an evenly
    spread (golden-ratio) sequence from a seeded start: any stretch of a
    run draws the same mix of hot and quiet addresses, which a stretch
    of independent draws would not."""
    point = rng.random()
    span = math.log(high + 1) - math.log(low)
    while True:
        yield min(high, int(math.exp(math.log(low) + point * span)))
        point = (point + 0.6180339887498949) % 1.0


def _rng(chain: Chain, name: str, client: object) -> random.Random:
    return random.Random(f"{chain.seed}/{name}/{client}")


def _distinct_ranges(
    chain: Chain, name: str, client: int, clients: int
) -> "Iterator[Tuple[int, int]]":
    """Wide ``(first, last)`` ranges, no pair repeated across the clients
    of a run — what keeps every response-cache key distinct.  (The 16384
    pairs of the canonical chain outlast any run; only the 64-block smoke
    chain is short enough to come round again.)  Every range covers at
    least three quarters of the chain, so its width moves an op's cost
    by a third at most."""
    span = chain.blocks // 8
    order = list(range(span * span))
    _rng(chain, name, "ranges").shuffle(order)
    for index in itertools.cycle(order[client::clients]):
        yield 1 + index % span, chain.blocks - index // span


def _distinct_windows(
    chain: Chain, name: str, client: int, clients: int
) -> "Iterator[Tuple[int, int]]":
    """Quarter-chain windows at distinct offsets and lengths — cheaper
    ranges than :func:`_distinct_ranges`, equally never repeated."""
    quarter, lengths = chain.blocks // 4, chain.blocks // 16
    order = list(range((chain.blocks - quarter) * lengths))
    _rng(chain, name, "ranges").shuffle(order)
    for index in itertools.cycle(order[client::clients]):
        first = 1 + index // lengths
        yield first, first + quarter - 1 - index % lengths


class Workload:
    """Name, loop shape and request stream of one workload."""

    name = ""
    why = ""
    #: Client threads in the closed loop (capped by the harness at nproc).
    clients = 2
    #: ``ConnectionPool`` codec: the request is sent compressed and the
    #: server mirrors the codec on the response.
    codec: "str | None" = None
    #: True when appends, a poller and a watcher run during the timed part.
    live = False
    #: Ops per client executed before timing starts: the one stretch of
    #: a run with a fixed op count, so it fills the caches and is what
    #: ``wire_bytes_per_op`` is counted over; its timings are discarded.
    prefix = 0
    #: One accepted frame in this many is kept (as a digest) and compared
    #: with the oracle's own bytes; sized so the pass takes about a second.
    oracle_stride = 16

    def ops(self, chain: Chain, client: int, clients: int) -> Iterator[Op]:
        raise NotImplementedError


class PollRecent(Workload):
    name = "poll_recent"
    why = (
        "768 keys fit the 1024-entry response cache: per-message cost of "
        "socket, loop, admission, scheduler, worker and Future; prover idle"
    )
    oracle_stride = 64
    _RANGES = (1, 4, 16)
    _RANKS = range(7, 263)

    @property
    def prefix(self) -> int:  # every key once, split over two clients
        return len(self._RANKS) * len(self._RANGES) // 2

    def ops(self, chain: Chain, client: int, clients: int) -> Iterator[Op]:
        tip = chain.blocks
        keys = [
            (chain.address_at(rank), tip - recent + 1)
            for rank in self._RANKS
            for recent in self._RANGES
        ]
        for address, first in keys[client::clients]:
            yield Op("query", [address], first, tip)
        ranks = _log_uniform_ranks(
            _rng(chain, self.name, client), self._RANKS[0], self._RANKS[-1]
        )
        for turn, rank in enumerate(ranks):
            recent = self._RANGES[turn % len(self._RANGES)]
            yield Op("query", [chain.address_at(rank)], tip - recent + 1, tip)


class HistoryCold(Workload):
    name = "history_cold"
    why = (
        "every (address, range) key distinct, response cache always "
        "misses: index, BMT descent, SMT, encode, decode and verify dominate"
    )
    prefix = 128
    oracle_stride = 32

    def ops(self, chain: Chain, client: int, clients: int) -> Iterator[Op]:
        ranks = _log_uniform_ranks(_rng(chain, self.name, client), 8, 4096)
        probes = [chain.probes[name] for name in sorted(chain.probes)]
        for turn, (first, last) in enumerate(
            _distinct_ranges(chain, self.name, client, clients)
        ):
            if turn % 2 == 0:
                address = probes[(turn // 2) % len(probes)]
            else:
                address = chain.address_at(next(ranks))
            yield Op("query", [address], first, last)


class WalletBatch(Workload):
    name = "wallet_batch"
    why = (
        "zlib-framed aggregated batches for 8-address wallets: the only "
        "path through aggregate.py and compress_frame; server-CPU-bound"
    )
    codec = "zlib"
    prefix = 16  # every wallet once, split over two clients
    _WALLETS = 32

    #: One address per stratum of appearance rank, so every wallet costs
    #: about the same and the mix does not depend on the seed's luck.
    _STRATA = ((16, 32), (32, 64), (64, 128), (128, 512), (512, 2048), (2048, 4096))

    def ops(self, chain: Chain, client: int, clients: int) -> Iterator[Op]:
        rng = _rng(chain, self.name, "wallets")
        probes = [chain.probes[name] for name in sorted(chain.probes)]
        light, heavy = probes[:3], probes[3:]
        wallets = []
        for number in range(self._WALLETS):
            wallet = dict.fromkeys((heavy[number % 3], light[number // 3 % 3]))
            for low, high in self._STRATA:
                before = len(wallet)
                while len(wallet) == before:
                    wallet.setdefault(chain.address_at(rng.randrange(low, high)))
            wallets.append(list(wallet))
        for turn, (first, last) in enumerate(
            _distinct_windows(chain, self.name, client, clients)
        ):
            wallet = wallets[(turn * clients + client) % self._WALLETS]
            yield Op("batch", wallet, first, last)


class LiveChain(Workload):
    name = "live_chain"
    why = (
        "open-loop appends beside a closed-loop poller and a watcher: write "
        "lock, push fan-out and tip-keyed cache drops; reads cold after each"
    )
    clients = 1
    live = True
    prefix = 256
    #: Blocks the poller asks about, counted back from its synced tip.
    RECENT = 16

    def ops(self, chain: Chain, client: int, clients: int) -> Iterator[Op]:
        ranks = _log_uniform_ranks(_rng(chain, self.name, client), 7, 262)
        # The prefix, over which bytes are counted, asks the poller's
        # question at every 16-block window of the chain in turn: the 16
        # blocks under one tip differ by 8 % in proof size from seed to
        # seed, the chain as a whole by under 3 %.
        windows = chain.blocks // self.RECENT
        for turn in range(self.prefix):
            last = chain.blocks - self.RECENT * (turn % windows)
            address = chain.address_at(next(ranks))
            yield Op("query", [address], last - self.RECENT + 1, last)
        for rank in ranks:
            yield Op("live", [chain.address_at(rank)])


WORKLOADS: "Dict[str, Workload]" = {
    workload.name: workload
    for workload in (PollRecent(), HistoryCold(), WalletBatch(), LiveChain())
}
