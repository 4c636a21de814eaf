"""What a full node encodes to answer again, gated in tier 1.

The prover stores what it ships (DESIGN.md §8): each ``(address,
height)`` resolution is memoized once as its wire bytes, and every BMT
node holds its filter as the bytes a multiproof carries.  So once an
answer's resolutions are warm, answering and serializing again — the
same query, or a narrower range over the same blocks — re-encodes no
transaction, no Merkle or SMT branch and no filter.  This counts those
encoders while a second answer is produced and fails if any runs, so a
change that brings the per-answer re-encode back fails here, with no
harness to run.  Likewise a range whose spans' whole-span images are
memoized is sliced from them and checks no Bloom filter at all.
"""

import pytest

from repro.bloom.bitarray import BitArray
from repro.chain.transaction import Transaction
from repro.merkle import bmt
from repro.merkle.sorted_tree import SmtBranch
from repro.merkle.tree import MerkleBranch
from repro.node.messages import AggregatedBatchResponse, QueryResponse
from repro.query.batch import answer_batch_query
from repro.query.prover import answer_query

ENCODERS = (
    (Transaction, "serialize"),
    (MerkleBranch, "serialize"),
    (SmtBranch, "serialize"),
    (BitArray, "to_bytes"),
)


@pytest.fixture()
def encodes(monkeypatch):
    """Calls of each encoder in :data:`ENCODERS`; ``take()`` returns the
    counts so far and starts them again."""
    calls = {}
    for cls, name in ENCODERS:
        key = f"{cls.__name__}.{name}"
        calls[key] = 0

        def counting(self, *args, _real=getattr(cls, name), _key=key):
            calls[_key] += 1
            return _real(self, *args)

        monkeypatch.setattr(cls, name, counting)

    def take():
        counts = dict(calls)
        calls.update((key, 0) for key in calls)
        return counts

    return take


def _answer_bytes(system, address, first, last):
    result = answer_query(system, address, first, last)
    return QueryResponse(result).serialize(system.config)


@pytest.mark.parametrize("name", ["lvq_system", "lvq_no_smt_system"])
def test_second_answer_over_warm_keys_encodes_nothing(
    request, name, probe_addresses, encodes
):
    system = request.getfixturevalue(name)
    system.clear_query_caches()
    tip = system.tip_height
    spans = [(1, tip), (3, tip - 5)]  # the narrower one is sliced from the memo
    cold = {}
    for address in probe_addresses.values():
        for first, last in spans:
            cold[address, first, last] = _answer_bytes(system, address, first, last)
    assert sum(encodes().values()) > 0
    for (address, first, last), frame in cold.items():
        assert _answer_bytes(system, address, first, last) == frame
    warm = encodes()
    assert warm == dict.fromkeys(warm, 0)


def test_second_aggregated_batch_encodes_nothing(
    lvq_system, probe_addresses, encodes
):
    config = lvq_system.config
    addresses = list(probe_addresses.values())

    def frame():
        batch = answer_batch_query(lvq_system, addresses)
        return AggregatedBatchResponse(batch).serialize(config)

    lvq_system.clear_query_caches()
    first = frame()
    assert sum(encodes().values()) > 0
    assert frame() == first
    warm = encodes()
    assert warm == dict.fromkeys(warm, 0)


@pytest.mark.parametrize("name", ["strawman_system", "lvq_no_bmt_system"])
def test_per_block_kinds_encode_no_resolution_twice(
    request, name, probe_addresses, encodes
):
    """The non-BMT kinds share the memo; their shipped per-block filters
    are still written from the chain's filter objects."""
    system = request.getfixturevalue(name)
    system.clear_query_caches()
    address = probe_addresses["Addr6"]
    first = _answer_bytes(system, address, 1, system.tip_height)
    assert encodes()["Transaction.serialize"] > 0
    assert _answer_bytes(system, address, 1, system.tip_height) == first
    warm = encodes()
    del warm["BitArray.to_bytes"]
    assert warm == dict.fromkeys(warm, 0)


@pytest.mark.parametrize("name", ["lvq_system", "lvq_no_smt_system"])
def test_segment_memo_hit_checks_no_filter(
    request, name, probe_addresses, monkeypatch
):
    system = request.getfixturevalue(name)
    system.clear_query_caches()
    tip = system.tip_height
    for address in probe_addresses.values():
        answer_query(system, address, 2, tip - 1)  # files every span
    checks = 0
    real = bmt._check_fails

    def counting(raw, probes):
        nonlocal checks
        checks += 1
        return real(raw, probes)

    monkeypatch.setattr(bmt, "_check_fails", counting)
    misses = system.caches.stats()["segments"]["misses"]
    for address in probe_addresses.values():
        for first, last in [(1, tip), (5, 20), (tip - 3, tip), (7, 7)]:
            _answer_bytes(system, address, first, last)
    assert system.caches.stats()["segments"]["misses"] == misses
    assert checks == 0
    system.clear_query_caches()
    _answer_bytes(system, probe_addresses["Addr6"], 5, 20)
    assert checks > 0  # a miss descends, through the counted check
