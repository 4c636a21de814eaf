"""Property tests pinning AddressIndex to brute-force chain scans."""

import pytest

from repro.errors import ChainError
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.index import AddressIndex
from repro.workload.generator import WorkloadParams, generate_workload


def _brute_force_postings(bodies, address):
    return [
        (height, tx_index)
        for height, transactions in enumerate(bodies)
        for tx_index, transaction in enumerate(transactions)
        if transaction.involves(address)
    ]


def _all_addresses(bodies):
    seen = set()
    for transactions in bodies:
        for transaction in transactions:
            seen.update(transaction.addresses())
    return seen


@pytest.mark.parametrize("seed", [7, 99, 2020])
def test_index_agrees_with_involves_scan(seed):
    """Every address's postings equal the brute-force involves() scan."""
    workload = generate_workload(
        WorkloadParams(num_blocks=20, txs_per_block=6, seed=seed)
    )
    index = AddressIndex()
    for height, transactions in enumerate(workload.bodies):
        index.add_block(height, transactions)

    addresses = _all_addresses(workload.bodies)
    assert addresses, "workload produced no addresses"
    for address in addresses:
        truth = _brute_force_postings(workload.bodies, address)
        assert index.occurrences(address) == truth
        truth_heights = sorted({height for height, _ in truth})
        assert index.heights(address) == truth_heights
        for height in truth_heights:
            assert index.tx_indices(address, height) == [
                tx_index for h, tx_index in truth if h == height
            ]

    # An address the chain never saw.
    assert index.occurrences("unseen-address") == []
    assert index.tx_indices("unseen-address", 3) == []
    assert not index.touches_range("unseen-address", 0, 20)


def test_counts_match_block_smt_semantics():
    """count_at equals Block.address_counts — the SMT leaf content."""
    workload = generate_workload(
        WorkloadParams(num_blocks=16, txs_per_block=8, seed=5)
    )
    system = build_system(
        workload.bodies, SystemConfig.lvq(bf_bytes=96, segment_len=8)
    )
    index = system.address_index
    assert index is not None
    for block in system.chain:
        truth = block.address_counts()
        for address, count in truth.items():
            assert index.count_at(address, block.height) == count
            assert index.appearance_counts(address)[block.height] == count


def test_touches_range_bisection():
    workload = generate_workload(
        WorkloadParams(num_blocks=24, txs_per_block=5, seed=11)
    )
    index = AddressIndex()
    for height, transactions in enumerate(workload.bodies):
        index.add_block(height, transactions)
    for address in list(_all_addresses(workload.bodies))[:50]:
        heights = set(index.heights(address))
        for first, last in [(1, 24), (5, 9), (20, 24), (1, 1), (12, 12)]:
            expected = any(first <= h <= last for h in heights)
            assert index.touches_range(address, first, last) == expected


def test_add_block_enforces_height_order():
    index = AddressIndex()
    workload = generate_workload(WorkloadParams(num_blocks=2, seed=1))
    index.add_block(0, workload.bodies[0])
    with pytest.raises(ChainError):
        index.add_block(2, workload.bodies[1])
    with pytest.raises(ChainError):
        index.add_block(0, workload.bodies[0])


def test_forced_short_id_collisions_stay_exact(monkeypatch):
    """With every address colliding on one short id, lookups must still
    be exact — the intern table pins one owner, everyone else overflows."""
    import repro.query.index as index_module

    monkeypatch.setattr(index_module, "short_id", lambda address: 42)
    workload = generate_workload(
        WorkloadParams(num_blocks=20, txs_per_block=6, seed=7)
    )
    index = AddressIndex()
    for height, transactions in enumerate(workload.bodies):
        index.add_block(height, transactions)

    addresses = _all_addresses(workload.bodies)
    for address in addresses:
        assert index.occurrences(address) == _brute_force_postings(
            workload.bodies, address
        )
        assert address in index
    assert index.num_addresses == len(addresses)
    assert set(index.addresses()) == addresses
    assert index.occurrences("never-seen") == []
    assert "never-seen" not in index


def test_collision_rollback_preserves_ownership(monkeypatch):
    """Rolling the owner's postings to zero must not let a collision
    loser capture the short id on re-insert."""
    import repro.query.index as index_module

    monkeypatch.setattr(index_module, "short_id", lambda address: 7)
    workload = generate_workload(
        WorkloadParams(num_blocks=12, txs_per_block=6, seed=3)
    )
    index = AddressIndex()
    for height, transactions in enumerate(workload.bodies):
        index.add_block(height, transactions)
    # Roll everything out, then replay: postings must come back exact.
    index.rollback_to(-1)
    assert index.num_postings == 0
    for height, transactions in enumerate(workload.bodies):
        index.add_block(height, transactions)
    for address in _all_addresses(workload.bodies):
        assert index.occurrences(address) == _brute_force_postings(
            workload.bodies, address
        )


def test_partial_rollback_under_collisions(monkeypatch):
    import repro.query.index as index_module

    monkeypatch.setattr(index_module, "short_id", lambda address: 1)
    workload = generate_workload(
        WorkloadParams(num_blocks=16, txs_per_block=6, seed=9)
    )
    full = AddressIndex()
    for height, transactions in enumerate(workload.bodies):
        full.add_block(height, transactions)
    full.rollback_to(7)
    truth = AddressIndex()
    for height, transactions in enumerate(workload.bodies[:8]):
        truth.add_block(height, transactions)
    assert full.num_postings == truth.num_postings
    for address in _all_addresses(workload.bodies):
        assert full.occurrences(address) == truth.occurrences(address)


def test_tx_index_field_overflow_is_typed():
    from repro.query.index import _TX_MASK, _pack

    assert _pack(3, _TX_MASK) == (3 << 20) | _TX_MASK
    with pytest.raises(ChainError):
        _pack(0, _TX_MASK + 1)


def test_incremental_append_matches_bulk_build(workload):
    """append_block keeps the index identical to a one-shot build."""
    config = SystemConfig.lvq(bf_bytes=96, segment_len=8)
    bulk = build_system(workload.bodies, config)
    grown = build_system(workload.bodies[:-4], config)
    for transactions in workload.bodies[-4:]:
        grown.append_block(transactions)
    assert bulk.address_index.num_postings == grown.address_index.num_postings
    for address in list(_all_addresses(workload.bodies))[:100]:
        assert bulk.address_index.occurrences(
            address
        ) == grown.address_index.occurrences(address)
