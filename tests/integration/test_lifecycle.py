"""Integration: a full node-operator lifecycle across process restarts.

Day 0: build a chain, serve a wallet, persist everything to disk.
Day 1 (fresh "process"): reopen the durable chain store and the wallet,
mine more blocks through the store, sync the wallet, verify balances
against ground truth the whole way.  Exercises storage + growth +
wallet + batch verification together.
"""

import pytest

from repro.chain.utxo import balance_from_history
from repro.node.full_node import FullNode
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.storage.durable import DurableStore
from repro.wallet import Wallet
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile


@pytest.fixture(scope="module")
def lifecycle_workload():
    return generate_workload(
        WorkloadParams(
            num_blocks=40,
            txs_per_block=8,
            seed=321,
            probes=[
                ProbeProfile("Hot", 14, 9),
                ProbeProfile("Cold", 2, 2),
            ],
        )
    )


def _expected_balance(workload, address, up_to):
    return balance_from_history(
        address,
        (tx for h, tx in workload.history_of(address) if h <= up_to),
    )


def test_full_lifecycle(lifecycle_workload, tmp_path):
    workload = lifecycle_workload
    config = SystemConfig.lvq(bf_bytes=192, segment_len=16)
    hot = workload.probe_addresses["Hot"]
    cold = workload.probe_addresses["Cold"]

    # --- day 0: run with the first 25 blocks, persist everything --------
    system = build_system(workload.bodies[:26], config)
    full_node = FullNode(system)
    from repro.node.light_node import LightNode

    wallet = Wallet(LightNode.from_full_node(full_node), [hot, cold])
    balances = wallet.refresh(full_node)
    assert balances[hot] == _expected_balance(workload, hot, 25)
    assert balances[cold] == _expected_balance(workload, cold, 25)

    DurableStore.create(tmp_path / "chain", system)
    wallet.save(tmp_path / "wallet")

    # --- day 1: fresh objects from disk ---------------------------------
    store = DurableStore.open(tmp_path / "chain")
    reloaded_node = FullNode(store.system)
    reloaded_wallet = Wallet.load(tmp_path / "wallet")
    assert reloaded_wallet.light_node.tip_height == 25

    # Mine the remaining blocks, each durably committed, and sync.
    for transactions in workload.bodies[26:]:
        store.append_block(transactions)
    replaced, appended = reloaded_wallet.sync(reloaded_node)
    assert replaced == 0
    assert appended == len(workload.bodies) - 26
    assert reloaded_wallet.light_node.tip_height == 40

    assert reloaded_wallet.balance(hot) == _expected_balance(
        workload, hot, 40
    )
    assert reloaded_wallet.balance(cold) == _expected_balance(
        workload, cold, 40
    )

    # The grown-on-disk chain, reopened, matches a from-scratch build.
    fresh = build_system(workload.bodies, config)
    reopened = DurableStore.open(tmp_path / "chain").system
    assert (
        reopened.headers()[-1].block_id() == fresh.headers()[-1].block_id()
    )


def test_lifecycle_on_non_bmt_system(lifecycle_workload, tmp_path):
    """Same lifecycle on the strawman variant (different header layout,
    shared-filter batch path)."""
    workload = lifecycle_workload
    config = SystemConfig.lvq_no_bmt(bf_bytes=96)
    hot = workload.probe_addresses["Hot"]

    system = build_system(workload.bodies[:21], config)
    DurableStore.create(tmp_path / "chain2", system)
    store = DurableStore.open(tmp_path / "chain2")
    store.append_block(workload.bodies[21])
    full_node = FullNode(store.system)

    from repro.node.light_node import LightNode

    wallet = Wallet(LightNode.from_full_node(full_node), [hot])
    wallet.refresh(full_node)
    assert wallet.balance(hot) == _expected_balance(workload, hot, 21)
