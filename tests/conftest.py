"""Shared fixtures: one small deterministic chain, built for every system.

Chain construction dominates test runtime, so the workload and the five
built systems are session-scoped; tests must treat them as read-only.
Tests that need special shapes (forced false positives, empty blocks,
odd chain lengths) build their own tiny chains locally.
"""

from __future__ import annotations

import pytest

from repro.analysis.sizing import paper_equivalent_bf_bytes
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.query.builder import build_system
from repro.query.config import SystemConfig, SystemKind
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

#: Chain size used throughout the suite; covering spans exercise both
#: complete segments and a Table-II style partial tail when M < blocks.
NUM_BLOCKS = 48
SEGMENT_LEN = 16

_TEST_PROBES = [
    ProbeProfile("Addr1", 0, 0),
    ProbeProfile("Addr2", 1, 1),
    ProbeProfile("Addr3", 6, 3),
    ProbeProfile("Addr4", 12, 9),
    ProbeProfile("Addr5", 25, 17),
    ProbeProfile("Addr6", 40, 14),
]


@pytest.fixture(scope="session")
def workload():
    params = WorkloadParams(
        num_blocks=NUM_BLOCKS,
        txs_per_block=10,
        seed=42,
        probes=_TEST_PROBES,
    )
    return generate_workload(params)


@pytest.fixture(scope="session")
def benchmark_chain():
    """``(workload, config)`` of the e2e benchmark's chain at an eighth of
    its length: 128 blocks x 40 tx, seed 2020, the fig12 ``lvq`` config.
    Unbuilt — each test builds what it measures or mutates."""
    blocks = 128
    workload = generate_workload(
        WorkloadParams(num_blocks=blocks, txs_per_block=40, seed=2020)
    )
    config = SystemConfig.lvq(
        bf_bytes=paper_equivalent_bf_bytes(30, 96),
        segment_len=blocks,
        num_hashes=3,
    )
    return workload, config


def _config_for(kind: SystemKind) -> SystemConfig:
    if kind is SystemKind.STRAWMAN:
        return SystemConfig.strawman(bf_bytes=96)
    if kind is SystemKind.STRAWMAN_HEADER_BF:
        return SystemConfig.strawman_header_bf(bf_bytes=96)
    if kind is SystemKind.LVQ_NO_BMT:
        return SystemConfig.lvq_no_bmt(bf_bytes=96)
    if kind is SystemKind.LVQ_NO_SMT:
        return SystemConfig.lvq_no_smt(bf_bytes=192, segment_len=SEGMENT_LEN)
    return SystemConfig.lvq(bf_bytes=192, segment_len=SEGMENT_LEN)


@pytest.fixture(scope="session", params=list(SystemKind), ids=lambda k: k.value)
def any_system(request, workload):
    """One built system per SystemKind (parametrized)."""
    return build_system(workload.bodies, _config_for(request.param))


@pytest.fixture(scope="session")
def lvq_system(workload):
    return build_system(workload.bodies, _config_for(SystemKind.LVQ))


@pytest.fixture(scope="session")
def strawman_system(workload):
    return build_system(workload.bodies, _config_for(SystemKind.STRAWMAN))


@pytest.fixture(scope="session")
def lvq_no_bmt_system(workload):
    return build_system(workload.bodies, _config_for(SystemKind.LVQ_NO_BMT))


@pytest.fixture(scope="session")
def lvq_no_smt_system(workload):
    return build_system(workload.bodies, _config_for(SystemKind.LVQ_NO_SMT))


@pytest.fixture()
def lvq_nodes(lvq_system):
    full_node = FullNode(lvq_system)
    return full_node, LightNode.from_full_node(full_node)


@pytest.fixture()
def probe_addresses(workload):
    return workload.probe_addresses
