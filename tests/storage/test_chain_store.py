"""Tests for light-node header files."""

import pytest

from repro.errors import ChainError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.storage.chain_store import load_headers, save_headers
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile


@pytest.fixture(scope="module")
def small_system():
    workload = generate_workload(
        WorkloadParams(
            num_blocks=16,
            txs_per_block=6,
            seed=5,
            probes=[ProbeProfile("P", 4, 3)],
        )
    )
    system = build_system(
        workload.bodies, SystemConfig.lvq(bf_bytes=160, segment_len=8)
    )
    return workload, system


class TestHeaderFiles:
    def test_roundtrip(self, small_system, tmp_path):
        _workload, system = small_system
        path = tmp_path / "headers.dat"
        save_headers(system.headers(), path)
        loaded = load_headers(path, system.config)
        assert [h.serialize() for h in loaded] == [
            h.serialize() for h in system.headers()
        ]

    def test_light_node_from_file(self, small_system, tmp_path):
        workload, system = small_system
        path = tmp_path / "headers.dat"
        save_headers(system.headers(), path)
        light_node = LightNode(load_headers(path, system.config), system.config)
        full_node = FullNode(system)
        address = workload.probe_addresses["P"]
        history = light_node.query_history(full_node, address)
        assert len(history.transactions) == 4

    def test_unlinked_headers_rejected(self, small_system, tmp_path):
        _workload, system = small_system
        headers = system.headers()
        shuffled = [headers[0], headers[2], headers[1]]
        path = tmp_path / "broken.dat"
        save_headers(shuffled, path)
        with pytest.raises(ChainError):
            load_headers(path, system.config)
