"""Property test: on-disk corruption is always detected at open time.

A random bit flip in either file of a :class:`DurableStore` — the
``chain.log`` record log or the ``manifest.json`` checkpoint — must make
``DurableStore.open`` raise, or load the very same chain (a flip in
JSON whitespace, say).  It must never silently load a different chain.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.storage.durable import DurableStore
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

_FILES = ("chain.log", "manifest.json")


@pytest.fixture(scope="module")
def stored_chain(tmp_path_factory):
    workload = generate_workload(
        WorkloadParams(
            num_blocks=8,
            txs_per_block=4,
            seed=21,
            probes=[ProbeProfile("P", 2, 2)],
        )
    )
    system = build_system(
        workload.bodies, SystemConfig.lvq(bf_bytes=96, segment_len=8)
    )
    directory = tmp_path_factory.mktemp("durable-store") / "chain"
    DurableStore.create(directory, system)
    originals = {name: (directory / name).read_bytes() for name in _FILES}
    return system, directory, originals


@given(
    target=st.sampled_from(_FILES),
    position=st.integers(min_value=0, max_value=10_000_000),
    bit=st.integers(min_value=0, max_value=7),
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_flip_detected_or_harmless(stored_chain, target, position, bit):
    system, directory, originals = stored_chain
    raw = bytearray(originals[target])
    raw[position % len(raw)] ^= 1 << bit
    try:
        (directory / target).write_bytes(bytes(raw))
        try:
            loaded = DurableStore.open(directory).system
        except ReproError:
            return  # detected — the required outcome for meaningful flips
        except ValueError:
            return  # a flip that breaks the manifest's text encoding
        assert loaded.headers()[-1].block_id() == (
            system.headers()[-1].block_id()
        )
    finally:
        # open() may truncate a torn tail or re-checkpoint the manifest.
        for name, payload in originals.items():
            (directory / name).write_bytes(payload)
