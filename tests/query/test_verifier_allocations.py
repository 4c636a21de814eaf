"""What a light node builds to verify a BMT answer, gated in tier 1.

A multiproof is verified straight off its wire bytes (DESIGN.md, "Verifier
cost"): each shipped filter is hashed as received and read into one
``int``, and each recomputed parent is an ``int`` OR turned back into
bytes once for its hash.  This decodes and verifies the golden vectors
and fails if any Bloom-filter or bit-array object is constructed on the
way — the per-node round trip the verifier used to make — so a change
that brings it back fails here, with no harness to run.

Across proofs, a light node's memo makes a second verification of the
same answer hash no BMT node at all, and — when the answer was decoded
through the memo too — decode no transaction and fold no Merkle or SMT
branch, for a single query and for an aggregated batch alike; the last
three tests pin that.
"""

import json
import pathlib

import pytest

from repro.bloom.bitarray import BitArray
from repro.bloom.filter import BloomFilter
from repro.chain.transaction import Transaction
from repro.merkle import bmt, sorted_tree, tree
from repro.node.light_node import LightNode
from repro.node.messages import AggregatedBatchResponse, QueryResponse
from repro.query.batch import verify_batch_result
from repro.query.verifier import verify_result

VECTORS = pathlib.Path(__file__).resolve().parents[1] / "vectors"


def _load(name):
    vector = json.loads((VECTORS / f"{name}.json").read_text())
    request = vector["request"]
    return vector, bytes.fromhex(vector["hex"]), (
        request["first_height"],
        request["last_height"],
    )


@pytest.fixture()
def constructed(monkeypatch):
    """Names of the filter classes constructed while the test runs."""
    built = []
    for cls in (BloomFilter, BitArray):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_counting_sees_a_filter_construction(constructed):
    BloomFilter(64, 3)
    assert constructed == ["BloomFilter", "BitArray"]


def test_bmt_query_response_verifies_without_filter_objects(
    lvq_system, constructed
):
    config = lvq_system.config
    headers = lvq_system.headers()
    vector, frame, span = _load("bmt_query_response")
    del constructed[:]
    result = QueryResponse.deserialize(frame, config).result
    verify_result(result, headers, config, vector["request"]["address"], span)
    assert constructed == []


def test_aggregated_batch_verifies_without_filter_objects(
    lvq_system, constructed
):
    config = lvq_system.config
    headers = lvq_system.headers()
    vector, frame, span = _load("aggregated_batch_response")
    del constructed[:]
    batch = AggregatedBatchResponse.deserialize(frame, config).batch
    verify_batch_result(
        batch, headers, config, vector["request"]["addresses"], span
    )
    assert constructed == []


def test_second_verification_on_one_light_node_hashes_no_bmt_node(
    lvq_system, monkeypatch
):
    vector, frame, span = _load("bmt_query_response")
    address = vector["request"]["address"]
    light = LightNode(lvq_system.headers(), lvq_system.config)
    hashed = {"bmt": 0, "smt": 0}
    for module, name in ((bmt, "bmt"), (sorted_tree, "smt")):

        def counting(tag, *chunks, _real=module.tagged_hash, _name=name):
            hashed[_name] += 1
            return _real(tag, *chunks)

        monkeypatch.setattr(module, "tagged_hash", counting)

    def verify_and_count():
        result = QueryResponse.deserialize(frame, lvq_system.config).result
        verified = light.verify(result, address, span)
        counts = dict(hashed)
        hashed.update(bmt=0, smt=0)
        return [tx.txid() for _height, tx in verified.transactions], counts

    first, cold = verify_and_count()
    second, warm = verify_and_count()
    assert second == first
    assert cold["bmt"] > 0 and warm["bmt"] == 0
    # Decoded without the memo, resolutions carry no wire bytes to key
    # on: their SMT branches fold again.
    assert warm["smt"] == cold["smt"] > 0


@pytest.fixture()
def resolution_work(monkeypatch):
    """Calls of ``Transaction.from_bytes``, the Merkle fold's ``sha256d``
    and the SMT fold's ``tagged_hash``; ``take()`` returns the counts so
    far and starts them again."""
    calls = {"from_bytes": 0, "merkle": 0, "smt": 0}
    from_bytes = Transaction.from_bytes.__func__

    def counting_from_bytes(cls, payload):
        calls["from_bytes"] += 1
        return from_bytes(cls, payload)

    monkeypatch.setattr(
        Transaction, "from_bytes", classmethod(counting_from_bytes)
    )
    for module, name, real in (
        (tree, "sha256d", tree.sha256d),
        (sorted_tree, "tagged_hash", sorted_tree.tagged_hash),
    ):

        def counting(*args, _real=real, _key="merkle" if module is tree else "smt"):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)

    def take():
        counts = dict(calls)
        calls.update(from_bytes=0, merkle=0, smt=0)
        return counts

    return take


def test_second_verification_decodes_no_transaction_and_folds_no_branch(
    lvq_system, resolution_work
):
    """Decoded and verified through one light node's memo, the golden
    vector's resolutions come back from the memo the second time: no
    ``Transaction.from_bytes``, no Merkle ``sha256d`` fold, no SMT
    ``tagged_hash`` fold."""
    vector, frame, span = _load("bmt_query_response")
    address = vector["request"]["address"]
    config = lvq_system.config
    light = LightNode(lvq_system.headers(), config)

    def verify_and_count():
        result = QueryResponse.deserialize(frame, config, memo=light.memo).result
        verified = light.verify(result, address, span)
        return [tx.txid() for _height, tx in verified.transactions], (
            resolution_work()
        )

    first, cold = verify_and_count()
    second, warm = verify_and_count()
    assert second == first and first
    assert min(cold.values()) > 0
    assert warm == {"from_bytes": 0, "merkle": 0, "smt": 0}


class _FrameServer:
    """A full node that answers every batch request with one frame."""

    def __init__(self, frame):
        self.frame = frame

    def handle_batch_query(self, _request):
        return self.frame


def test_second_aggregated_batch_decodes_no_transaction_and_folds_no_branch(
    lvq_system, resolution_work
):
    """The same gate for an aggregated batch received by
    ``LightNode.query_batch``: expanded to its plain image, it is decoded
    through the node's memo, so the second time the golden vector's
    resolutions are neither decoded nor folded."""
    vector, frame, span = _load("aggregated_batch_response")
    addresses = vector["request"]["addresses"]
    light = LightNode(lvq_system.headers(), lvq_system.config)
    server = _FrameServer(frame)

    def query_and_count():
        histories = light.query_batch(
            server, addresses, first_height=span[0], last_height=span[1],
            aggregated=True,
        )
        return {
            address: [tx.txid() for _height, tx in histories[address].transactions]
            for address in addresses
        }, resolution_work()

    first, cold = query_and_count()
    second, warm = query_and_count()
    assert second == first and any(first.values())
    assert min(cold.values()) > 0
    assert warm == {"from_bytes": 0, "merkle": 0, "smt": 0}
