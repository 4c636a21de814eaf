"""Unit tests for the Bloom-filter-integrated Merkle Tree (BMT)."""

import pytest

from repro.bloom.filter import BloomFilter
from repro.crypto.encoding import ByteReader
from repro.errors import EncodingError, VerificationError
from repro.merkle.bmt import (
    BmtForest,
    BmtMultiProof,
    BmtTree,
    EndpointKind,
    leaf_hash,
    node_hash,
)

M_BITS = 128
K = 3


def bf_of(items):
    return BloomFilter.from_items(items, M_BITS, K)


def filter_of(node):
    """A built node's filter bytes as a Bloom filter."""
    return BloomFilter.from_bytes(node.raw, K)


def node_offsets(proof):
    """``(offset, tag, hashes, filter)`` per node of the proof's image."""
    offset = 0
    for tag, hashes, bf in proof.nodes():
        yield offset, tag, hashes, bf
        offset += 1 + 32 * len(hashes) + (len(bf) if bf is not None else 0)


def rewritten(proof, offset, value):
    raw = bytearray(proof.serialize())
    raw[offset] = value
    return BmtMultiProof(bytes(raw), proof.bf_bytes)


def make_leaves(start, sets):
    """``sets`` is a list of item lists, one per consecutive height."""
    return [(start + i, bf_of(items)) for i, items in enumerate(sets)]


@pytest.fixture()
def tree8():
    """Eight blocks; ``b"hot"`` appears in blocks 3 and 6 (heights 3,6)."""
    sets = [
        [b"a0", b"a1"],
        [b"b0"],
        [b"hot", b"c0"],
        [b"d0", b"d1", b"d2"],
        [b"e0"],
        [b"hot"],
        [b"f0", b"f1"],
        [b"g0"],
    ]
    return BmtTree.build(make_leaves(1, sets))


class TestConstruction:
    def test_eq2_eq3_node_relations(self, tree8):
        root = tree8.root
        assert filter_of(root) == filter_of(root.left) | filter_of(root.right)
        assert root.hash == node_hash(root.left.hash, root.right.hash, root.raw)
        leaf = root.left.left.left
        assert leaf.layer == 0
        assert leaf.hash == leaf_hash(leaf.raw)

    def test_nodes_hold_the_filter_bytes_a_proof_ships(self, tree8):
        assert len(tree8.root.raw) == M_BITS // 8 == tree8.bf_bytes
        assert tree8.root.left.left.left.raw == bf_of([b"a0", b"a1"]).to_bytes()
        proof = tree8.multiproof(b"hot")
        shipped = [bf for _tag, _hashes, bf in proof.nodes() if bf is not None]
        for _tag, node in tree8.frontier(b"hot"):
            if node.raw in shipped:
                shipped.remove(node.raw)
        assert shipped == []

    def test_ranges(self, tree8):
        assert (tree8.start, tree8.end) == (1, 8)
        assert tree8.root.left.start == 1 and tree8.root.left.end == 4
        assert tree8.depth == 3

    def test_single_leaf_tree(self):
        tree = BmtTree.build(make_leaves(5, [[b"x"]]))
        assert tree.depth == 0
        assert tree.root.hash == leaf_hash(tree.root.raw)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            BmtTree.build(make_leaves(1, [[b"a"], [b"b"], [b"c"]]))

    def test_non_consecutive_heights_rejected(self):
        leaves = [(1, bf_of([b"a"])), (3, bf_of([b"b"]))]
        with pytest.raises(ValueError):
            BmtTree.build(leaves)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BmtTree.build([])

    def test_root_contains_every_block_item(self, tree8):
        for item in (b"a0", b"hot", b"g0"):
            assert item in filter_of(tree8.root)


class TestEndpointDiscovery:
    def test_absent_item_top_endpoint(self):
        """If even the root check succeeds, the root is the one endpoint."""
        tree = BmtTree.build(make_leaves(1, [[b"a"], [b"b"], [b"c"], [b"d"]]))
        endpoints = tree.find_endpoints(b"definitely-absent-item-1")
        if len(endpoints) == 1 and endpoints[0].node is tree.root:
            assert endpoints[0].kind is EndpointKind.CLEAN

    def test_present_item_reaches_its_leaves(self, tree8):
        endpoints = tree8.find_endpoints(b"hot")
        failed = [
            e.node.start for e in endpoints if e.kind is EndpointKind.LEAF_FAILED
        ]
        assert 3 in failed and 6 in failed

    def test_endpoints_partition_the_range(self, tree8):
        for item in (b"hot", b"absent-x", b"a0"):
            endpoints = tree8.find_endpoints(item)
            covered = []
            for endpoint in endpoints:
                covered.extend(
                    range(endpoint.node.start, endpoint.node.end + 1)
                )
            assert covered == list(range(1, 9))

    def test_clean_endpoints_witness_inexistence(self, tree8):
        for endpoint in tree8.find_endpoints(b"hot"):
            if endpoint.kind is EndpointKind.CLEAN:
                assert b"hot" not in filter_of(endpoint.node)


class TestMultiProof:
    def verify(self, tree, proof, item):
        return proof.verify(
            tree.root.hash, item, tree.start, tree.num_leaves, M_BITS, K
        )

    def test_absent_item_verifies(self, tree8):
        item = b"absent-item"
        proof = tree8.multiproof(item)
        verified = self.verify(tree8, proof, item)
        assert verified.failed_heights == []
        covered = sorted(
            height
            for start, end in verified.clean_ranges
            for height in range(start, end + 1)
        )
        assert covered == list(range(1, 9))

    def test_present_item_reports_failed_heights(self, tree8):
        proof = tree8.multiproof(b"hot")
        verified = self.verify(tree8, proof, b"hot")
        assert set(verified.failed_heights) >= {3, 6}
        covered = sorted(
            [h for s, e in verified.clean_ranges for h in range(s, e + 1)]
            + verified.failed_heights
        )
        assert covered == list(range(1, 9))

    def test_endpoint_count_matches_tree(self, tree8):
        proof = tree8.multiproof(b"hot")
        assert proof.num_endpoints() == len(tree8.find_endpoints(b"hot"))
        verified = self.verify(tree8, proof, b"hot")
        assert verified.num_endpoints == proof.num_endpoints()

    def test_wrong_root_rejected(self, tree8):
        proof = tree8.multiproof(b"absent")
        with pytest.raises(VerificationError):
            proof.verify(b"\x00" * 32, b"absent", 1, 8, M_BITS, K)

    def test_wrong_item_rejected(self, tree8):
        """A proof for one item is not a proof for another."""
        proof = tree8.multiproof(b"absent-1")
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot")

    def test_tampered_endpoint_filter_rejected(self, tree8):
        item = b"absent-item"
        proof = tree8.multiproof(item)
        # Clear a set bit somewhere in an endpoint filter.
        for offset, _tag, hashes, bf in node_offsets(proof):
            if bf is not None and any(bf):
                index = next(i for i, byte in enumerate(bf) if byte)
                at = offset + 1 + 32 * len(hashes) + index
                proof = rewritten(proof, at, bf[index] & (bf[index] - 1))
                break
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, item)

    def test_wrong_block_count_rejected(self, tree8):
        # The verifier fixes the tree depth from its own trusted segment
        # computation; a structured proof folded at the wrong depth puts
        # leaf endpoints at non-zero layers and must be rejected.
        proof = tree8.multiproof(b"hot")
        with pytest.raises(VerificationError):
            proof.verify(tree8.root.hash, b"hot", 1, 4, M_BITS, K)
        with pytest.raises(VerificationError):
            proof.verify(tree8.root.hash, b"hot", 1, 16, M_BITS, K)

    def test_non_power_of_two_count_rejected(self, tree8):
        proof = tree8.multiproof(b"absent")
        with pytest.raises(VerificationError):
            proof.verify(tree8.root.hash, b"absent", 1, 6, M_BITS, K)

    def test_failed_leaf_count(self, tree8):
        proof = tree8.multiproof(b"hot")
        assert proof.failed_leaf_count() >= 2

    def test_serialization_roundtrip(self, tree8):
        for item in (b"hot", b"absent-item"):
            proof = tree8.multiproof(item)
            payload = proof.serialize()
            reader = ByteReader(payload)
            restored = BmtMultiProof.deserialize(reader, M_BITS)
            reader.finish()
            assert restored.serialize() == payload
            self.verify(tree8, restored, item)

    def test_size_bytes(self, tree8):
        proof = tree8.multiproof(b"absent")
        assert proof.size_bytes() == len(proof.serialize())

    def test_unknown_tag_rejected(self):
        with pytest.raises(EncodingError):
            BmtMultiProof.deserialize(ByteReader(b"\x09"), M_BITS)

    def test_truncated_rejected(self, tree8):
        payload = tree8.multiproof(b"absent").serialize()
        with pytest.raises(EncodingError):
            reader = ByteReader(payload[:-1])
            BmtMultiProof.deserialize(reader, M_BITS)
            reader.finish()


class TestRestrictedMultiProof:
    """Range-restricted proofs: out-of-range subtrees become stubs."""

    def verify(self, tree, proof, item, query_range):
        return proof.verify(
            tree.root.hash,
            item,
            tree.start,
            tree.num_leaves,
            M_BITS,
            K,
            query_range=query_range,
        )

    def test_restricted_proof_verifies(self, tree8):
        proof = tree8.multiproof(b"hot", query_range=(5, 7))
        verified = self.verify(tree8, proof, b"hot", (5, 7))
        assert 6 in verified.failed_heights  # hot is in block 6
        assert 3 not in verified.failed_heights  # outside the range
        covered = sorted(
            [
                h
                for s, e in verified.clean_ranges
                for h in range(s, e + 1)
                if 5 <= h <= 7
            ]
            + verified.failed_heights
        )
        assert covered == [5, 6, 7]

    def test_stubs_cost_less(self, tree8):
        full = tree8.multiproof(b"hot")
        narrow = tree8.multiproof(b"hot", query_range=(6, 6))
        assert narrow.size_bytes() < full.size_bytes()
        assert narrow.num_stubs() > 0
        assert full.num_stubs() == 0

    def test_restricted_proof_serialization_roundtrip(self, tree8):
        proof = tree8.multiproof(b"hot", query_range=(3, 6))
        payload = proof.serialize()
        reader = ByteReader(payload)
        restored = BmtMultiProof.deserialize(reader, M_BITS)
        reader.finish()
        assert restored.serialize() == payload
        self.verify(tree8, restored, b"hot", (3, 6))

    def test_restricted_proof_rejected_for_wider_range(self, tree8):
        """Stubs intruding into the claimed range must be rejected."""
        proof = tree8.multiproof(b"hot", query_range=(6, 6))
        assert proof.num_stubs() > 0
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot", (1, 8))
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot", (5, 7))

    def test_full_range_proof_rejected_for_narrow_query(self, tree8):
        """Strictness: failed leaves outside the queried range must be
        stubs, so a whole-tree proof is NOT a valid answer to a narrow
        query — the prover must produce the restricted form.  (This keeps
        the failed-heights/resolutions correspondence unambiguous.)"""
        proof = tree8.multiproof(b"hot")
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot", (5, 7))
        # The properly restricted proof, of course, verifies.
        restricted = tree8.multiproof(b"hot", query_range=(5, 7))
        verified = self.verify(tree8, restricted, b"hot", (5, 7))
        assert 6 in verified.failed_heights

    def test_disjoint_range_rejected_at_build(self, tree8):
        with pytest.raises(ValueError):
            tree8.multiproof(b"hot", query_range=(9, 12))
        with pytest.raises(ValueError):
            tree8.multiproof(b"hot", query_range=(5, 3))

    def test_empty_query_range_rejected_at_verify(self, tree8):
        proof = tree8.multiproof(b"hot")
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot", (6, 5))

    def test_stub_hash_is_authenticated(self, tree8):
        """Tampering with an internal stub's hash breaks the root."""
        proof = tree8.multiproof(b"hot", query_range=(5, 8))
        stubs = [
            offset for offset, tag, _h, _bf in node_offsets(proof) if tag == 5
        ]
        if not stubs:
            pytest.skip("no internal stub in this proof shape")
        proof = rewritten(proof, stubs[0] + 1, proof.serialize()[stubs[0] + 1] ^ 1)
        with pytest.raises(VerificationError):
            self.verify(tree8, proof, b"hot", (5, 8))


class TestForest:
    def test_forest_matches_direct_build(self):
        sets = [[f"i{i}".encode()] for i in range(8)]
        forest = BmtForest()
        for height, bf in make_leaves(1, sets):
            forest.add_block(height, bf)
        direct = BmtTree.build(make_leaves(1, sets))
        assert forest.tree(1, 8).root.hash == direct.root.hash

    def test_subtree_reuse(self):
        forest = BmtForest()
        for height, bf in make_leaves(1, [[b"a"], [b"b"], [b"c"], [b"d"]]):
            forest.add_block(height, bf)
        big = forest.tree(1, 4)
        small = forest.tree(1, 2)
        assert big.root.left is small.root  # identical object, not a copy

    def test_duplicate_height_rejected(self):
        forest = BmtForest()
        forest.add_block(1, bf_of([b"a"]))
        with pytest.raises(ValueError):
            forest.add_block(1, bf_of([b"b"]))

    def test_missing_height_rejected(self):
        forest = BmtForest()
        forest.add_block(1, bf_of([b"a"]))
        with pytest.raises(ValueError):
            forest.node(2, 2)

    def test_bad_range_rejected(self):
        forest = BmtForest()
        for height in (1, 2, 3):
            forest.add_block(height, bf_of([b"x"]))
        with pytest.raises(ValueError):
            forest.node(1, 3)  # 3 blocks: not a power of two
