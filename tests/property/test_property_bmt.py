"""Property-based tests for the BMT.

Invariants under ANY block contents and ANY probe item:

* the endpoints of a check partition the covered height range exactly;
* a verified multiproof reports a clean/failed partition that covers the
  range, never marks a block containing the item as clean, and accepts
  only the root it was built from;
* a whole-span image restricted to any range is that range's multiproof,
  byte for byte, with exactly its in-range failed leaves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import BloomFilter, bloom_positions
from repro.merkle import bmt
from repro.merkle.bmt import BmtMultiProof, BmtTree, EndpointKind, SpanImage
from repro.crypto.encoding import ByteReader

SIZE_BITS = 256
K = 3

block_sets = st.lists(
    st.lists(st.binary(min_size=1, max_size=6), max_size=10),
    min_size=1,
    max_size=16,
).filter(lambda blocks: len(blocks) & (len(blocks) - 1) == 0)


def build_tree(blocks, start=1):
    leaves = [
        (start + i, BloomFilter.from_items(items, SIZE_BITS, K))
        for i, items in enumerate(blocks)
    ]
    return BmtTree.build(leaves)


class TestBmtProperties:
    @given(blocks=block_sets, probe=st.binary(min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_endpoints_partition_range(self, blocks, probe):
        tree = build_tree(blocks)
        endpoints = tree.find_endpoints(probe)
        covered = []
        for endpoint in endpoints:
            covered.extend(range(endpoint.node.start, endpoint.node.end + 1))
        assert covered == list(range(1, len(blocks) + 1))

    @given(blocks=block_sets, probe=st.binary(min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_blocks_containing_item_are_failed_leaves(self, blocks, probe):
        tree = build_tree(blocks)
        endpoints = tree.find_endpoints(probe)
        failed = {
            e.node.start
            for e in endpoints
            if e.kind is EndpointKind.LEAF_FAILED
        }
        for offset, items in enumerate(blocks):
            if probe in items:
                assert offset + 1 in failed

    @given(blocks=block_sets, probe=st.binary(min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_multiproof_verifies_and_partitions(self, blocks, probe):
        tree = build_tree(blocks)
        proof = tree.multiproof(probe)
        verified = proof.verify(
            tree.root.hash, probe, 1, len(blocks), SIZE_BITS, K
        )
        clean = [
            h for s, e in verified.clean_ranges for h in range(s, e + 1)
        ]
        assert sorted(clean + verified.failed_heights) == list(
            range(1, len(blocks) + 1)
        )
        # No block that really contains the probe may be declared clean.
        for offset, items in enumerate(blocks):
            if probe in items:
                assert offset + 1 in verified.failed_heights

    @given(blocks=block_sets, probe=st.binary(min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_multiproof_serialization_roundtrip(self, blocks, probe):
        tree = build_tree(blocks)
        proof = tree.multiproof(probe)
        payload = proof.serialize()
        reader = ByteReader(payload)
        restored = BmtMultiProof.deserialize(reader, SIZE_BITS)
        reader.finish()
        assert restored.serialize() == payload
        restored.verify(tree.root.hash, probe, 1, len(blocks), SIZE_BITS, K)

    @given(
        blocks=block_sets.filter(lambda b: len(b) >= 2),
        probe=st.binary(min_size=1, max_size=6),
    )
    @settings(max_examples=40)
    def test_any_block_mutation_changes_root(self, blocks, probe):
        tree = build_tree(blocks)
        mutated = [list(items) for items in blocks]
        mutated[0] = mutated[0] + [b"extra-item"]
        other = build_tree(mutated)
        if other.root.raw != tree.root.raw:
            assert other.root.hash != tree.root.hash

    @given(blocks=block_sets, probe=st.binary(min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_endpoint_count_consistency(self, blocks, probe):
        tree = build_tree(blocks)
        proof = tree.multiproof(probe)
        assert proof.num_endpoints() == len(tree.find_endpoints(probe))
        assert proof.failed_leaf_count() == sum(
            1
            for e in tree.find_endpoints(probe)
            if e.kind is EndpointKind.LEAF_FAILED
        )


class TestSpanImageRestriction:
    @given(data=st.data())
    @settings(max_examples=120)
    def test_restricted_image_is_the_range_multiproof(self, data):
        size = 1 << data.draw(st.integers(0, 6), label="depth")
        blocks = data.draw(
            st.lists(
                st.lists(st.binary(min_size=1, max_size=6), max_size=10),
                min_size=size,
                max_size=size,
            ),
            label="blocks",
        )
        tree = build_tree(blocks)
        known = sorted({item for items in blocks for item in items})
        probe = data.draw(
            st.one_of(st.binary(min_size=1, max_size=6), st.sampled_from(known))
            if known
            else st.binary(min_size=1, max_size=6),
            label="probe",
        )
        first = data.draw(st.integers(1, size), label="first")
        last = data.draw(st.integers(first, size), label="last")
        self._check(tree, probe, size, first, last)
        default_piece = bmt._PIECE
        bmt._PIECE = 3  # runs and subtrees across many piece boundaries
        try:
            self._check(tree, probe, size, first, last)
        finally:
            bmt._PIECE = default_piece

    @staticmethod
    def _check(tree, probe, size, first, last):
        image = SpanImage(tree.root, bloom_positions(probe, K, SIZE_BITS))
        for query_range in {
            (first, last),
            (first, first),
            (1, last),
            (first, size),
            (1, 1),
            (size, size),
            (1, size),
        }:
            raw, failed = image.restrict(*query_range)
            expected = tree.multiproof(probe, query_range=query_range)
            assert raw == expected.serialize()
            low, high = query_range
            assert list(failed) == [
                endpoint.node.start
                for endpoint in tree.find_endpoints(probe)
                if endpoint.kind is EndpointKind.LEAF_FAILED
                and low <= endpoint.node.start <= high
            ]
