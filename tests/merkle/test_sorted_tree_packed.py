"""The packed SMT against a list-of-digests reference.

``SortedMerkleTree`` stores each hash level as one ``bytes`` and makes
leaves and branches on demand.  The reference below is the plain form:
one ``SmtLeaf`` object per slot, sentinels included, and one digest
object per node.  Every root and every proof must serialize to the same
bytes from both, at every leaf count where the padding changes shape.
"""

import bisect
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import tagged_hash
from repro.merkle.sorted_tree import (
    _NODE_TAG,
    SmtBranch,
    SmtInexistenceProof,
    SmtLeaf,
    SortedMerkleTree,
)


class ReferenceTree:
    """One object per leaf slot, one list of 32-byte digests per level."""

    def __init__(self, leaves):
        slots = 1
        while slots < len(leaves):
            slots <<= 1
        self.leaves = list(leaves) + [
            SmtLeaf.sentinel() for _ in range(slots - len(leaves))
        ]
        self.addresses = [leaf.address for leaf in self.leaves]
        self.levels = [[leaf.hash() for leaf in self.leaves]]
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            self.levels.append(
                [
                    tagged_hash(_NODE_TAG, below[i], below[i + 1])
                    for i in range(0, len(below), 2)
                ]
            )

    @property
    def root(self):
        return self.levels[-1][0]

    def branch(self, index):
        siblings = []
        position = index
        for level in self.levels[:-1]:
            siblings.append(level[position ^ 1])
            position >>= 1
        return SmtBranch(self.leaves[index], index, siblings)

    def prove_existence(self, address):
        return self.branch(self.addresses.index(address))

    def prove_inexistence(self, address):
        insertion = bisect.bisect_left(self.addresses, address)
        if insertion == 0:
            return SmtInexistenceProof(None, self.branch(0))
        if insertion == len(self.leaves):
            return SmtInexistenceProof(self.branch(insertion - 1), None)
        return SmtInexistenceProof(
            self.branch(insertion - 1), self.branch(insertion)
        )


#: 0, 1, 2, then every 2^k and 2^k + 1 up to 65: full trees (no sentinel),
#: and trees one leaf over (all but one padding slot a sentinel).
FULL_COUNTS = [1 << k for k in range(7)]
LEAF_COUNTS = sorted(
    {0} | {full + extra for full in FULL_COUNTS for extra in (0, 1)}
)

addresses = st.text(
    alphabet=string.digits + string.ascii_letters, min_size=1, max_size=8
)


@st.composite
def populations(draw, sizes=LEAF_COUNTS):
    size = draw(st.sampled_from(sizes))
    members = draw(st.sets(addresses, min_size=size, max_size=size))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=size,
            max_size=size,
        )
    )
    return [SmtLeaf(a, c) for a, c in zip(sorted(members), counts)]


def _absent_probes(leaves, extra):
    """An address in every gap: before the first leaf, between each
    adjacent pair, and after the last (the right edge)."""
    members = [leaf.address for leaf in leaves]
    probes = {"0"} | {address + "0" for address in members} | set(extra)
    return sorted(probes - set(members))


@given(leaves=populations(), extra=st.lists(addresses, max_size=8))
@settings(max_examples=120, deadline=None)
def test_packed_tree_is_byte_identical_to_the_reference(leaves, extra):
    packed = SortedMerkleTree(leaves)
    reference = ReferenceTree(leaves)
    root = reference.root
    assert packed.root == root
    assert packed.num_leaves == len(reference.leaves)
    assert packed.num_real_leaves == len(leaves)
    assert packed.depth == len(reference.levels) - 1

    for index in range(packed.num_leaves):
        assert packed.leaf(index) == reference.leaves[index]
        branch = packed.branch(index)
        assert branch.serialize() == reference.branch(index).serialize()
        assert branch.verify(root)

    for leaf in leaves:
        assert leaf.address in packed
        assert packed.count_of(leaf.address) == leaf.count
        proof = packed.prove_existence(leaf.address)
        expected = reference.prove_existence(leaf.address)
        assert proof.serialize() == expected.serialize()
        assert proof.verify(root)

    for address in _absent_probes(leaves, extra):
        assert address not in packed
        assert packed.count_of(address) == 0
        proof = packed.prove_inexistence(address)
        expected = reference.prove_inexistence(address)
        assert proof.serialize() == expected.serialize()
        proof.verify(root, address)  # raises unless sound


@given(leaves=populations(FULL_COUNTS))
@settings(max_examples=30, deadline=None)
def test_full_tree_right_edge_has_no_sentinel_to_lean_on(leaves):
    """2^k real leaves leave no padding: past the last leaf the proof is
    the predecessor alone, at the all-ones index."""
    packed = SortedMerkleTree(leaves)
    beyond = leaves[-1].address + "z"
    proof = packed.prove_inexistence(beyond)
    assert proof.successor is None
    assert proof.predecessor.leaf == leaves[-1]
    assert proof.predecessor.leaf_index == packed.num_leaves - 1
    expected = ReferenceTree(leaves).prove_inexistence(beyond)
    assert proof.serialize() == expected.serialize()
    proof.verify(packed.root, beyond)
