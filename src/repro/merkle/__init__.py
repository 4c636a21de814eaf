"""Authenticated data structures: MT (§II-A), SMT (§III-A), BMT (§III-B)."""

from repro.merkle.tree import MerkleTree, MerkleBranch
from repro.merkle.sorted_tree import (
    SMT_SENTINEL,
    SmtLeaf,
    SmtBranch,
    SmtInexistenceProof,
    SortedMerkleTree,
)
from repro.merkle.bmt import (
    BmtNode,
    BmtTree,
    BmtEndpoint,
    BmtMultiProof,
    EndpointKind,
)

__all__ = [
    "MerkleTree",
    "MerkleBranch",
    "SMT_SENTINEL",
    "SmtLeaf",
    "SmtBranch",
    "SmtInexistenceProof",
    "SortedMerkleTree",
    "BmtNode",
    "BmtTree",
    "BmtEndpoint",
    "BmtMultiProof",
    "EndpointKind",
]
