"""The paper's contribution: verifiable transaction-history queries.

Four prototype systems (§VII-B) share one code path, differing only in
their :class:`SystemConfig`:

* ``strawman`` — per-block BF hash in the header; the filter plus an Eq-4
  fragment ship with every block's answer;
* ``lvq_no_bmt`` — strawman plus per-block SMTs (count proofs and FPM
  resolution without integral blocks);
* ``lvq_no_smt`` — BMT merging without SMTs (integral blocks whenever a
  leaf check fails);
* ``lvq`` — the full design.

``build_system`` turns workload bodies into a chain with the right
headers and full-node indexes; ``answer_query`` (prover, full-node side)
produces a :class:`QueryResult`; ``verify_result`` (light-node side)
checks correctness *and* completeness against headers only.
"""

from repro.query.cache import (
    LRUCache,
    QueryCaches,
    ResponseCache,
    RWLock,
    SingleFlight,
)
from repro.query.config import SystemConfig, SystemKind, bf_commitment
from repro.query.builder import BuiltSystem, build_system
from repro.query.fragments import (
    BlockResolution,
    ExistenceResolution,
    FpmResolution,
    IntegralBlockResolution,
    PerBlockAnswer,
    SegmentProof,
    TxWithBranch,
)
from repro.query.result import QueryResult, SizeBreakdown
from repro.query.index import AddressIndex
from repro.query.prover import answer_query
from repro.query.naive import answer_batch_query_naive, answer_query_naive
from repro.query.verifier import VerifiedHistory, verify_result
from repro.query.batch import (
    BatchQueryResult,
    answer_batch_query,
    verify_batch_result,
)

__all__ = [
    "AddressIndex",
    "answer_query_naive",
    "answer_batch_query_naive",
    "SystemConfig",
    "SystemKind",
    "bf_commitment",
    "BuiltSystem",
    "build_system",
    "LRUCache",
    "QueryCaches",
    "ResponseCache",
    "RWLock",
    "SingleFlight",
    "BlockResolution",
    "ExistenceResolution",
    "FpmResolution",
    "IntegralBlockResolution",
    "PerBlockAnswer",
    "SegmentProof",
    "TxWithBranch",
    "QueryResult",
    "SizeBreakdown",
    "answer_query",
    "VerifiedHistory",
    "verify_result",
    "BatchQueryResult",
    "answer_batch_query",
    "verify_batch_result",
]
