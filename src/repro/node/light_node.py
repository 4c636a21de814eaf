"""The light node: headers only, trusts nothing it did not verify (§II).

A :class:`LightNode` holds the header list and the chain's
:class:`SystemConfig`.  Its ``query_history`` issues the RPC through the
byte-counting transport, deserializes the response, runs the full §V
verification, and only then exposes transactions and Equation-1 balances.
A malicious full node makes ``query_history`` raise — it can never make
it return a wrong history (that is the security claim the tests attack).

Every answer it verifies goes through one :class:`VerifierMemo`, so the
node hashes a BMT node once however many answers pass through it, and
decodes and verifies a block-level resolution once however often the
same evidence comes back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.chain.block import BlockHeader
from repro.chain.blockchain import header_storage_bytes
from repro.errors import (
    ChainError,
    NoHonestPeerError,
    ReproError,
    StaleChainError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.messages import QueryRequest, QueryResponse
from repro.node.transport import InProcessTransport, TransportStats
from repro.query.config import SystemConfig
from repro.query.memo import VerifierMemo
from repro.query.verifier import VerifiedHistory, verify_result


class MultiPeerReport:
    """Outcome accounting for one :meth:`LightNode.query_history_any` call.

    ``winner`` is the label of the peer whose answer verified (``None``
    when all failed), ``stats`` maps every queried peer's label to the
    :class:`TransportStats` its attempt accumulated, and ``reasons``
    records why each losing peer was rejected.
    """

    __slots__ = ("winner", "stats", "reasons")

    def __init__(self) -> None:
        self.winner: "Optional[str]" = None
        self.stats: "dict[str, TransportStats]" = {}
        self.reasons: "dict[str, Exception]" = {}

    def total_stats(self) -> TransportStats:
        """Bytes across *all* peers — what the client's link really paid."""
        total = TransportStats()
        for stats in self.stats.values():
            total.merge(stats)
        return total

    def __repr__(self) -> str:
        return (
            f"MultiPeerReport(winner={self.winner!r}, "
            f"tried={sorted(self.stats)}, "
            f"total={self.total_stats().total_bytes}B)"
        )


class LightNode:
    """Header-only client of the verifiable-query protocol."""

    def __init__(
        self, headers: Sequence[BlockHeader], config: SystemConfig
    ) -> None:
        self.headers: List[BlockHeader] = list(headers)
        self.config = config
        #: Set by :meth:`query_history_any`: winner + per-peer stats.
        self.last_query_report: "Optional[MultiPeerReport]" = None
        #: BMT hash work and accepted resolutions shared by every answer
        #: this node verifies.
        self.memo = VerifierMemo()

    @classmethod
    def from_full_node(cls, full_node: FullNode) -> "LightNode":
        """Bootstrap by syncing every header from a full node."""
        return cls(full_node.system.headers(), full_node.system.config)

    @property
    def tip_height(self) -> int:
        return len(self.headers) - 1

    def storage_bytes(self) -> int:
        """The Challenge-1 metric: bytes this node must persist."""
        return header_storage_bytes(self.headers)

    def truncate_headers(self, height: int) -> int:
        """Drop every header above ``height``; returns how many fell.

        The client half of a pushed reorg retraction (PROTOCOL.md §10.4):
        the retained prefix [0..height] stays trusted, and the
        replacement branch must re-verify its linkage onto it — either
        frame by frame as push updates arrive or in bulk through
        :meth:`sync_with_reorg`.
        """
        if height < 0:
            raise ChainError(f"cannot truncate below genesis ({height})")
        if height >= self.tip_height:
            return 0
        removed = self.tip_height - height
        del self.headers[height + 1 :]
        self.memo.forget_resolutions()
        return removed

    # -- header sync ---------------------------------------------------------

    def sync_headers(
        self,
        full_node: FullNode,
        transport: "Optional[InProcessTransport]" = None,
        delta: bool = False,
    ) -> int:
        """Fetch headers beyond the local tip, validate linkage, append.

        With ``delta=True`` the server answers with the delta-encoded
        frame (§8.2): prev-hashes are omitted on the wire and re-derived
        here by hashing, so the linkage check below still runs against
        hashes this client computed itself.

        Returns the number of headers accepted.  Raises
        :class:`VerificationError` if the served headers do not link onto
        the local chain — a full node cannot splice in a divergent
        history during sync.
        """
        from repro.node.messages import (
            DeltaHeadersRequest,
            DeltaHeadersResponse,
            HeadersRequest,
            HeadersResponse,
        )

        request_cls = DeltaHeadersRequest if delta else HeadersRequest
        response_cls = DeltaHeadersResponse if delta else HeadersResponse
        if transport is None:
            transport = InProcessTransport()
        from_height = self.tip_height + 1
        request_bytes = transport.send_to_server(
            request_cls(from_height).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_headers(request_bytes)
        )
        response = response_cls.deserialize(
            response_bytes,
            self.config.header_extension_kind,
            self.config.header_bloom_bytes,
        )
        if response.from_height != from_height:
            raise VerificationError(
                f"asked for headers from {from_height}, got "
                f"{response.from_height}"
            )
        previous_id = self.headers[-1].block_id()
        for offset, header in enumerate(response.headers):
            if header.prev_hash != previous_id:
                raise VerificationError(
                    f"header at height {from_height + offset} does not "
                    "link onto the local chain"
                )
            previous_id = header.block_id()
        self.headers.extend(response.headers)
        return len(response.headers)

    # -- querying ----------------------------------------------------------

    def query_history(
        self,
        full_node: FullNode,
        address: str,
        transport: Optional[InProcessTransport] = None,
        first_height: int = 1,
        last_height: Optional[int] = None,
    ) -> VerifiedHistory:
        """Request, receive, and *verify* the history of ``address``.

        ``first_height``/``last_height`` restrict the query to a height
        range (the range-query extension); by default the whole chain is
        covered.  Raises :class:`VerificationError` (or a subclass) if
        the full node's answer is incorrect or incomplete in any way.
        """
        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            QueryRequest(address, first_height, last_height or 0).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_query(request_bytes)
        )
        response = QueryResponse.deserialize(
            response_bytes, self.config, memo=self.memo
        )
        expected_range = (
            first_height,
            last_height if last_height is not None else self.tip_height,
        )
        return self.verify(response.result, address, expected_range)

    def verify(
        self,
        result,
        address: str,
        expected_range: "Optional[Tuple[int, int]]" = None,
    ) -> VerifiedHistory:
        """Verify an already-received result against local headers."""
        return verify_result(
            result,
            self.headers,
            self.config,
            address,
            expected_range,
            memo=self.memo,
        )

    def sync_with_reorg(
        self,
        full_node: FullNode,
        transport: "Optional[InProcessTransport]" = None,
    ) -> "Tuple[int, int]":
        """Sync headers, switching to the peer's fork when it is longer.

        Returns ``(replaced, appended)``.  The adoption rule is
        longest-chain with height as the work proxy (this simulation has
        no proof-of-work; see DESIGN.md).  The peer's chain must share
        our genesis and be internally linked, otherwise nothing changes
        and :class:`VerificationError` is raised.  A peer offering a
        fork *shorter or equal* to ours is refused with
        :class:`StaleChainError` (a benign subclass — lagging, not
        lying; no replacement without more work).
        """
        from repro.errors import QueryError
        from repro.node.messages import HeadersRequest, HeadersResponse

        try:
            return 0, self.sync_headers(full_node, transport)
        except (VerificationError, QueryError):
            # Divergent chain, or the peer does not even have our heights
            # (it may be on a shorter fork): fall through to comparison.
            pass

        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            HeadersRequest(0).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_headers(request_bytes)
        )
        response = HeadersResponse.deserialize(
            response_bytes,
            self.config.header_extension_kind,
            self.config.header_bloom_bytes,
        )
        remote = response.headers
        if len(remote) <= len(self.headers):
            raise StaleChainError(
                "peer's divergent chain is not longer than ours; refusing "
                "the reorg"
            )
        if not remote or remote[0].block_id() != self.headers[0].block_id():
            raise VerificationError("peer chain has a different genesis")
        previous_id = remote[0].block_id()
        for height, header in enumerate(remote[1:], start=1):
            if header.prev_hash != previous_id:
                raise VerificationError(
                    f"peer chain breaks linkage at height {height}"
                )
            previous_id = header.block_id()

        fork_height = 0
        limit = min(len(remote), len(self.headers))
        while (
            fork_height + 1 < limit
            and remote[fork_height + 1].block_id()
            == self.headers[fork_height + 1].block_id()
        ):
            fork_height += 1
        replaced = len(self.headers) - (fork_height + 1)
        appended = len(remote) - (fork_height + 1)
        self.headers = list(remote)
        # Resolutions accepted under the old headers' roots can never
        # match again; drop them rather than let them hold the bound.
        self.memo.forget_resolutions()
        return replaced, appended

    def query_history_any(
        self,
        full_nodes: "Sequence[FullNode]",
        address: str,
        first_height: int = 1,
        last_height: Optional[int] = None,
        transports: "Optional[Sequence[InProcessTransport]]" = None,
        labels: "Optional[Sequence[str]]" = None,
    ) -> VerifiedHistory:
        """Query several peers; accept the first verifiable answer.

        The security model makes this sound with a single honest peer
        among arbitrarily many malicious ones: an answer either verifies
        (and is then the unique complete history — two verifiable answers
        cannot disagree) or is rejected.  Raises
        :class:`NoHonestPeerError` carrying every peer's rejection reason
        when *all* answers fail.

        ``transports`` optionally supplies one transport per peer (e.g.
        fault-injecting wrappers), and ``labels`` names the peers in
        reports and error reasons (default ``peer0..N``).  After every
        call — success or failure — :attr:`last_query_report` holds a
        :class:`MultiPeerReport` with the winning peer's label and the
        per-peer byte accounting, so multi-peer experiments no longer
        lose the losers' traffic.
        """
        if not full_nodes:
            raise VerificationError("no peers to query")
        if transports is not None and len(transports) != len(full_nodes):
            raise VerificationError(
                f"{len(transports)} transports for {len(full_nodes)} peers"
            )
        if labels is not None:
            if len(labels) != len(full_nodes):
                raise VerificationError(
                    f"{len(labels)} labels for {len(full_nodes)} peers"
                )
            if len(set(labels)) != len(labels):
                raise VerificationError("peer labels must be distinct")
        report = MultiPeerReport()
        self.last_query_report = report
        for index, full_node in enumerate(full_nodes):
            label = labels[index] if labels is not None else f"peer{index}"
            transport = (
                transports[index]
                if transports is not None
                else InProcessTransport()
            )
            try:
                history = self.query_history(
                    full_node,
                    address,
                    transport=transport,
                    first_height=first_height,
                    last_height=last_height,
                )
            except ReproError as error:
                report.reasons[label] = error
                report.stats[label] = transport.stats
            else:
                report.winner = label
                report.stats[label] = transport.stats
                return history
        raise NoHonestPeerError(report.reasons)

    def query_batch(
        self,
        full_node: FullNode,
        addresses: "Sequence[str]",
        transport: Optional[InProcessTransport] = None,
        first_height: int = 1,
        last_height: Optional[int] = None,
        aggregated: bool = False,
    ) -> "dict[str, VerifiedHistory]":
        """Request and verify histories for several addresses at once.

        On strawman-family systems the per-block filters ship once for
        the whole batch — the amortization measured by
        ``bench_ablation_batch.py``.  With ``aggregated=True`` the server
        responds in the blob-table encoding (§8.1), expanded back to the
        plain image before decoding.  Either way the batch is decoded
        and verified through this node's memo.
        """
        from repro.node.messages import (
            AggregatedBatchRequest,
            AggregatedBatchResponse,
            BatchQueryRequest,
            BatchQueryResponse,
        )
        from repro.query.batch import verify_batch_result

        request_cls = AggregatedBatchRequest if aggregated else BatchQueryRequest
        response_cls = (
            AggregatedBatchResponse if aggregated else BatchQueryResponse
        )
        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            request_cls(
                list(addresses), first_height, last_height or 0
            ).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_batch_query(request_bytes)
        )
        response = response_cls.deserialize(
            response_bytes, self.config, memo=self.memo
        )
        expected_range = (
            first_height,
            last_height if last_height is not None else self.tip_height,
        )
        return verify_batch_result(
            response.batch,
            self.headers,
            self.config,
            list(addresses),
            expected_range,
            memo=self.memo,
        )

    def query_balance(
        self,
        full_node: FullNode,
        address: str,
        transport: Optional[InProcessTransport] = None,
    ) -> int:
        """Verified Equation-1 balance (the paper's coffee-shop scenario)."""
        return self.query_history(full_node, address, transport).balance()

    def __repr__(self) -> str:
        return (
            f"LightNode(tip={self.tip_height}, "
            f"system={self.config.kind.value})"
        )


__all__ = ["LightNode", "MultiPeerReport", "VerificationError"]
