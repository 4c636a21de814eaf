"""The light node: headers only, trusts nothing it did not verify (§II).

A :class:`LightNode` holds the header list and the chain's
:class:`SystemConfig`.  Each request — header sync, reorg sync, a query,
a batch — is one round trip through :meth:`LightNode._exchange` over the
byte-counting transport; the node then decodes the answer and runs the
full §V verification before it exposes transactions or Equation-1
balances.  A malicious full node makes a query raise — it can never make
it return a wrong history (that is the security claim the tests attack).
A light node talks to one full node per call: failover, retries and bans
across peers belong to :class:`~repro.node.session.QuerySession`.

Every answer it verifies goes through one :class:`VerifierMemo`, so the
node hashes a BMT node once however many answers pass through it, and
decodes and verifies a block-level resolution once however often the
same evidence comes back.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.chain.block import BlockHeader
from repro.chain.blockchain import header_storage_bytes
from repro.errors import (
    ChainError,
    QueryError,
    StaleChainError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.messages import (
    AggregatedBatchRequest,
    AggregatedBatchResponse,
    BatchQueryRequest,
    BatchQueryResponse,
    DeltaHeadersRequest,
    DeltaHeadersResponse,
    HeadersRequest,
    HeadersResponse,
    QueryRequest,
    QueryResponse,
)
from repro.node.transport import InProcessTransport
from repro.query.batch import verify_batch_result
from repro.query.config import SystemConfig
from repro.query.memo import VerifierMemo
from repro.query.verifier import VerifiedHistory, verify_result


def _check_linkage(
    previous: BlockHeader, headers: Sequence[BlockHeader], first_height: int
) -> None:
    """Raise unless each of ``headers`` (the first at ``first_height``)
    links onto the one before it, the first onto ``previous``."""
    previous_id = previous.block_id()
    for height, header in enumerate(headers, start=first_height):
        if header.prev_hash != previous_id:
            raise VerificationError(
                f"header at height {height} does not link onto the chain "
                "below it"
            )
        previous_id = header.block_id()


class LightNode:
    """Header-only client of the verifiable-query protocol."""

    def __init__(
        self, headers: Sequence[BlockHeader], config: SystemConfig
    ) -> None:
        self.headers: List[BlockHeader] = list(headers)
        self.config = config
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

    @staticmethod
    def _exchange(
        handler: Callable[[bytes], bytes],
        request,
        transport: "Optional[InProcessTransport]",
    ) -> bytes:
        """One round trip: ``request``'s frame out through
        ``transport.send_to_server``, ``handler``'s answer back through
        ``transport.send_to_client`` (any object with those two methods;
        ``None`` is a fresh :class:`InProcessTransport`)."""
        if transport is None:
            transport = InProcessTransport()
        return transport.send_to_client(
            handler(transport.send_to_server(request.serialize()))
        )

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
        request_cls = DeltaHeadersRequest if delta else HeadersRequest
        response_cls = DeltaHeadersResponse if delta else HeadersResponse
        from_height = self.tip_height + 1
        response = response_cls.deserialize(
            self._exchange(
                full_node.handle_headers, request_cls(from_height), transport
            ),
            self.config.header_extension_kind,
            self.config.header_bloom_bytes,
        )
        if response.from_height != from_height:
            raise VerificationError(
                f"asked for headers from {from_height}, got "
                f"{response.from_height}"
            )
        _check_linkage(self.headers[-1], response.headers, from_height)
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
        response = QueryResponse.deserialize(
            self._exchange(
                full_node.handle_query,
                QueryRequest(address, first_height, last_height or 0),
                transport,
            ),
            self.config,
            memo=self.memo,
        )
        last = self.tip_height if last_height is None else last_height
        return self.verify(response.result, address, (first_height, last))

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
        try:
            return 0, self.sync_headers(full_node, transport)
        except (VerificationError, QueryError):
            # Divergent chain, or the peer does not even have our heights
            # (it may be on a shorter fork): fall through to comparison.
            pass

        remote = HeadersResponse.deserialize(
            self._exchange(
                full_node.handle_headers, HeadersRequest(0), transport
            ),
            self.config.header_extension_kind,
            self.config.header_bloom_bytes,
        ).headers
        if len(remote) <= len(self.headers):
            raise StaleChainError(
                "peer's divergent chain is not longer than ours; refusing "
                "the reorg"
            )
        if remote[0].block_id() != self.headers[0].block_id():
            raise VerificationError("peer chain has a different genesis")
        _check_linkage(remote[0], remote[1:], 1)

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
        request_cls, response_cls = (
            (AggregatedBatchRequest, AggregatedBatchResponse)
            if aggregated
            else (BatchQueryRequest, BatchQueryResponse)
        )
        response = response_cls.deserialize(
            self._exchange(
                full_node.handle_batch_query,
                request_cls(list(addresses), first_height, last_height or 0),
                transport,
            ),
            self.config,
            memo=self.memo,
        )
        last = self.tip_height if last_height is None else last_height
        return verify_batch_result(
            response.batch,
            self.headers,
            self.config,
            list(addresses),
            (first_height, last),
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


__all__ = ["LightNode", "VerificationError"]
