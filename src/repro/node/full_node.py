"""The full node: stores complete blocks, serves verifiable queries (§II).

A :class:`FullNode` wraps a :class:`BuiltSystem` (chain plus indexes) and
answers the two RPCs of the protocol: header sync and history queries.
The honest implementation simply delegates to :func:`answer_query`; the
security tests subclass/wrap it with adversarial behaviours from
:mod:`repro.query.adversary`.

Serving-side caching (DESIGN.md §8): each node carries its own
:class:`~repro.query.cache.ResponseCache` of serialized query responses,
keyed ``(address, first_height, requested_last, tip)``, bounded by the
bytes it holds (``response_cache_bytes``) and fronted by
single-flight coalescing — N concurrent identical requests perform one
proof generation and one serialization.  The cache is **per node**, not
per system, because two nodes over one chain may answer differently (the
adversarial test doubles tamper in ``answer``); it registers an append
listener on the system so every new block drops the now-stale tip-keyed
bytes.  For a pooled multi-worker front end, wrap the node in
:class:`repro.node.server.QueryServer`.

:meth:`FullNode.cached_response` is the pool's shortcut: the bytes
``handle_query`` would return for an already-decoded
:class:`~repro.node.messages.QueryRequest`, if they are cached right
now, found without blocking and without building.  The server decodes
the frame once on the submitting thread, classifies it, and calls this
after admission with the same decoded request, so a hit never waits for
a worker and never decodes twice.
"""

from __future__ import annotations

import weakref

from repro.errors import QueryError
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
from repro.query.builder import BuiltSystem
from repro.query.cache import DEFAULT_RESPONSE_CACHE_BYTES, ResponseCache
from repro.query.prover import answer_query
from repro.query.result import QueryResult


class FullNode:
    """Serves headers and verifiable history queries from a built chain."""

    def __init__(
        self,
        system: BuiltSystem,
        response_cache_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES,
    ) -> None:
        self.system = system
        #: Serialized answers for hot (address, range) pairs at the
        #: current tip; dropped whenever the chain grows.
        self.response_cache = ResponseCache(response_cache_bytes)
        #: Only honest answers are cacheable: subclasses that override
        #: ``answer`` (the adversarial doubles, some stochastic) must be
        #: re-invoked on every request so their per-call behaviour —
        #: intermittent attacks, RNG-sequenced tampering — is preserved.
        self._cache_responses = type(self).answer is FullNode.answer
        #: A subclass that overrides ``handle_query`` answers in its own
        #: way, so cached bytes need not be what it would send.
        self._inline_safe = (
            self._cache_responses
            and type(self).handle_query is FullNode.handle_query
        )
        # Register via weakref so short-lived nodes (tests build many
        # per shared system) don't pin their caches in the listener list.
        cache_ref = weakref.ref(self.response_cache)

        def _drop_stale(ref=cache_ref):
            cache = ref()
            if cache is not None:
                cache.invalidate_all()

        def _drop_stale_on_reorg(fork_height: int, ref=cache_ref):
            # Response keys carry the tip height, and an equal-length
            # fork reuses old tip heights for different chains — so a
            # reorg must drop everything, not just keys above the fork.
            cache = ref()
            if cache is not None:
                cache.invalidate_all()

        system.add_append_listener(_drop_stale)
        system.add_reorg_listener(_drop_stale_on_reorg)

    @property
    def tip_height(self) -> int:
        return self.system.tip_height

    # -- local API -----------------------------------------------------------

    def query(
        self,
        address: str,
        first_height: int = 1,
        last_height: "int | None" = None,
    ) -> QueryResult:
        """Full proof-bearing answer for ``address`` (the paper's §V)."""
        return self.answer(address, first_height, last_height)

    def answer(
        self,
        address: str,
        first_height: int = 1,
        last_height: "int | None" = None,
    ) -> QueryResult:
        """Hook point: adversarial full nodes override this one method."""
        return answer_query(self.system, address, first_height, last_height)

    # -- RPC handlers ----------------------------------------------------------

    def handle_query(self, payload: bytes) -> bytes:
        request = QueryRequest.deserialize(payload)
        if not request.address:
            raise QueryError("empty address in query request")
        last = request.last_height if request.last_height else None
        # Key and answer under one read-lock hold, so the tip in the key
        # is exactly the tip the answer is produced against (appends wait
        # for in-flight answers; the nested answer_query read is
        # reentrant).  Identical concurrent misses coalesce into one
        # proof generation via the cache's single-flight front.
        with self.system.lock.read():

            def build() -> bytes:
                return QueryResponse(
                    self.answer(request.address, request.first_height, last)
                ).serialize(self.system.config)

            if not self._cache_responses:
                return build()
            return self.response_cache.get_or_build(
                self._response_key(request), build
            )

    def cached_response(self, request: QueryRequest) -> "bytes | None":
        """What :meth:`handle_query` would return for the frame that
        decoded to ``request``, if it is cached now; ``None`` sends the
        caller down the full path.

        Never blocks: the read lock is only tried, so a writer holding or
        waiting for it (an append, a reorg) makes this a miss rather than
        a wait, and the tip in the key is never one a writer is
        switching.  A hit is counted by the cache, a miss is left for
        ``handle_query`` to count.
        """
        if not self._inline_safe:
            return None
        lock = self.system.lock
        if not lock.try_acquire_read():
            return None
        try:
            return self.response_cache.lookup(self._response_key(request))
        finally:
            lock.release_read()

    def _response_key(self, request: QueryRequest) -> tuple:
        # Call under the read lock: the tip is part of the key.
        return (
            request.address,
            request.first_height,
            request.last_height,
            self.system.tip_height,
        )

    def handle_batch_query(self, payload: bytes) -> bytes:
        # The request tag selects the response encoding: the aggregated
        # tag asks for the blob-table form (§8.1), the plain tag for the
        # PR 5 per-fragment form, kept as the byte-equivalence oracle.
        aggregated = (
            bool(payload) and payload[0] == AggregatedBatchRequest.type_tag
        )
        request_cls = AggregatedBatchRequest if aggregated else BatchQueryRequest
        request = request_cls.deserialize(payload)
        if any(not address for address in request.addresses):
            raise QueryError("empty address in batch query request")
        last = request.last_height if request.last_height else None
        batch = self.answer_batch(request.addresses, request.first_height, last)
        response_cls = AggregatedBatchResponse if aggregated else BatchQueryResponse
        return response_cls(batch).serialize(self.system.config)

    def answer_batch(
        self,
        addresses,
        first_height: int = 1,
        last_height: "int | None" = None,
    ):
        """Hook point for adversarial batch behaviour."""
        from repro.query.batch import answer_batch_query

        return answer_batch_query(
            self.system, addresses, first_height, last_height
        )

    def handle_headers(self, payload: bytes) -> bytes:
        delta = bool(payload) and payload[0] == DeltaHeadersRequest.type_tag
        request_cls = DeltaHeadersRequest if delta else HeadersRequest
        request = request_cls.deserialize(payload)
        response_cls = DeltaHeadersResponse if delta else HeadersResponse
        with self.system.lock.read():
            if request.from_height > self.tip_height + 1:
                raise QueryError(
                    f"no headers from height {request.from_height}; tip is "
                    f"{self.tip_height}"
                )
            # Slice the block range first: O(requested headers), not O(chain).
            response = response_cls(
                request.from_height,
                self.system.chain.headers_from(request.from_height),
            )
        return response.serialize()

    def extend_chain(self, bodies) -> None:
        """Append new blocks (each a transaction list) to the chain."""
        for transactions in bodies:
            self.system.append_block(transactions)

    def rollback_to(self, height: int) -> int:
        """Pop every block above ``height``; returns how many were removed.

        Delegates to :meth:`BuiltSystem.rollback_to`, which takes the
        write lock (in-flight answers finish against the old tip first)
        and fires the reorg listeners that drop this node's response
        cache.
        """
        return self.system.rollback_to(height)

    def reorg(self, fork_height: int, new_bodies) -> "tuple[int, int]":
        """Switch to a fork atomically; returns ``(replaced, appended)``."""
        return self.system.reorg(fork_height, new_bodies)
