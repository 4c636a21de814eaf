"""A concurrent query-serving front end over :class:`FullNode`.

:class:`QueryServer` is the one queue between a socket and the prover:
a fixed pool of worker threads draining an admission-controlled,
weighted-fair request queue.  The pieces fit together as

* **admission control** — every submission passes, in order, a
  per-client token bucket (one hot client runs out of budget before it
  can crowd anyone else), watermark load shedding (past 50%/75%/90% of
  the queue bound the server refuses batch → low-priority → everything,
  in stages), and a hard queue bound — each refusal a typed
  :class:`~repro.errors.BackpressureError` with a retry-after hint, so
  an overloaded node degrades into fast, honest rejections that a
  resilient client (``QuerySession``) treats as backoff signals.  The
  policy pieces live in :mod:`repro.node.admission`;
* **fair scheduling** — admitted requests drain in deficit-weighted
  round-robin across priority classes (interactive > sync > batch >
  backfill), so a batch backlog delays an interactive query by at most
  one scheduling round instead of a full FIFO traversal;
* **one lock** — one :class:`threading.Condition` guards the queue, the
  admission policy, every counter and the latency window.  A submission
  takes it once; a worker takes it to pop and again when done, and runs
  the node's handler outside it (the handlers take the system's read
  lock, ``append_block`` the write lock);
* **inline hits** — a single query that passed admission and whose
  answer is already in the node's response cache
  (:meth:`~repro.node.full_node.FullNode.cached_response`) is answered
  on the submitting thread with an already-resolved Future: it is
  admitted and completed in its class, but never queued and never
  wakes a worker.  The frame is decoded once, for both its class and
  the probe.  Batches and header requests always queue;
* **observability** — :meth:`stats` reports one counter per fact, the
  totals derived from them, wait/service/total latency percentiles,
  cache counters and the admission state, as one consistent snapshot
  (exported in Prometheus text form by :mod:`repro.node.metrics`).

The request/response payloads are the exact wire messages of
:mod:`repro.node.messages`; :meth:`submit` dispatches on the type tag,
so a transport can hand every inbound frame to one entry point.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    QueryError,
    RequestShedError,
    ServerOverloadedError,
)
from repro.node import messages as _messages
from repro.node.admission import (
    PRIORITY_NAMES,
    FairScheduler,
    RateLimiter,
    WatermarkShedder,
    classify,
    classify_query,
)
from repro.node.full_node import FullNode

#: Shed refusals log under the admission policy's name, beside its
#: state transitions.
logger = logging.getLogger("repro.node.admission")

#: Message type tag → FullNode handler name.
_DISPATCH = {
    _messages.QueryRequest.type_tag: "handle_query",
    _messages.HeadersRequest.type_tag: "handle_headers",
    _messages.BatchQueryRequest.type_tag: "handle_batch_query",
    _messages.DeltaHeadersRequest.type_tag: "handle_headers",
    _messages.AggregatedBatchRequest.type_tag: "handle_batch_query",
}

#: Connection-scoped tags: NetServer answers them on the connection, and
#: the queue refuses them (see submit).
_SUBSCRIPTION_TAGS = (
    _messages.SubscribeRequest.type_tag,
    _messages.UnsubscribeRequest.type_tag,
)

#: Requests a worker ran that the latency summaries cover.
LATENCY_WINDOW = 8192


class _PendingRequest(Future):
    """A queued request: its frame, when it arrived, and its answer."""

    def __init__(self, payload: bytes) -> None:
        super().__init__()
        self.payload = payload
        self.submitted_at = time.perf_counter()


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(q * n)``) of an
    already-sorted sample; 0.0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def _latency_summary(samples: Sequence[float]) -> "dict[str, float]":
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "count": count,
        "mean_ms": (sum(ordered) / count * 1000.0) if count else 0.0,
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
        "max_ms": (ordered[-1] * 1000.0) if count else 0.0,
    }


class QueryServer:
    """A worker pool serving one :class:`FullNode` to many clients.

    ``max_pending`` bounds the requests queued across all classes.
    ``rate_limit`` (requests/second per client identity, ``None``
    disables) and ``rate_burst`` configure the per-client token
    buckets; ``watermarks`` overrides the staged-shedding entry depths
    (defaults to 50%/75%/90% of ``max_pending``).

    ``retry_after`` hints: a rate-limit refusal reports the exact bucket
    refill time; shed/queue-full refusals report a depth-scaled estimate
    (half the backlog at the observed service rate, clamped to
    ``[0.05s, 5s]``) — honest "come back later", not a promise.
    """

    def __init__(
        self,
        node: FullNode,
        num_workers: int = 4,
        max_pending: int = 64,
        *,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        watermarks: "Optional[Tuple[int, int, int]]" = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        if max_pending < 1:
            raise ValueError(f"queue bound must be >= 1, got {max_pending}")
        self.node = node
        # Only a FullNode has a response cache to probe; a stand-in that
        # wraps one (to observe each handler call) sees every request.
        self._probe = (
            node.cached_response if isinstance(node, FullNode) else None
        )
        self.num_workers = num_workers
        self.max_pending = max_pending
        if watermarks is None:
            low = max(1, int(max_pending * 0.50))
            high = max(low + 1, int(max_pending * 0.75))
            critical = max(high + 1, int(max_pending * 0.90))
            watermarks = (low, high, critical)
        self._shedder = WatermarkShedder(watermarks)
        self._limiter = (
            RateLimiter(rate_limit, rate_burst) if rate_limit else None
        )
        self._scheduler = FairScheduler()

        # Everything below is guarded by this one condition's lock.
        self._cond = threading.Condition(threading.Lock())
        self._closed = False
        self._drainers = 0
        # One counter per fact; stats() derives every total from these.
        classes = len(PRIORITY_NAMES)
        self._admitted = [0] * classes
        self._completed = [0] * classes
        self._shed = [0] * classes
        self._failed = 0
        self._cancelled = 0
        self._queue_full = 0
        self._inline_hits = 0
        self._in_flight = 0
        self._reorgs = 0
        self._peak_queue_depth = 0
        #: Decayed service-rate estimate (req/s) for retry-after hints.
        self._service_rate = 50.0
        #: (total, queue wait, service) seconds per request a worker ran.
        self._latencies: "deque[Tuple[float, float, float]]" = deque(
            maxlen=LATENCY_WINDOW
        )

        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop,
                name=f"query-server-worker-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- client API ----------------------------------------------------------

    def submit(
        self, payload: bytes, client: Optional[str] = None
    ) -> "Future[bytes]":
        """Queue one raw request frame; resolves to the response bytes.

        ``client`` is the submitter's identity for rate limiting (the
        connection peer or hello-declared id; ``None`` bypasses the
        limiter — trusted in-process callers).  Raises, in checking
        order, :class:`QueryError` once closed, then a typed
        :class:`~repro.errors.BackpressureError` subclass when admission
        refuses: :class:`~repro.errors.RateLimitedError` (the client
        spent its budget), :class:`RequestShedError` (the watermark
        state refuses this class), :class:`ServerOverloadedError` (hard
        queue bound).

        A single query whose answer is cached is answered here, after
        all three admission checks: the returned Future is already
        resolved and no worker runs.
        """
        if not payload:
            raise QueryError("empty request payload")
        tag = payload[0]
        if tag not in _DISPATCH:
            if tag in _SUBSCRIPTION_TAGS:
                # Tags 20/22 are connection-scoped: a subscription binds
                # a watch set to one socket's push channel, which a
                # request queue has no notion of.  NetServer handles
                # them before the queue; reaching here means the caller
                # used the in-process submit path.
                raise QueryError(
                    f"request tag {tag} is a subscription message; "
                    f"subscriptions require a push-capable transport "
                    f"(serve the node over NetServer with a "
                    f"SubscriptionRegistry)"
                )
            raise QueryError(f"unknown request tag {tag}")
        if tag == _messages.QueryRequest.type_tag:
            # Decoded once: the class and the cache probe both read it.
            priority, query = classify_query(payload)
        else:
            priority, query = classify(payload), None
        with self._cond:
            if self._closed:
                raise QueryError("query server is closed")
            if self._limiter is not None and client is not None:
                self._limiter.check(client)
            depth = self._scheduler.depth()
            self._shedder.observe(depth)
            if self._shedder.refuses(priority):
                self._refuse_shed(priority, client, depth)
            if depth >= self.max_pending:
                self._queue_full += 1
                raise ServerOverloadedError(
                    depth, self.max_pending,
                    retry_after=self._retry_hint(depth),
                )
            cached = None
            if query is not None and self._probe is not None:
                cached = self._probe(query)
            self._admitted[priority] += 1
            if cached is not None:
                self._completed[priority] += 1
                self._inline_hits += 1
            else:
                request = _PendingRequest(payload)
                self._scheduler.push(priority, request)
                depth += 1
                # Escalate on the post-push depth, so state reflects the
                # queue as it stands rather than lagging one submit behind.
                self._shedder.observe(depth)
                if depth > self._peak_queue_depth:
                    self._peak_queue_depth = depth
                # A drain waits on this condition too: wake everyone then,
                # or the one notify could land on it instead of a worker.
                if self._drainers:
                    self._cond.notify_all()
                else:
                    self._cond.notify()
                return request
        future: "Future[bytes]" = Future()
        future.set_result(cached)
        return future

    def _retry_hint(self, depth: int) -> float:
        estimate = (depth * 0.5 + 1.0) / max(self._service_rate, 1.0)
        return min(max(estimate, 0.05), 5.0)

    def _refuse_shed(
        self, priority: int, client: Optional[str], depth: int
    ) -> None:
        """Count and raise one shed refusal (call under the lock)."""
        state = self._shedder.state
        self._shed[priority] += 1
        self._shedder.shed_by_state[state] += 1
        hint = self._retry_hint(depth)
        logger.info(
            "request shed state=%s class=%s client=%s depth=%d "
            "retry_after=%.3f",
            state,
            PRIORITY_NAMES[priority],
            client,
            depth,
            hint,
        )
        raise RequestShedError(PRIORITY_NAMES[priority], state, retry_after=hint)

    def submit_query(
        self,
        address: str,
        first_height: int = 1,
        last_height: int = 0,
        client: Optional[str] = None,
    ) -> "Future[bytes]":
        """Convenience: build and queue a history-query frame."""
        request = _messages.QueryRequest(address, first_height, last_height)
        return self.submit(request.serialize(), client)

    def query(
        self,
        address: str,
        first_height: int = 1,
        last_height: int = 0,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Blocking single query; returns the serialized response."""
        return self.submit_query(address, first_height, last_height).result(
            timeout
        )

    # -- chain mutation ------------------------------------------------------

    def reorg(self, fork_height: int, new_bodies) -> "tuple[int, int]":
        """Switch the served chain to a fork; returns ``(replaced, appended)``.

        The system's write lock serializes the switch against in-flight
        answers: requests already running finish against the old tip
        (and verify against it — the client re-syncs afterwards), while
        requests dequeued after the switch see only the new fork.  All
        height- and tip-keyed cache entries above the fork are dropped
        before the lock is released.
        """
        result = self.node.reorg(fork_height, new_bodies)
        with self._cond:
            self._reorgs += 1
        return result

    # -- lifecycle -----------------------------------------------------------

    def _idle(self) -> bool:
        return not self._in_flight and not self._scheduler.depth()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has finished.

        Returns ``False`` if ``timeout`` elapsed first.
        """
        with self._cond:
            self._drainers += 1
            try:
                return self._cond.wait_for(self._idle, timeout)
            finally:
                self._drainers -= 1

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; optionally finish the backlog first.

        With ``drain=False`` every queued-but-unstarted request fails
        with :class:`QueryError`; in-flight requests still complete.
        ``timeout`` bounds the whole call: the drain and the worker
        joins share one deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        with self._cond:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.drain(remaining())
        with self._cond:
            failing = []
            for _priority, request in self._scheduler.drain():
                if request.set_running_or_notify_cancel():
                    self._failed += 1
                    failing.append(request)
                else:
                    self._cancelled += 1
            self._cond.notify_all()
        for request in failing:
            request.set_exception(
                QueryError("query server closed before request ran")
            )
        for worker in self._workers:
            worker.join(remaining())

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        cond = self._cond
        while True:
            with cond:
                popped = self._scheduler.pop()
                while popped is None:
                    if self._closed:
                        return
                    cond.wait()
                    popped = self._scheduler.pop()
                # Track de-escalation as the queue drains, so the shed
                # state clears without waiting for a submit.
                self._shedder.observe(self._scheduler.depth())
                self._in_flight += 1
            priority, request = popped
            started_at = time.perf_counter()
            ran = request.set_running_or_notify_cancel()
            if ran:
                try:
                    handler = getattr(self.node, _DISPATCH[request.payload[0]])
                    response = handler(request.payload)
                except BaseException as exc:  # typed errors flow to the caller
                    succeeded = False
                    request.set_exception(exc)
                else:
                    succeeded = True
                    request.set_result(response)
            finished_at = time.perf_counter()
            with cond:
                self._in_flight -= 1
                if not ran:
                    self._cancelled += 1
                else:
                    if succeeded:
                        self._completed[priority] += 1
                    else:
                        self._failed += 1
                    service = finished_at - started_at
                    if service > 0:
                        self._service_rate += 0.05 * (
                            1.0 / service - self._service_rate
                        )
                    waited = started_at - request.submitted_at
                    self._latencies.append((waited + service, waited, service))
                if self._drainers and self._idle():
                    cond.notify_all()

    # -- observability -------------------------------------------------------

    def stats(self) -> "dict[str, object]":
        """Snapshot of counters, latency percentiles and cache state.

        The counters are read under the server's one lock, so a snapshot
        is consistent: ``admitted == completed + failed + cancelled +
        in_flight + queue_depth`` and ``rejected == ratelimited + shed +
        queue_full``.  ``completed`` counts every answered request
        (per class, ``classes.*.completed``); ``inline_hits`` is the part
        of it answered from the response cache at submit time;
        ``cancelled`` counts the requests whose Future was cancelled
        before they ran.  ``submitted`` is ``admitted``.  The latency
        windows cover the requests a worker ran.
        """
        with self._cond:
            admitted = sum(self._admitted)
            shed = sum(self._shed)
            limiter = self._limiter
            ratelimited = limiter.rejected if limiter is not None else 0
            queue_depth = self._scheduler.depth()
            queued = self._scheduler.depths()
            admission: "dict[str, object]" = {
                "state": self._shedder.state,
                "transitions": self._shedder.transitions,
                "watermarks": list(self._shedder.watermarks),
                "max_pending": self.max_pending,
                "queue_depth": queue_depth,
                "admitted": admitted,
                "shed": shed,
                "shed_by_state": dict(self._shedder.shed_by_state),
                "ratelimited": ratelimited,
                "queue_full": self._queue_full,
                "classes": {
                    name: {
                        "admitted": self._admitted[index],
                        "completed": self._completed[index],
                        "shed": self._shed[index],
                        "queued": queued[index],
                    }
                    for index, name in enumerate(PRIORITY_NAMES)
                },
            }
            if limiter is not None:
                admission["rate_limit"] = {
                    "rate": limiter.rate,
                    "burst": limiter.burst,
                    "clients": limiter.clients(),
                    "rejected": ratelimited,
                    "evicted_clients": limiter.evicted_clients,
                }
            report: "dict[str, object]" = {
                "workers": self.num_workers,
                "max_pending": self.max_pending,
                "submitted": admitted,
                "rejected": ratelimited + shed + self._queue_full,
                "completed": sum(self._completed),
                "inline_hits": self._inline_hits,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "reorgs": self._reorgs,
                "in_flight": self._in_flight,
                "queue_depth": queue_depth,
                "peak_queue_depth": self._peak_queue_depth,
            }
            windows = list(zip(*self._latencies)) or [(), (), ()]
        for key, samples in zip(("latency", "queue_wait", "service"), windows):
            report[key] = _latency_summary(samples)
        report["admission"] = admission
        report["caches"] = {
            "responses": self.node.response_cache.stats(),
            **self.node.system.caches.stats(),
        }
        return report
