"""Admission policy for the query server: rate limits, fair scheduling,
and watermark load shedding (DESIGN.md §11).

:class:`~repro.node.server.QueryServer` is the one queue between a
socket and the prover; this module holds the policy pieces it applies,
in admission order, under its one lock:

1. **per-client token buckets** (:class:`RateLimiter`) — each client
   identity (connection peer, or the id a §11 hello frame declared)
   draws from its own bucket; an empty bucket refuses with
   :class:`~repro.errors.RateLimitedError` carrying the exact
   ``retry_after`` at which the bucket refills.  One hot client runs
   out of tokens; everyone else never notices.
2. **watermark load shedding** (:class:`WatermarkShedder`) — queue
   depth is watched against three watermarks and degrades in stages:
   ``shed_batch`` refuses batch-class work, ``shed_low`` refuses
   everything but interactive queries, ``shed_all`` refuses anything
   that would queue (pings are answered inline at the transport and
   never reach admission).  Each transition emits one structured log
   line; hysteresis (exit below ``clear_fraction`` of the entry
   watermark) keeps the state machine from flapping at a boundary.
3. **weighted-fair scheduling** (:class:`FairScheduler`) — admitted
   requests land in per-priority deques drained by deficit-weighted
   round-robin, so a backlog of batch work cannot starve interactive
   queries even below the watermarks.

:func:`classify` maps a frame to its priority class.  None of the
classes here is thread-safe on its own.

Everything refused is refused with a typed
:class:`~repro.errors.BackpressureError` subclass carrying a
``retry_after`` hint — a *benign* signal the client-side health model
treats as "busy, come back", never as malice (PROTOCOL.md §11.4).
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EncodingError, RateLimitedError
from repro.node import messages as _messages

logger = logging.getLogger("repro.node.admission")

# -- priority classes --------------------------------------------------------

#: Latency-sensitive single-address lookups (a wallet's balance check).
PRIO_INTERACTIVE = 0
#: Header sync — cheap, keeps light clients converging.
PRIO_SYNC = 1
#: Multi-address batch queries — throughput work, shed first.
PRIO_BATCH = 2
#: Subscription backfill / historical catch-up range reads: the client
#: already holds a verified prefix and can always retry the pull path.
PRIO_BACKFILL = 3

PRIORITY_NAMES = ("interactive", "sync", "batch", "backfill")

#: Default weighted-fair drain ratio (indexed by priority class).
DEFAULT_WEIGHTS = (8, 4, 2, 1)

#: Classes refused at each shed stage (see WatermarkShedder).
_SHED_BATCH_CLASSES = frozenset({PRIO_BATCH, PRIO_BACKFILL})
_SHED_LOW_CLASSES = frozenset({PRIO_BATCH, PRIO_BACKFILL, PRIO_SYNC})
_SHED_ALL_CLASSES = frozenset(
    {PRIO_INTERACTIVE, PRIO_SYNC, PRIO_BATCH, PRIO_BACKFILL}
)


def classify_query(
    payload: bytes,
) -> "Tuple[int, Optional[_messages.QueryRequest]]":
    """Priority class and decoded request of a single-query frame.

    An open-ended query (``last_height == 0`` — "up to your tip", the
    interactive wallet shape) is interactive, while an explicitly
    bounded historical range is backfill-class — that is the frame a
    subscription gap-heal or a catch-up re-sync sends, and it is always
    retryable against the verified pull path.  A malformed frame is
    interactive, with no request: the worker's handler rejects it, typed.
    """
    try:
        request = _messages.QueryRequest.deserialize(payload)
    except EncodingError:
        return PRIO_INTERACTIVE, None
    return (PRIO_BACKFILL if request.last_height else PRIO_INTERACTIVE), request


def classify(payload: bytes) -> int:
    """Priority class of one request frame (scheduling hint only).

    Tags map directly except single queries (see :func:`classify_query`).
    Misclassification can only move a request between latency classes;
    it never changes what verifies.
    """
    tag = payload[0]
    if tag == _messages.QueryRequest.type_tag:
        return classify_query(payload)[0]
    if tag in (
        _messages.HeadersRequest.type_tag,
        _messages.DeltaHeadersRequest.type_tag,
    ):
        return PRIO_SYNC
    if tag in (
        _messages.BatchQueryRequest.type_tag,
        _messages.AggregatedBatchRequest.type_tag,
    ):
        return PRIO_BATCH
    return PRIO_INTERACTIVE


# -- token buckets -----------------------------------------------------------


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"bucket needs positive rate/burst, got "
                             f"({rate}, {burst})")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def take(self, now: float, cost: float = 1.0) -> Tuple[bool, float]:
        """Try to spend ``cost`` tokens; ``(ok, retry_after_seconds)``."""
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True, 0.0
        return False, (cost - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with a bounded identity table.

    ``rate``/``burst`` apply to every client; the table is an LRU
    bounded at ``max_clients`` so a hostile peer cycling identities
    cannot grow server memory — evicting an idle identity merely hands
    it a fresh (full) bucket next time, which is the conservative
    failure direction for a limiter.  Not thread-safe on its own.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        max_clients: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if max_clients < 1:
            raise ValueError(f"need at least one client slot, {max_clients}")
        self.rate = rate
        self.burst = burst if burst is not None else max(1.0, 2.0 * rate)
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.rejected = 0
        self.evicted_clients = 0

    def check(self, client: str) -> None:
        """Admit or raise :class:`RateLimitedError` for one request."""
        now = self._clock()
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[client] = bucket
            if len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
                self.evicted_clients += 1
        else:
            self._buckets.move_to_end(client)
        ok, retry_after = bucket.take(now)
        if ok:
            return
        self.rejected += 1
        raise RateLimitedError(client, retry_after=retry_after)

    def clients(self) -> int:
        return len(self._buckets)


# -- watermark state machine -------------------------------------------------

STATE_NORMAL = "normal"
STATE_SHED_BATCH = "shed_batch"
STATE_SHED_LOW = "shed_low"
STATE_SHED_ALL = "shed_all"

_STATES = (STATE_NORMAL, STATE_SHED_BATCH, STATE_SHED_LOW, STATE_SHED_ALL)


class WatermarkShedder:
    """Queue-depth watermarks mapped to staged shed states.

    ``watermarks`` are the *entry* depths for ``shed_batch`` /
    ``shed_low`` / ``shed_all`` (strictly increasing).  A state is left
    only once depth falls below ``clear_fraction`` of its entry
    watermark — the hysteresis that keeps a queue oscillating around a
    boundary from emitting a transition per request.  Not thread-safe on
    its own.
    """

    def __init__(
        self,
        watermarks: Tuple[int, int, int],
        *,
        clear_fraction: float = 0.75,
    ) -> None:
        low, high, critical = watermarks
        if not (0 < low < high < critical):
            raise ValueError(
                f"watermarks must be strictly increasing and positive, "
                f"got {watermarks}"
            )
        if not (0.0 < clear_fraction <= 1.0):
            raise ValueError(f"bad clear fraction {clear_fraction}")
        self.watermarks = (low, high, critical)
        self.clear_fraction = clear_fraction
        self.state = STATE_NORMAL
        self.transitions = 0
        #: state name -> requests refused while in it.
        self.shed_by_state: Dict[str, int] = {
            STATE_SHED_BATCH: 0,
            STATE_SHED_LOW: 0,
            STATE_SHED_ALL: 0,
        }

    def _target_state(self, depth: int) -> str:
        low, high, critical = self.watermarks
        # Escalate at the entry watermark; de-escalate only below the
        # clear point of the state being left.
        index = _STATES.index(self.state)
        entry = [low, high, critical]
        up = 0
        for position, mark in enumerate(entry, start=1):
            if depth >= mark:
                up = position
        if up > index:
            return _STATES[up]
        # Possible de-escalation: walk down while depth clears the
        # current state's entry watermark.
        while index > 0 and depth < entry[index - 1] * self.clear_fraction:
            index -= 1
        return _STATES[index]

    def observe(self, depth: int) -> str:
        """Update the state for the current queue depth; returns it."""
        target = self._target_state(depth)
        if target != self.state:
            previous, self.state = self.state, target
            self.transitions += 1
            logger.warning(
                "admission state transition previous=%s state=%s depth=%d "
                "watermarks=%s",
                previous,
                target,
                depth,
                self.watermarks,
            )
        return self.state

    def refuses(self, priority: int) -> bool:
        """Does the *current* state refuse this priority class?"""
        if self.state == STATE_SHED_BATCH:
            return priority in _SHED_BATCH_CLASSES
        if self.state == STATE_SHED_LOW:
            return priority in _SHED_LOW_CLASSES
        if self.state == STATE_SHED_ALL:
            return priority in _SHED_ALL_CLASSES
        return False


# -- weighted-fair queue -----------------------------------------------------


class FairScheduler:
    """Per-class deques drained by deficit-weighted round-robin.

    Each class holds a credit counter; a pop scans classes from the
    current cursor, spending one credit per dequeue, and refills every
    counter from ``weights`` when all non-empty classes are out of
    credit.  Over any busy interval class *i* receives ``weights[i]``
    of every ``sum(weights)`` dequeues — batch backlog can delay an
    interactive query by at most one round, never starve it.  Not
    thread-safe on its own.
    """

    def __init__(self, weights: Sequence[int] = DEFAULT_WEIGHTS) -> None:
        if len(weights) != len(PRIORITY_NAMES) or any(
            weight < 1 for weight in weights
        ):
            raise ValueError(f"need {len(PRIORITY_NAMES)} positive weights, "
                             f"got {weights}")
        self.weights = tuple(int(weight) for weight in weights)
        self._queues: List[deque] = [deque() for _ in PRIORITY_NAMES]
        self._credits: List[int] = list(self.weights)
        self._cursor = 0

    def push(self, priority: int, item: object) -> None:
        self._queues[priority].append(item)

    def depth(self) -> int:
        return sum(len(q) for q in self._queues)

    def depths(self) -> Tuple[int, ...]:
        return tuple(len(q) for q in self._queues)

    def pop(self) -> Optional[Tuple[int, object]]:
        """Next ``(priority, item)`` under weighted fairness, or None."""
        if not any(self._queues):
            return None
        classes = len(self._queues)
        for _refill in range(2):
            for step in range(classes):
                index = (self._cursor + step) % classes
                if self._queues[index] and self._credits[index] > 0:
                    self._credits[index] -= 1
                    self._cursor = index if self._credits[index] else index + 1
                    return index, self._queues[index].popleft()
            # Every non-empty class is out of credit: start a new round.
            self._credits = list(self.weights)
        return None  # pragma: no cover - refill guarantees a pop

    def drain(self) -> List[Tuple[int, object]]:
        """Take everything queued (close-without-drain path)."""
        items: List[Tuple[int, object]] = []
        for priority, queue in enumerate(self._queues):
            while queue:
                items.append((priority, queue.popleft()))
        return items


__all__ = [
    "DEFAULT_WEIGHTS",
    "FairScheduler",
    "PRIO_BACKFILL",
    "PRIO_BATCH",
    "PRIO_INTERACTIVE",
    "PRIO_SYNC",
    "PRIORITY_NAMES",
    "RateLimiter",
    "STATE_NORMAL",
    "STATE_SHED_ALL",
    "STATE_SHED_BATCH",
    "STATE_SHED_LOW",
    "TokenBucket",
    "WatermarkShedder",
    "classify",
    "classify_query",
]
