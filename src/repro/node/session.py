"""The light client's one multi-peer driver: a resilient query session.

A :class:`~repro.node.light_node.LightNode` talks to one full node per
call.  :class:`QuerySession` is the loop around it that LVQ's security
argument assumes (§II, §V): send the request, verify the answer against
the local headers, and move to another peer when it fails — one honest
peer among many suffices.  ``retry=RetryPolicy.no_retries()`` is a single
sweep over the peer list; the default retries through peers that flap,
links that drop, and adversaries mixed in with the honest majority,
keeping the §V guarantee intact: a fault can *deny* an answer (typed
error) but never *deceive* (wrong history).

The session is entirely client-local (no wire change) and adds:

* per-request timeouts on a :class:`~repro.node.transport.SimulatedClock`;
* bounded retries with exponential backoff + seeded jitter;
* one attempt classifier, :meth:`QuerySession._attempt`: a
  *verification* failure (the peer produced decodable bytes whose proof
  is wrong: malice, since an honest peer's answer always verifies) is a
  **permanent ban**; a *transport/decode* failure (crash, drop,
  corruption: consistent with an honest peer behind a bad link) is a
  **decaying penalty**; a backpressure frame is a flat hold-off; a
  :class:`StaleChainError` (a lagging peer) costs nothing;
* failover that re-uses partial progress (header sync keeps whatever
  prefix already validated; the next peer continues from the new tip);
* per-peer byte accounting that keeps the traffic of rejected peers
  (``stats.peers[label].transport``) and names the winner
  (``last_winner``);
* optional graceful degradation: :meth:`QuerySession.query_partial`
  bisects the requested range over the surviving peers and returns a
  :class:`PartialHistory` covering the verified sub-ranges with an
  explicit ``uncovered_ranges`` report;
* reorg awareness: :meth:`QuerySession.sync_with_reorg` follows the
  longest fork across the peer set through the same retry loop as a
  query and, with ``track_queries=True``, re-queries every previously
  answered request whose range the reorg replaced, since those verified
  histories were proven against headers that are no longer canonical.

The *streaming* counterpart lives in :mod:`repro.node.subscribe`:
:class:`~repro.node.subscribe.SubscriptionSession` applies the same
deny-but-never-deceive discipline (and this module's
:class:`RetryPolicy`, rounds and backoff) to server-pushed watch
updates, where the re-query-on-reorg semantics above become pushed
retraction frames.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    MAX_RETRY_AFTER_SECONDS,
    BackpressureError,
    EncodingError,
    NoHonestPeerError,
    PeerQuarantinedError,
    QueryError,
    QueryTimeoutError,
    ReproError,
    RetryExhaustedError,
    SessionTimeoutError,
    StaleChainError,
    TransportError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.transport import (
    InProcessTransport,
    SimulatedClock,
    TransportStats,
)
from repro.query.verifier import VerifiedHistory

TransportFactory = Callable[[], object]


def _exponential(
    base: float, multiplier: float, step: int, cap: float = math.inf
) -> float:
    """``min(base * multiplier**(step-1), cap)`` for a 1-based ``step``:
    the node layer's one exponential backoff.  The exponent is clamped
    at 64, because a float power overflows past ~1025 doublings (a dead
    endpoint fails that often fast) and 2**64 intervals are forever."""
    return min(base * multiplier ** min(step - 1, 64), cap)


class RetryPolicy:
    """Exponential backoff with jitter, in seconds (simulated ones in a
    session, wall-clock ones in a pool or a subscription).

    ``max_rounds`` is the one retry bound: how many times a session
    sweeps the peer list, or how many connects (the first included) a
    :class:`~repro.node.subscribe.SubscriptionSession` makes.  The sleep
    before round *r* is
    ``min(base * multiplier**(r-1), max_delay) * (1 + jitter*U[-1,1])``,
    with the exponent clamped as :func:`_exponential` says.  A
    :class:`~repro.node.netclient.ConnectionPool` paces its reconnects
    with the same formula and never gives up (the session above it
    bounds the retries), so it reads no ``max_rounds``.
    """

    __slots__ = ("max_rounds", "base_delay", "multiplier", "max_delay", "jitter")

    def __init__(
        self,
        max_rounds: int = 3,
        base_delay: float = 0.5,
        multiplier: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.25,
    ) -> None:
        if max_rounds < 1:
            raise ValueError(f"need at least one round, got {max_rounds}")
        # multiplier <= 1e4 keeps the clamped power finite (1e4**64).
        if (
            base_delay < 0
            or max_delay < 0
            or not 1 <= multiplier <= 1e4
            or not 0.0 <= jitter <= 1.0
        ):
            raise ValueError("invalid retry policy parameters")
        self.max_rounds = max_rounds
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter

    def backoff_seconds(self, round_index: int, rng: random.Random) -> float:
        """Sleep before retry round ``round_index`` (1-based)."""
        raw = _exponential(
            self.base_delay, self.multiplier, round_index, self.max_delay
        )
        return max(0.0, raw * (1.0 + self.jitter * rng.uniform(-1.0, 1.0)))

    @classmethod
    def no_retries(cls) -> "RetryPolicy":
        return cls(max_rounds=1)


class PeerStats:
    """Per-peer session accounting, exported by :meth:`SessionStats.as_dict`."""

    __slots__ = (
        "attempts",
        "successes",
        "transport_failures",
        "verification_failures",
        "timeouts",
        "overloads",
        "transport",
    )

    def __init__(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.transport_failures = 0
        self.verification_failures = 0
        self.timeouts = 0
        self.overloads = 0
        self.transport = TransportStats()

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "transport_failures": self.transport_failures,
            "verification_failures": self.verification_failures,
            "timeouts": self.timeouts,
            "overloads": self.overloads,
            **self.transport.as_dict(),
        }


class Peer:
    """A full node plus the session's view of its health.

    ``transport_factory`` builds a fresh transport per attempt (a
    :class:`FaultyTransport` factory puts the link under chaos; its
    shared :class:`FaultSchedule` keeps the script position across
    reconnects).  Health is a score in ``(0, 1]``: transport failures
    halve it and quarantine the peer for an exponentially growing,
    clock-based interval; successes restore it.  A verification failure
    sets :attr:`banned` — permanently.
    """

    __slots__ = (
        "label",
        "node",
        "transport_factory",
        "score",
        "banned",
        "ban_reason",
        "quarantined_until",
        "overloaded_until",
        "consecutive_failures",
        "stats",
    )

    def __init__(
        self,
        label: str,
        node: FullNode,
        transport_factory: Optional[TransportFactory] = None,
    ) -> None:
        self.label = label
        self.node = node
        self.transport_factory = transport_factory or InProcessTransport
        self.score = 1.0
        self.banned = False
        self.ban_reason: Optional[str] = None
        self.quarantined_until = 0.0
        #: Flat hold-off from a §11 backpressure frame — deliberately a
        #: separate field from ``quarantined_until`` so overload never
        #: feeds the quarantine ladder (or the ban logic).
        self.overloaded_until = 0.0
        self.consecutive_failures = 0
        self.stats = PeerStats()

    def make_transport(self):
        return self.transport_factory()

    def available(self, now: float) -> bool:
        return (
            not self.banned
            and now >= self.quarantined_until
            and now >= self.overloaded_until
        )

    def release_at(self) -> float:
        """Earliest clock time this (unbanned) peer becomes usable."""
        return max(self.quarantined_until, self.overloaded_until)

    def quarantine_error(self, now: float) -> PeerQuarantinedError:
        return PeerQuarantinedError(
            self.label,
            permanent=self.banned,
            until_seconds=None if self.banned else self.quarantined_until,
            reason=self.ban_reason,
        )

    def record_success(self) -> None:
        self.stats.attempts += 1
        self.stats.successes += 1
        self.consecutive_failures = 0
        self.score = min(1.0, self.score * 1.5 + 0.1)

    def record_transport_failure(
        self, error: Exception, now: float, quarantine_base: float
    ) -> None:
        self.stats.attempts += 1
        self.stats.transport_failures += 1
        if isinstance(error, QueryTimeoutError):
            self.stats.timeouts += 1
        self.consecutive_failures += 1
        self.score = max(0.01, self.score * 0.5)
        self.quarantined_until = now + _exponential(
            quarantine_base, 2.0, self.consecutive_failures
        )

    def record_overload(
        self, error: BackpressureError, now: float, default_wait: float = 0.05
    ) -> None:
        """An overloaded-but-honest peer said "come back later".

        Overload is traffic, not malice (ISSUE: never quarantine or ban
        for it): the peer is held out flat for the server's retry-after
        hint — no score halving, no consecutive-failure ladder, no
        quarantine, no ban.  ``default_wait`` covers hint-less frames.
        """
        self.stats.attempts += 1
        self.stats.overloads += 1
        wait = error.retry_after if error.retry_after else default_wait
        self.overloaded_until = max(
            self.overloaded_until, now + min(wait, MAX_RETRY_AFTER_SECONDS)
        )

    def record_verification_failure(self, error: Exception) -> None:
        self.stats.attempts += 1
        self.stats.verification_failures += 1
        self.banned = True
        self.ban_reason = f"{type(error).__name__}: {error}"
        self.score = 0.0

    def __repr__(self) -> str:
        state = (
            "banned"
            if self.banned
            else f"score={self.score:.2f} q_until={self.quarantined_until:.2f}"
        )
        return f"Peer({self.label}, {state})"


class SessionStats:
    """Whole-session counters for availability benchmarks."""

    __slots__ = (
        "queries",
        "successes",
        "partials",
        "failures",
        "attempts",
        "retries",
        "backoff_seconds",
        "peers",
    )

    def __init__(self, peers: Sequence[Peer]) -> None:
        self.queries = 0
        self.successes = 0
        self.partials = 0
        self.failures = 0
        self.attempts = 0
        self.retries = 0
        self.backoff_seconds = 0.0
        self.peers = {peer.label: peer.stats for peer in peers}

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "successes": self.successes,
            "partials": self.partials,
            "failures": self.failures,
            "attempts": self.attempts,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "peers": {
                label: stats.as_dict() for label, stats in self.peers.items()
            },
        }


class PartialHistory:
    """Graceful-degradation result: verified coverage of a sub-range.

    Every transaction here passed the full §V verification for its
    sub-range — the degradation is *coverage*, never *trust*.
    ``uncovered_ranges`` lists the height intervals (inclusive) no peer
    could serve verifiably; an empty list means the union of sub-range
    proofs covers the whole request.
    """

    __slots__ = (
        "address",
        "first_height",
        "last_height",
        "transactions",
        "covered_ranges",
        "uncovered_ranges",
    )

    def __init__(
        self,
        address: str,
        first_height: int,
        last_height: int,
        transactions,
        covered_ranges: List[Tuple[int, int]],
        uncovered_ranges: List[Tuple[int, int]],
    ) -> None:
        self.address = address
        self.first_height = first_height
        self.last_height = last_height
        #: ``(height, transaction)`` ascending, from verified sub-proofs.
        self.transactions = transactions
        self.covered_ranges = covered_ranges
        self.uncovered_ranges = uncovered_ranges

    @property
    def is_complete(self) -> bool:
        return not self.uncovered_ranges

    def coverage_fraction(self) -> float:
        total = self.last_height - self.first_height + 1
        covered = sum(hi - lo + 1 for lo, hi in self.covered_ranges)
        return covered / total if total else 1.0

    def partial_balance(self) -> int:
        """Equation-1 balance over the *covered* sub-ranges only."""
        from repro.chain.utxo import balance_from_history

        return balance_from_history(
            self.address, (tx for _height, tx in self.transactions)
        )

    def apply_reorg(self, fork_height: int) -> "PartialHistory":
        """Invalidate everything above ``fork_height`` after a reorg.

        A verified sub-range proof is a statement about the headers it
        was checked against; once the chain above ``fork_height`` has
        been replaced, the suffix of that statement is void.  Coverage
        is clipped to the surviving prefix, transactions proven only by
        replaced blocks are dropped, and ``uncovered_ranges`` is
        recomputed as the exact complement — so the replaced suffix
        shows up as *uncovered*, ready for re-query, rather than as
        silently stale data.  Mutates and returns ``self``.
        """
        clipped = [
            (lo, min(hi, fork_height))
            for lo, hi in self.covered_ranges
            if lo <= fork_height
        ]
        self.covered_ranges = _merge_ranges(clipped)
        self.transactions = [
            (height, tx)
            for height, tx in self.transactions
            if height <= fork_height
        ]
        uncovered: List[Tuple[int, int]] = []
        cursor = self.first_height
        for lo, hi in self.covered_ranges:
            if lo > cursor:
                uncovered.append((cursor, lo - 1))
            cursor = hi + 1
        if cursor <= self.last_height:
            uncovered.append((cursor, self.last_height))
        self.uncovered_ranges = uncovered
        return self

    def __repr__(self) -> str:
        return (
            f"PartialHistory({self.address[:12]}…, "
            f"covered={self.covered_ranges}, "
            f"uncovered={self.uncovered_ranges})"
        )


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class QuerySession:
    """Drives verified queries across N peers until one answer survives.

    The loop: sweep available peers in health order; classify each
    failure (transport → decaying quarantine, verification → permanent
    ban); sleep an exponentially backed-off, jittered interval on the
    simulated clock between sweeps; stop at :class:`RetryExhaustedError`,
    :class:`NoHonestPeerError` (every peer banned — provably none served
    a verifiable answer), or :class:`SessionTimeoutError`.  Success is a
    plain :class:`VerifiedHistory`, identical to the single-peer path —
    resilience changes *when* you get the answer, never *what* verifies.
    """

    def __init__(
        self,
        light_node: LightNode,
        peers: Sequence[Union[Peer, FullNode, Tuple[str, FullNode]]],
        *,
        clock: Optional[SimulatedClock] = None,
        retry: Optional[RetryPolicy] = None,
        request_timeout: Optional[float] = 5.0,
        session_timeout: Optional[float] = None,
        quarantine_base: float = 1.0,
        seed: int = 0,
        track_queries: bool = False,
    ) -> None:
        if not peers:
            raise QueryError("a query session needs at least one peer")
        self.light_node = light_node
        self.clock = clock if clock is not None else SimulatedClock()
        self.retry = retry if retry is not None else RetryPolicy()
        self.request_timeout = request_timeout
        self.session_timeout = session_timeout
        self.quarantine_base = quarantine_base
        self._rng = random.Random(seed)
        self.peers: List[Peer] = [
            self._coerce_peer(peer, index) for index, peer in enumerate(peers)
        ]
        self.stats = SessionStats(self.peers)
        #: Label of the peer that served the last verified answer.
        self.last_winner: Optional[str] = None
        self._last_served: Optional[str] = None
        #: When true, successful ``query()`` calls are remembered so
        #: :meth:`sync_with_reorg` can re-run the ones a reorg stales.
        self.track_queries = track_queries
        # Insertion-ordered set of (address, first_height, last_height).
        self._tracked: "Dict[Tuple[str, int, Optional[int]], None]" = {}
        #: Report of the most recent reorg adopted by
        #: :meth:`sync_with_reorg` (``None`` until one happens).
        self.last_reorg: Optional[Dict[str, object]] = None

    @staticmethod
    def _coerce_peer(peer, index: int) -> Peer:
        if isinstance(peer, Peer):
            return peer
        if isinstance(peer, tuple):
            label, node = peer
            return Peer(label, node)
        return Peer(f"peer{index}", peer)

    # -- internals -------------------------------------------------------------

    def _check_session_deadline(self, started_at: float) -> None:
        if self.session_timeout is None:
            return
        elapsed = self.clock.now() - started_at
        if elapsed > self.session_timeout:
            raise SessionTimeoutError(
                "session deadline exceeded across retries",
                timeout_seconds=self.session_timeout,
                elapsed_seconds=elapsed,
            )

    def _ranked_available(self) -> List[Peer]:
        now = self.clock.now()
        usable = [peer for peer in self.peers if peer.available(now)]
        usable.sort(key=lambda peer: -peer.score)
        return usable

    def _attempt(
        self, peer: Peer, run: Callable[[Peer, object], object]
    ) -> object:
        """One attempt against one peer; classifies and records failures."""
        transport = peer.make_transport()
        if self.request_timeout is not None and hasattr(
            transport, "arm_timeout"
        ):
            transport.arm_timeout(self.request_timeout)
        self.stats.attempts += 1
        try:
            outcome = run(peer, transport)
        except StaleChainError:
            # Lagging, not lying (only a reorg sync raises it): the
            # attempt counts, with no penalty and no ban.
            peer.stats.attempts += 1
            raise
        except VerificationError as error:
            peer.record_verification_failure(error)
            raise
        except BackpressureError as error:
            # The peer is overloaded, not broken and not lying: hold it
            # out for the retry-after hint, no quarantine-ladder step.
            peer.record_overload(error, self.clock.now())
            raise
        except (TransportError, EncodingError, QueryError) as error:
            # Consistent with an honest peer behind a bad link or a
            # crashed service: penalize and retry later, never ban.
            peer.record_transport_failure(
                error, self.clock.now(), self.quarantine_base
            )
            raise
        else:
            peer.record_success()
            self._last_served = peer.label
            return outcome
        finally:
            peer.stats.transport.merge(transport.stats)

    def _sweep_peers(
        self,
        run: Callable[[Peer, object], object],
        reasons: Dict[str, List[Exception]],
        started_at: float,
    ) -> Tuple[bool, object]:
        """One pass over the available peers; ``(served, outcome)``."""
        available = self._ranked_available()
        for peer in available:
            self._check_session_deadline(started_at)
            try:
                return True, self._attempt(peer, run)
            except ReproError as error:
                reasons.setdefault(peer.label, []).append(error)
        return False, None

    def _run_with_retries(
        self, run: Callable[[Peer, object], object], describe: str
    ) -> object:
        started_at = self.clock.now()
        reasons: Dict[str, List[Exception]] = {}
        attempts_before = self.stats.attempts
        for round_index in range(self.retry.max_rounds):
            if round_index > 0:
                pause = self.retry.backoff_seconds(round_index, self._rng)
                self.stats.backoff_seconds += pause
                self.stats.retries += 1
                self.clock.sleep(pause)
            self._check_session_deadline(started_at)
            served, outcome = self._sweep_peers(run, reasons, started_at)
            if served:
                return outcome
            if all(peer.banned for peer in self.peers):
                # Every peer proved itself malicious: the §V-complete
                # "denied but not deceived" terminal state.
                raise NoHonestPeerError(
                    {
                        label: errors[-1]
                        for label, errors in reasons.items()
                        if errors
                    }
                )
            now = self.clock.now()
            if not any(peer.available(now) for peer in self.peers):
                # Everyone usable is quarantined; wait out the earliest
                # release instead of burning a backoff round blind.
                releases = [
                    peer.release_at()
                    for peer in self.peers
                    if not peer.banned
                ]
                if releases:
                    wait = max(0.0, min(releases) - now) + 1e-9
                    self.stats.backoff_seconds += wait
                    self.clock.sleep(wait)
        for peer in self.peers:
            if not peer.available(self.clock.now()):
                reasons.setdefault(peer.label, []).append(
                    peer.quarantine_error(self.clock.now())
                )
        raise RetryExhaustedError(
            describe, self.stats.attempts - attempts_before, reasons
        )

    # -- public API -----------------------------------------------------------

    def query(
        self,
        address: str,
        first_height: int = 1,
        last_height: Optional[int] = None,
    ) -> VerifiedHistory:
        """Verified history of ``address``, surviving faults and liars.

        Sound under the paper's model: the session only ever returns a
        history that passed the full §V verification against the local
        headers, so no composition of faults and attacks can alter *what*
        is returned — only whether a typed error is raised instead.
        """
        self.stats.queries += 1

        def run(peer: Peer, transport) -> VerifiedHistory:
            return self.light_node.query_history(
                peer.node,
                address,
                transport=transport,
                first_height=first_height,
                last_height=last_height,
            )

        try:
            history = self._run_with_retries(run, address)
        except ReproError:
            self.stats.failures += 1
            raise
        self.stats.successes += 1
        self.last_winner = self._last_served
        if self.track_queries:
            self._tracked[(address, first_height, last_height)] = None
        return history

    def query_partial(
        self,
        address: str,
        first_height: int = 1,
        last_height: Optional[int] = None,
        min_span: int = 1,
    ) -> PartialHistory:
        """Graceful degradation: verified coverage of whatever sub-ranges
        the surviving peers can serve.

        Bisects the requested range: a sub-range that no peer serves
        verifiably is split and retried until ``min_span`` heights, below
        which it is reported in ``uncovered_ranges``.  Sub-range answers
        are themselves fully verified (the range-query extension), so the
        merged transactions are trustworthy even when coverage is not
        complete.
        """
        self.stats.queries += 1
        if last_height is None:
            last_height = self.light_node.tip_height
        covered: List[Tuple[int, int]] = []
        uncovered: List[Tuple[int, int]] = []
        transactions: List[Tuple[int, object]] = []

        def attempt_range(lo: int, hi: int) -> None:
            def run(peer: Peer, transport):
                return self.light_node.query_history(
                    peer.node,
                    address,
                    transport=transport,
                    first_height=lo,
                    last_height=hi,
                )

            try:
                history = self._run_with_retries(run, f"{address}[{lo},{hi}]")
            except SessionTimeoutError:
                raise
            except ReproError:
                if all(peer.banned for peer in self.peers):
                    # No peer left to split against; report and stop.
                    uncovered.append((lo, hi))
                    return
                if hi - lo + 1 <= max(1, min_span):
                    uncovered.append((lo, hi))
                    return
                mid = (lo + hi) // 2
                attempt_range(lo, mid)
                attempt_range(mid + 1, hi)
            else:
                covered.append((lo, hi))
                transactions.extend(history.transactions)

        attempt_range(first_height, last_height)
        transactions.sort(key=lambda pair: pair[0])
        result = PartialHistory(
            address,
            first_height,
            last_height,
            transactions,
            _merge_ranges(covered),
            _merge_ranges(uncovered),
        )
        if result.is_complete:
            self.stats.successes += 1
            self.last_winner = self._last_served
        else:
            self.stats.partials += 1
        return result

    def sync_headers(self, target_height: Optional[int] = None) -> int:
        """Header sync with failover that re-uses partial progress.

        Each peer attempt appends whatever validated prefix it manages;
        a later peer continues from the advanced tip rather than from
        scratch.  Returns headers accepted in total.  Raises
        :class:`RetryExhaustedError` if the tip never reaches
        ``target_height`` (default: the highest peer tip).
        """
        if target_height is None:
            target_height = max(peer.node.tip_height for peer in self.peers)
        accepted_total = 0
        started_at = self.clock.now()
        reasons: Dict[str, List[Exception]] = {}
        attempts_before = self.stats.attempts
        for round_index in range(self.retry.max_rounds):
            if self.light_node.tip_height >= target_height:
                return accepted_total
            if round_index > 0:
                pause = self.retry.backoff_seconds(round_index, self._rng)
                self.stats.backoff_seconds += pause
                self.stats.retries += 1
                self.clock.sleep(pause)
            for peer in self._ranked_available():
                if self.light_node.tip_height >= target_height:
                    return accepted_total
                self._check_session_deadline(started_at)

                def run(peer: Peer, transport) -> int:
                    return self.light_node.sync_headers(peer.node, transport)

                try:
                    accepted_total += self._attempt(peer, run)
                except ReproError as error:
                    reasons.setdefault(peer.label, []).append(error)
        if self.light_node.tip_height >= target_height:
            return accepted_total
        raise RetryExhaustedError(
            f"header sync to {target_height}",
            self.stats.attempts - attempts_before,
            reasons,
        )

    def sync_with_reorg(self) -> Tuple[int, int]:
        """Reorg-aware header sync across the peer set.

        Runs the same retry loop as :meth:`query` and adopts the first
        chain that extends or verifiably out-lengthens ours; returns
        ``(replaced, appended)`` from the winning peer.  The attempt
        classifier treats :class:`StaleChainError` — the peer's divergent
        fork is not longer — as *benign* (an honest peer can simply be
        lagging): no ban, no quarantine.  Any other verification failure
        (broken linkage, foreign genesis) is malice and bans the peer,
        so a peer set of liars ends in :class:`NoHonestPeerError`.

        When the adopted fork replaced headers and the session was built
        with ``track_queries=True``, every remembered query whose range
        overlaps the replaced suffix is re-run immediately — its old
        answer was verified against headers that no longer exist.  The
        fresh histories land in ``self.last_reorg["requeried"]``.
        """
        old_tip = self.light_node.tip_height

        def run(peer: Peer, transport) -> Tuple[int, int]:
            return self.light_node.sync_with_reorg(peer.node, transport)

        replaced, appended = self._run_with_retries(
            run, "reorg-aware header sync"
        )
        if replaced:
            self._after_reorg(old_tip - replaced, replaced, appended, old_tip)
        return replaced, appended

    def _after_reorg(
        self, fork_height: int, replaced: int, appended: int, old_tip: int
    ) -> None:
        """Record the switch and re-query everything it invalidated."""
        requeried: Dict[str, VerifiedHistory] = {}
        # Publish the report before re-querying: if a re-query fails and
        # raises, the caller still sees that the reorg itself happened.
        self.last_reorg = {
            "fork_height": fork_height,
            "replaced": replaced,
            "appended": appended,
            "requeried": requeried,
        }
        if self.track_queries:
            for address, first, last in list(self._tracked):
                effective_last = last if last is not None else old_tip
                if effective_last > fork_height:
                    requeried[address] = self.query(address, first, last)

    def __repr__(self) -> str:
        return (
            f"QuerySession({len(self.peers)} peers, "
            f"rounds={self.retry.max_rounds}, t={self.clock.now():.2f}s)"
        )


__all__ = [
    "Peer",
    "PeerStats",
    "PartialHistory",
    "QuerySession",
    "RetryPolicy",
    "SessionStats",
]
