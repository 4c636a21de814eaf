"""Exception hierarchy for the LVQ reproduction.

Every failure mode raised by the library derives from :class:`ReproError`,
so callers can catch a single base class.  Verification failures carry a
human-readable reason describing which check rejected the proof; the light
node surfaces these reasons so that a user can tell *why* a full node's
response was rejected (a wrong Merkle root, an uncovered block range, a
mismatching appearance count, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class EncodingError(ReproError):
    """Malformed serialized bytes (truncated, bad checksum, bad varint...)."""


class ChainError(ReproError):
    """Inconsistent blockchain state (bad linkage, unknown height...)."""


class WorkloadError(ReproError):
    """The synthetic workload generator was asked for something impossible."""


class ProofError(ReproError):
    """A proof object is structurally malformed (before verification)."""


class VerificationError(ReproError):
    """A proof failed verification against trusted header commitments.

    The message always names the failing check, e.g. ``"BMT root mismatch
    at height 4096"`` or ``"SMT count 2 != 3 Merkle branches supplied"``.
    """


class CorrectnessError(VerificationError):
    """Query result contains data that is not actually on chain."""


class CompletenessError(VerificationError):
    """Query result omits on-chain data (a non-membership check failed)."""


class StaleChainError(VerificationError):
    """A peer offered a divergent chain that is not longer than ours.

    Raised by reorg-aware header sync when the peer's fork carries no
    more work (height is the work proxy here).  Unlike its parent, this
    is *not* evidence of malice — the peer may simply be lagging — so
    resilient sessions treat it as benign rather than banning the peer.
    """


class QueryError(ReproError):
    """The full node could not serve a query (unknown system, bad range)."""


class BackpressureError(QueryError):
    """Base class for benign "the server is shedding load" refusals.

    Overload is traffic, not malice: an honest server under a burst
    rejects work with a typed frame instead of collapsing, and a client
    must treat that frame as a *backoff signal* — honor the optional
    ``retry_after`` hint (seconds) and try again later — never as
    grounds for quarantine-ladder escalation or a ban (see
    ``Peer.record_overload``).
    """

    def __init__(
        self, message: str, *, retry_after: "float | None" = None
    ) -> None:
        super().__init__(message)
        #: Server-suggested wait in seconds before retrying (optional).
        self.retry_after = retry_after

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "retry_after": self.retry_after,
        }


#: Ceiling on any retry-after wait a client honours, in seconds, so a
#: hostile or confused server cannot park a client for hours.
MAX_RETRY_AFTER_SECONDS = 30.0


class ServerOverloadedError(BackpressureError):
    """A query server's bounded request queue rejected new work.

    The backpressure signal of :class:`repro.node.server.QueryServer`:
    raised at submission time when every worker is busy and the pending
    queue is full, so callers can shed load or retry with backoff
    instead of growing an unbounded backlog.

    * ``pending`` — requests queued (but not yet running) at rejection.
    * ``max_pending`` — the configured queue bound.
    """

    def __init__(
        self,
        pending: int,
        max_pending: int,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(
            f"server overloaded: {pending} requests pending "
            f"(bound {max_pending})",
            retry_after=retry_after,
        )
        self.pending = pending
        self.max_pending = max_pending

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "pending": self.pending,
            "max_pending": self.max_pending,
            "retry_after": self.retry_after,
        }


class RateLimitedError(BackpressureError):
    """One client exceeded its per-client token-bucket rate budget.

    Unlike :class:`ServerOverloadedError` this is not a statement about
    the server's global queue — only about one client's recent request
    rate.  ``client`` is the identity the bucket is keyed by (connection
    peer, or the id declared in a hello frame); ``retry_after`` is when
    the bucket next holds a token.
    """

    def __init__(
        self, client: str, retry_after: "float | None" = None
    ) -> None:
        hint = f"; retry after {retry_after:.3f}s" if retry_after else ""
        super().__init__(
            f"client {client!r} exceeded its request rate budget{hint}",
            retry_after=retry_after,
        )
        self.client = client

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "client": self.client,
            "retry_after": self.retry_after,
        }


class RequestShedError(BackpressureError):
    """The watermark load-shedder refused this priority class.

    Staged degradation (DESIGN.md §11): past the first watermark the
    server sheds batch-class work, past the second everything but
    interactive queries, past the third everything that would queue —
    so high-priority traffic keeps its latency while the excess is
    absorbed as typed, retryable rejections instead of a collapse.

    * ``priority`` — the rejected request's priority class name.
    * ``state`` — the shedder state that refused it (``shed_batch``,
      ``shed_low`` or ``shed_all``).
    """

    def __init__(
        self,
        priority: str,
        state: str,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(
            f"{priority} request shed (server in {state})",
            retry_after=retry_after,
        )
        self.priority = priority
        self.state = state

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "priority": self.priority,
            "state": self.state,
            "retry_after": self.retry_after,
        }


class ConnectionLimitError(BackpressureError):
    """A network server refused a new connection at its concurrency gate.

    Sent as a typed error frame before the server closes the socket, so
    a client can tell "the node is saturated, back off and retry" apart
    from a dead or misbehaving peer.

    * ``active`` — connections already being served at rejection.
    * ``max_connections`` — the configured gate.
    """

    def __init__(
        self,
        active: int,
        max_connections: int,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(
            f"connection limit reached: {active} active "
            f"(bound {max_connections})",
            retry_after=retry_after,
        )
        self.active = active
        self.max_connections = max_connections

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "active": self.active,
            "max_connections": self.max_connections,
            "retry_after": self.retry_after,
        }


class SubscriberEvictedError(QueryError):
    """A streaming subscription was dropped by the server's slow-consumer
    guard (PROTOCOL.md §10.5).

    The server bounds every subscriber's outbox; a client that stops
    draining its socket overflows the bound and is evicted — the outbox
    is reclaimed, a typed eviction frame is delivered as the final frame,
    and the connection is closed.  Eviction is a *denial* signal, never a
    data signal: nothing about chain content rides on it.

    * ``subscription_id`` — the evicted subscription.
    * ``dropped_frames`` — update/retraction frames discarded unread.
    """

    def __init__(
        self,
        subscription_id: int,
        dropped_frames: int,
        reason: str = "outbox overflow",
    ) -> None:
        super().__init__(
            f"subscription {subscription_id} evicted ({reason}); "
            f"{dropped_frames} pending frames dropped"
        )
        self.subscription_id = subscription_id
        self.dropped_frames = dropped_frames
        self.reason = reason

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "subscription_id": self.subscription_id,
            "dropped_frames": self.dropped_frames,
            "reason": self.reason,
        }


class TransportError(ReproError):
    """Network failure (closed transport, oversized message, dead link)."""


class QueryTimeoutError(TransportError):
    """A timeout measured on the simulated clock.

    Carries machine-readable fields so session statistics and benchmarks
    can classify timeouts without parsing messages:

    * ``timeout_seconds`` — the configured limit that was exceeded.
    * ``elapsed_seconds`` — simulated time actually spent (``None`` when
      the waiter gave up without a clock).
    """

    def __init__(
        self,
        message: str,
        *,
        timeout_seconds: "float | None" = None,
        elapsed_seconds: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.timeout_seconds = timeout_seconds
        self.elapsed_seconds = elapsed_seconds

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "timeout_seconds": self.timeout_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }


class RequestTimeoutError(QueryTimeoutError):
    """A single request/response exchange exceeded its per-attempt limit
    (the message was dropped, or injected latency blew the deadline)."""


class SessionTimeoutError(QueryTimeoutError):
    """A whole query session ran past its overall deadline across
    retries, backoff sleeps, and failovers."""


class PeerQuarantinedError(ReproError):
    """A peer was skipped because its health score put it in quarantine.

    ``peer`` names the peer; ``permanent`` distinguishes a verification
    ban (the peer served a decodable-but-unverifiable proof — malice)
    from a decaying transport-failure penalty that expires at
    ``until_seconds`` on the session clock.
    """

    def __init__(
        self,
        peer: str,
        *,
        permanent: bool,
        until_seconds: "float | None" = None,
        reason: "str | None" = None,
    ) -> None:
        state = "banned" if permanent else f"quarantined until {until_seconds}"
        super().__init__(f"peer {peer} is {state}" + (f": {reason}" if reason else ""))
        self.peer = peer
        self.permanent = permanent
        self.until_seconds = until_seconds
        self.reason = reason

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "peer": self.peer,
            "permanent": self.permanent,
            "until_seconds": self.until_seconds,
            "reason": self.reason,
        }


class RetryExhaustedError(ReproError):
    """A resilient session ran out of retry budget without a verified
    answer and without proof that every peer is malicious.

    ``reasons`` maps each peer label to the list of errors its attempts
    raised (chronological), so callers can distinguish "the network was
    down" from "half the peers lied and the rest flapped".
    """

    def __init__(
        self,
        address: str,
        attempts: int,
        reasons: "dict[str, list[Exception]]",
    ) -> None:
        summary = "; ".join(
            f"{peer}: {type(errors[-1]).__name__}: {errors[-1]}"
            for peer, errors in reasons.items()
            if errors
        )
        super().__init__(
            f"no verified answer for {address!r} after {attempts} attempts "
            f"({summary or 'no peers available'})"
        )
        self.address = address
        self.attempts = attempts
        self.reasons = reasons

    def details(self) -> "dict[str, object]":
        return {
            "kind": type(self).__name__,
            "address": self.address,
            "attempts": self.attempts,
            "reasons": {
                peer: [f"{type(e).__name__}: {e}" for e in errors]
                for peer, errors in self.reasons.items()
            },
        }


class NoHonestPeerError(VerificationError):
    """Every queried full node returned an unverifiable answer.

    ``reasons`` maps a peer label to the error its answer raised, so the
    operator can see *why* each peer was rejected.
    """

    def __init__(self, reasons: "dict[str, Exception]") -> None:
        details = "; ".join(
            f"{peer}: {error}" for peer, error in reasons.items()
        )
        super().__init__(f"no peer produced a verifiable answer ({details})")
        self.reasons = reasons
