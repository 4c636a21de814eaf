"""Bounded, concurrency-safe query caches and the locking primitives.

PR 1 memoized block resolutions and segment multiproofs in plain dicts on
:class:`~repro.query.builder.BuiltSystem`.  Under sustained traffic those
dicts grow without limit, and under concurrent traffic they race.  This
module supplies the serving-grade replacements:

* :class:`LRUCache` — a thread-safe LRU bounded by entries or, given a
  ``weigh`` function, by what they weigh, with hit / miss / eviction
  counters.  It exposes the same ``get`` / ``__setitem__`` surface the
  prover already uses, so the fast path did not change.
* :class:`RWLock` — a write-preferring readers/writer lock with
  *reentrant* readers.  Queries (readers) run concurrently against an
  immutable chain prefix; ``append_block`` (the writer) gets exclusive
  access, so a proof is never assembled over a half-appended block.
* :class:`SingleFlight` — request coalescing: N concurrent calls with
  the same key perform the keyed work exactly once and share the result.
* :class:`ResponseCache` — serialized response bytes behind a
  byte-bounded LRU plus a single-flight front, keyed ``(address, range,
  tip)``.  Hot addresses are proven and serialized once per tip and then
  served as a memcpy.
* :class:`QueryCaches` — the per-system bundle (resolutions as wire
  bytes and segments as whole-span images, both bounded in bytes) wired into
  :class:`~repro.query.builder.BuiltSystem`.

Invalidation rules (DESIGN.md §8): block resolutions and segment
multiproofs are **append-stable** — a block is immutable once appended
and a merged BMT span never changes — so those entries survive chain
growth and are only ever evicted by the LRU bound.  Response bytes embed
the answering tip, so every ``append_block`` drops them.  A *reorg*
(DESIGN.md §9) is the one event that invalidates append-stable entries:
:meth:`QueryCaches.on_reorg` evicts exactly the keys whose heights reach
above the fork, and the system's reorg listeners drop every per-node
response cache (a tip-height key would alias across equal-length forks).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, Iterator


class CacheStats:
    """Cumulative counters of one cache (counters survive ``clear``).

    ``weight`` is what the entries sum to under the cache's ``weigh``
    function and ``bound`` is the most they may sum to.  Under the
    default unit weight both count entries.
    """

    __slots__ = ("hits", "misses", "evictions", "size", "weight", "bound")

    def __init__(
        self,
        hits: int,
        misses: int,
        evictions: int,
        size: int,
        weight: int,
        bound: int,
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.size = size
        self.weight = weight
        self.bound = bound

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> "dict[str, object]":
        """The counters by name; the weight and bound as ``bytes`` and
        ``max_bytes``, the unit every cache of the query path weighs in."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "bytes": self.weight,
            "max_bytes": self.bound,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, size={self.size}, "
            f"weight={self.weight}/{self.bound})"
        )


def _unit_weight(_value: Any) -> int:
    return 1


class LRUCache:
    """A thread-safe LRU mapping bounded by the total weight it holds.

    ``weigh`` prices one value; the default prices every value at 1, so
    the bound is a number of entries.  Inserting evicts from the cold
    end until the total is back under the bound, and a value that alone
    outweighs the bound is not stored at all (storing it would evict
    everything else and then itself).

    Deliberately exposes only the dict surface the query path uses
    (``get``, item assignment, ``in``, ``len``, ``clear``) so it can
    drop in for the PR-1 memo dicts.  ``None`` is not a cacheable value:
    ``get`` returning ``None`` always means "absent", which is exactly
    how the prover's memo lookups are written.
    """

    __slots__ = ("_lock", "_entries", "_weigh", "_bound", "_weight", "_hits",
                 "_misses", "_evictions")

    def __init__(
        self, bound: int, weigh: Callable[[Any], int] = _unit_weight
    ) -> None:
        if bound < 1:
            raise ValueError(f"LRU bound must be >= 1, got {bound}")
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._weigh = weigh
        self._bound = bound
        self._weight = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def lookup(self, key: Hashable) -> Any:
        """``get`` that counts a hit but not a miss: ``None`` if absent.

        For a probe whose miss falls through to a ``get`` that counts it,
        so one request is never counted as two misses.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("LRUCache cannot store None (means 'absent')")
        weight = self._weigh(value)
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self._weight -= self._weigh(replaced)
            if weight > self._bound:
                return
            self._entries[key] = value
            self._weight += weight
            while self._weight > self._bound:
                _, evicted = self._entries.popitem(last=False)
                self._weight -= self._weigh(evicted)
                self._evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> "list[Hashable]":
        """Snapshot of the keys, oldest first (for tests/introspection)."""
        with self._lock:
            return list(self._entries.keys())

    def clear(self) -> None:
        """Drop every entry; cumulative counters are preserved."""
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def evict_if(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose *key* satisfies ``predicate``.

        The selective-invalidation hook reorgs need: entries keyed below
        the fork height survive, everything above it goes.  Returns the
        number of entries evicted (also added to the eviction counter).
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                self._weight -= self._weigh(self._entries.pop(key))
            self._evictions += len(stale)
            return len(stale)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self._hits,
                self._misses,
                self._evictions,
                len(self._entries),
                self._weight,
                self._bound,
            )


class RWLock:
    """Write-preferring readers/writer lock with reentrant readers.

    * Any number of threads may hold the read side at once.
    * The write side is exclusive (and reentrant for its owner).
    * A thread already holding the read side may re-acquire it without
      blocking even while a writer waits — required because the query
      path nests (``answer_batch_query`` → ``answer_query``) and a
      writer arriving between the two acquisitions must not deadlock us.
    * New readers queue behind a waiting writer, so a steady stream of
      queries cannot starve ``append_block``.
    * Upgrading (write while holding read) is a programming error and
      raises ``RuntimeError`` instead of deadlocking.
    * :meth:`try_acquire_read` never blocks: it refuses while a writer
      holds or waits for the lock, for a thread that must not stall.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writer_depth",
                 "_writers_waiting", "_local")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: "threading.Thread | None" = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    # -- read side -----------------------------------------------------------

    def acquire_read(self) -> None:
        self._acquire_read(wait=True)

    def try_acquire_read(self) -> bool:
        """Take the read side if that needs no wait; ``False`` if not.

        Reentrant like :meth:`acquire_read`; each ``True`` is balanced
        by one :meth:`release_read`.
        """
        return self._acquire_read(wait=False)

    def _acquire_read(self, wait: bool) -> bool:
        depth = getattr(self._local, "read_depth", 0)
        if depth == 0:
            with self._cond:
                if self._writer is threading.current_thread():
                    # The writer reading its own writes: don't count it as
                    # a reader or release_write would wait on ourselves.
                    self._local.counted = False
                else:
                    while self._writer is not None or self._writers_waiting:
                        if not wait:
                            return False
                        self._cond.wait()
                    self._readers += 1
                    self._local.counted = True
        self._local.read_depth = depth + 1
        return True

    def release_read(self) -> None:
        depth = getattr(self._local, "read_depth", 0)
        if depth <= 0:
            raise RuntimeError("release_read without acquire_read")
        self._local.read_depth = depth - 1
        if depth == 1 and getattr(self._local, "counted", False):
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side ----------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.current_thread()
        with self._cond:
            if self._writer is me:
                self._writer_depth += 1
                return
            if getattr(self._local, "read_depth", 0) > 0:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers > 0:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer is not threading.current_thread():
                raise RuntimeError("release_write by a non-owner thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class _Flight:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: "BaseException | None" = None


class SingleFlight:
    """Per-key request coalescing.

    ``do(key, fn)`` runs ``fn`` exactly once per key among concurrent
    callers: the first caller (the *leader*) computes, everyone else (the
    *followers*) blocks on the leader's result.  A leader's exception
    propagates to every follower of that flight.  Once a flight lands the
    key is retired, so a later call computes afresh (caching is the
    caller's job — see :class:`ResponseCache`).
    """

    __slots__ = ("_lock", "_flights", "flights", "coalesced")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: "Dict[Hashable, _Flight]" = {}
        #: Number of leader computations performed.
        self.flights = 0
        #: Number of callers served by somebody else's computation.
        self.coalesced = 0

    def do(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
                self.flights += 1
            else:
                leader = False
                self.coalesced += 1
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            flight.value = fn()
            return flight.value
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()


#: Four times the 7.5 MB of serialized answers ``poll_recent``'s 768
#: hot keys come to (DESIGN.md §8), and a fraction of the chain a node
#: already holds.
DEFAULT_RESPONSE_CACHE_BYTES = 32 * 1024 * 1024


class ResponseCache:
    """Serialized response bytes behind an LRU and a single-flight front.

    Keys are ``(address, first_height, requested_last, tip)``; the tip
    component makes an entry self-invalidating, and ``invalidate_all``
    (called on every ``append_block``) reclaims the memory eagerly.

    The LRU is bounded by the bytes it holds, not by entries: responses
    range from a few hundred bytes to megabytes and the client picks
    which.  A response larger than the whole bound is returned to its
    callers (all of them, through the one flight) and not kept.
    """

    # __weakref__ so FullNode can register weak append listeners.
    __slots__ = ("_lru", "_flight", "__weakref__")

    def __init__(self, max_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES) -> None:
        self._lru = LRUCache(max_bytes, weigh=len)
        self._flight = SingleFlight()

    def get_or_build(self, key: Hashable, build: Callable[[], bytes]) -> bytes:
        value = self._lru.get(key)
        if value is not None:
            return value

        def miss() -> bytes:
            built = build()
            self._lru[key] = built
            return built

        return self._flight.do(key, miss)

    def lookup(self, key: Hashable) -> "bytes | None":
        """The cached bytes for ``key``, or ``None``; never builds.

        A hit counts as one; a miss is left for the ``get_or_build``
        the caller falls back to, so the hit rate keeps its meaning.
        """
        return self._lru.lookup(key)

    def invalidate_all(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> "dict[str, object]":
        # Every LRU miss goes on to the flight front, as the leader that
        # builds or as a follower that is handed the leader's bytes.
        # Followers cost no build: they are ``coalesced``, not misses.
        # Read before the LRU, so it can only be behind the miss count.
        coalesced = self._flight.coalesced
        flights = self._flight.flights
        lru = self._lru.stats()
        lru.misses -= coalesced
        report = lru.as_dict()
        report["flights"] = flights
        report["coalesced"] = coalesced
        return report


#: Default bounds: sized for the benchmark chains (1024 blocks x a few
#: hot addresses) while keeping worst-case memory far below the chain
#: itself.  Callers with other traffic shapes pass their own QueryCaches.
#: The resolution memo holds wire bytes and is bounded by them: no e2e
#: workload fills it (EXPERIMENTS.md lists each one's peak).
DEFAULT_RESOLUTION_BYTES = 32 * 1024 * 1024
#: The segment memo is bounded by what its images hold (``held_bytes``):
#: about what all ~4,000 addresses ``history_cold`` draws from would take
#: at ≈ 4.4 KB each; one 16 s run holds 6.5 MiB (EXPERIMENTS.md).
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024


#: The resolution memo keeps each wire image as pieces of at most this
#: many bytes, small enough for CPython's small-object allocator (512
#: bytes, object header included).  Whole images, mostly 0.5-3 KB, came
#: from the C heap, where each long-lived one pinned the space around it
#: that the response-sized buffers of every answer had used: peak RSS was
#: +19 MiB after 12,000 ``history_cold`` answers (DESIGN.md §8).
RESOLUTION_PIECE_BYTES = 448


def _joined_len(pieces: "tuple[bytes, ...]") -> int:
    return sum(map(len, pieces))


class QueryCaches:
    """The per-system cache bundle carried by ``BuiltSystem``.

    ``resolutions`` maps ``(address, height)`` to the resolution's
    tag-first wire bytes — read and written through
    :meth:`resolution_wire` and :meth:`remember_resolution`, held as
    :data:`RESOLUTION_PIECE_BYTES` pieces — bounded by the bytes it
    holds; ``segments`` maps ``(address, anchor, start, end)`` to the
    span's whole-span :class:`~repro.merkle.bmt.SpanImage`, bounded by
    the bytes the images hold.  Both hold append-stable values, so chain
    growth never invalidates them.  Response-byte caches live on each
    :class:`FullNode` (two nodes wrapping one system may answer
    differently, e.g. the adversarial test doubles) and register
    themselves via the system's append listeners for tip invalidation.
    """

    __slots__ = ("resolutions", "segments")

    def __init__(
        self,
        max_resolution_bytes: int = DEFAULT_RESOLUTION_BYTES,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self.resolutions = LRUCache(max_resolution_bytes, weigh=_joined_len)
        self.segments = LRUCache(max_segment_bytes, weigh=attrgetter("held_bytes"))

    def resolution_wire(self, key: Hashable) -> "bytes | None":
        """The wire bytes memoized under ``key``, or ``None``."""
        pieces = self.resolutions.get(key)
        return None if pieces is None else b"".join(pieces)

    def remember_resolution(self, key: Hashable, wire: bytes) -> None:
        self.resolutions[key] = tuple(
            wire[start : start + RESOLUTION_PIECE_BYTES]
            for start in range(0, len(wire), RESOLUTION_PIECE_BYTES)
        )

    def clear(self) -> None:
        self.resolutions.clear()
        self.segments.clear()

    def on_reorg(self, fork_height: int) -> "dict[str, int]":
        """Selective invalidation after a rollback to ``fork_height``.

        Blocks at or below the fork are byte-identical on both branches,
        so their memos stay valid; everything above must go:

        * resolutions are keyed ``(address, height)`` — evict
          ``height > fork``;
        * span images are keyed ``(address, anchor, start, end)`` — a
          tree whose span reaches past the fork covers replaced blocks,
          so evict ``end > fork``.

        Response-byte caches are *not* handled here: they live per node
        and are dropped wholesale through the system's reorg listeners
        (their tip-height key would alias across forks of equal length).
        """
        return {
            "resolutions": self.resolutions.evict_if(
                lambda key: key[1] > fork_height
            ),
            "segments": self.segments.evict_if(
                lambda key: key[3] > fork_height
            ),
        }

    def stats(self) -> "dict[str, dict]":
        return {
            "resolutions": self.resolutions.stats().as_dict(),
            "segments": self.segments.stats().as_dict(),
        }
