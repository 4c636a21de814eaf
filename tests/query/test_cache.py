"""The bounded query caches, locking primitives, and invalidation rules.

Covers the serving-engine plumbing of :mod:`repro.query.cache`:

* LRU semantics — bound, recency order, counters, ``clear``;
* single-flight coalescing — one computation among concurrent callers,
  exception propagation;
* the readers/writer lock — mutual exclusion, reader reentrancy while a
  writer waits, upgrade rejection, the non-blocking try-read;
* the wiring into ``BuiltSystem``/``FullNode`` — the PR-1 memo dicts
  are now bounded, response bytes drop on ``append_block`` while the
  append-stable segment/resolution entries survive;
* the response cache's byte bound — the running total is exact after
  every kind of operation and never passes the bound.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import QueryError
from repro.node.full_node import FullNode
from repro.node.messages import QueryRequest, QueryResponse
from repro.query.batch import answer_batch_query
from repro.query.builder import build_system
from repro.query.cache import (
    RESOLUTION_PIECE_BYTES,
    LRUCache,
    QueryCaches,
    ResponseCache,
    RWLock,
    SingleFlight,
)
from repro.query.config import SystemConfig
from repro.query.prover import _resolve_block, answer_query
from repro.workload.generator import WorkloadParams, generate_workload


class TestLRUCache:
    def test_get_and_set_roundtrip(self):
        cache = LRUCache(4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "fallback") == "fallback"
        assert "a" in cache and "missing" not in cache
        assert len(cache) == 1

    def test_bound_evicts_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache[key] = key.upper()
        cache.get("a")  # refresh 'a'; 'b' becomes the oldest
        cache["d"] = "D"
        assert "b" not in cache
        assert all(key in cache for key in "acd")
        assert cache.stats().evictions == 1

    def test_setitem_refreshes_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10  # rewrite refreshes 'a'
        cache["c"] = 3
        assert "b" not in cache and cache.get("a") == 10

    def test_counters_survive_clear(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache.get("a")
        cache.get("nope")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_rejects_none_values_and_bad_bounds(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        cache = LRUCache(1)
        with pytest.raises(ValueError):
            cache["k"] = None

    def test_concurrent_mixed_access_keeps_bound(self):
        cache = LRUCache(32)
        errors = []

        def hammer(worker: int):
            try:
                for i in range(300):
                    cache[(worker, i % 40)] = i + 1
                    cache.get((worker, (i * 7) % 40))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32


class TestSingleFlight:
    def test_sequential_calls_each_compute(self):
        flight = SingleFlight()
        calls = []
        assert flight.do("k", lambda: calls.append(1) or "v1") == "v1"
        assert flight.do("k", lambda: calls.append(1) or "v2") == "v2"
        assert len(calls) == 2
        assert flight.flights == 2 and flight.coalesced == 0

    def test_concurrent_identical_keys_compute_once(self):
        flight = SingleFlight()
        calls = []
        barrier = threading.Barrier(6)
        results = []

        def build():
            calls.append(threading.get_ident())
            time.sleep(0.3)  # hold the flight open for the followers
            return "answer"

        def caller():
            barrier.wait()
            results.append(flight.do("hot", build))

        threads = [threading.Thread(target=caller) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == ["answer"] * 6
        assert len(calls) == 1
        assert flight.flights == 1 and flight.coalesced == 5

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        barrier = threading.Barrier(3)
        failures = []

        def build():
            time.sleep(0.2)
            raise QueryError("boom")

        def caller():
            barrier.wait()
            try:
                flight.do("k", build)
            except QueryError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == ["boom"] * 3
        # The failed flight retired its key: a fresh call recomputes.
        assert flight.do("k", lambda: "recovered") == "recovered"

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == 1
        assert flight.do("b", lambda: 2) == 2
        assert flight.coalesced == 0


class TestRWLock:
    def test_reader_reentrancy(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                pass
        # fully released: a writer can proceed
        with lock.write():
            pass

    def test_write_reentrancy(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                pass
        with lock.read():
            pass

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        order = []

        def writer():
            with lock.write():
                order.append("write-start")
                time.sleep(0.2)
                order.append("write-end")

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)  # let the writer in
        with lock.read():
            order.append("read")
        thread.join()
        assert order == ["write-start", "write-end", "read"]

    def test_nested_read_does_not_deadlock_behind_waiting_writer(self):
        lock = RWLock()
        lock.acquire_read()
        writer_done = threading.Event()

        def writer():
            with lock.write():
                writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)  # writer is now queued
        # A fresh read acquisition by the same thread must not block on
        # the waiting writer (the batch path nests read acquisitions).
        lock.acquire_read()
        lock.release_read()
        lock.release_read()
        assert writer_done.wait(2.0)
        thread.join()

    def test_upgrade_is_rejected(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_release_without_acquire_is_rejected(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_readers_run_concurrently(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # only passes if all 3 readers are inside

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_try_read_refuses_while_a_writer_holds(self):
        lock = RWLock()
        holding, release = threading.Event(), threading.Event()

        def writer():
            with lock.write():
                holding.set()
                release.wait(5.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert holding.wait(5.0)
            started = time.monotonic()
            assert lock.try_acquire_read() is False
            assert time.monotonic() - started < 0.5
        finally:
            release.set()
            thread.join(5.0)
        assert lock.try_acquire_read() is True
        lock.release_read()

    def test_try_read_refuses_while_a_writer_waits(self):
        lock = RWLock()
        reader_in, reader_out = threading.Event(), threading.Event()
        writer_done = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                reader_out.wait(5.0)

        def writer():
            with lock.write():
                writer_done.set()

        threads = [threading.Thread(target=reader)]
        threads[0].start()
        assert reader_in.wait(5.0)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        try:
            deadline = time.monotonic() + 5.0
            while not lock._writers_waiting:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            # Readers are in, but a writer is queued: a try-read must
            # not slip in ahead of it.
            assert lock.try_acquire_read() is False
        finally:
            reader_out.set()
            for thread in threads:
                thread.join(5.0)
        assert writer_done.is_set()
        assert lock.try_acquire_read() is True
        lock.release_read()

    def test_try_read_is_reentrant_and_releases_in_balance(self):
        lock = RWLock()
        assert lock.try_acquire_read() is True
        writer_done = threading.Event()

        def writer():
            with lock.write():
                writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not lock._writers_waiting:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        # Already a reader: nesting succeeds behind the waiting writer.
        assert lock.try_acquire_read() is True
        lock.release_read()
        assert not writer_done.wait(0.05)  # one hold still outstanding
        lock.release_read()
        assert writer_done.wait(5.0)
        thread.join(5.0)
        with pytest.raises(RuntimeError):
            lock.release_read()
        assert lock._readers == 0

    def test_writer_may_try_read_its_own_writes(self):
        lock = RWLock()
        with lock.write():
            assert lock.try_acquire_read() is True
            lock.release_read()
        assert lock._readers == 0 and lock._writer is None


class TestResponseCache:
    def test_build_once_then_serve_bytes(self):
        cache = ResponseCache(8)
        builds = []

        def build():
            builds.append(1)
            return b"payload"

        assert cache.get_or_build("k", build) == b"payload"
        assert cache.get_or_build("k", build) == b"payload"
        assert len(builds) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] >= 1

    def test_lookup_counts_a_hit_and_leaves_a_miss_uncounted(self):
        cache = ResponseCache(64)
        assert cache.lookup("k") is None
        assert cache.stats()["misses"] == 0
        cache.get_or_build("k", lambda: b"payload")
        assert cache.lookup("k") == b"payload"
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_invalidate_all_empties(self):
        cache = ResponseCache(8)
        cache.get_or_build("k", lambda: b"x")
        assert len(cache) == 1
        cache.invalidate_all()
        assert len(cache) == 0


def _assert_bytes_exact(cache: ResponseCache) -> "dict[str, object]":
    """The accounting invariant: the running total is the real total,
    and the real total is inside the bound."""
    stats = cache.stats()
    held = list(cache._lru._entries.values())
    assert stats["bytes"] == sum(len(value) for value in held)
    assert stats["size"] == len(held) == len(cache)
    assert stats["bytes"] <= stats["max_bytes"]
    return stats


class TestResponseCacheByteBound:
    def test_insert_overwrite_and_eviction_keep_the_total_exact(self):
        cache = ResponseCache(100)
        assert cache.stats()["max_bytes"] == 100
        assert "max_entries" not in cache.stats()
        cache.get_or_build("a", lambda: b"a" * 40)
        assert _assert_bytes_exact(cache)["bytes"] == 40
        cache.get_or_build("b", lambda: b"b" * 40)
        assert _assert_bytes_exact(cache)["bytes"] == 80
        # A live key overwritten (two flights can land back to back on
        # one key): the old value's bytes leave with it.
        cache._lru["a"] = b"A" * 10
        assert _assert_bytes_exact(cache)["bytes"] == 50
        cache._lru["a"] = b"A" * 60
        assert _assert_bytes_exact(cache)["bytes"] == 100
        # 100 + 30 > 100: the coldest entry goes ("b": "a" was rewritten
        # after it), and one eviction is enough.
        cache.get_or_build("c", lambda: b"c" * 30)
        stats = _assert_bytes_exact(cache)
        assert stats["bytes"] == 90 and stats["evictions"] == 1
        assert cache._lru.keys() == ["a", "c"]
        # One big value may push out several small ones.
        cache.get_or_build("d", lambda: b"d" * 95)
        stats = _assert_bytes_exact(cache)
        assert stats["bytes"] == 95 and stats["evictions"] == 3
        cache.invalidate_all()
        stats = _assert_bytes_exact(cache)
        assert stats["bytes"] == 0 and stats["size"] == 0
        assert stats["evictions"] == 3  # counters survive

    def test_selective_eviction_keeps_the_total_exact(self):
        lru = LRUCache(100, weigh=len)
        for height in range(5):
            lru[("addr", height)] = b"x" * (10 + height)
        assert lru.stats().weight == 60
        assert lru.evict_if(lambda key: key[1] >= 3) == 2
        assert lru.stats().weight == 10 + 11 + 12
        assert lru.stats().size == 3

    def test_oversize_value_is_returned_but_not_stored(self):
        cache = ResponseCache(10)
        cache.get_or_build("small", lambda: b"s" * 4)
        builds = []

        def build():
            builds.append(1)
            return b"B" * 11

        assert cache.get_or_build("big", build) == b"B" * 11
        stats = _assert_bytes_exact(cache)
        # Neither stored nor allowed to push the small entry out.
        assert cache._lru.keys() == ["small"]
        assert stats["bytes"] == 4 and stats["evictions"] == 0
        # Not stored, so asked again it is built again.
        assert cache.get_or_build("big", build) == b"B" * 11
        assert len(builds) == 2
        # An oversize rewrite of a live key must not leave the old bytes
        # behind to be served for it.
        cache._lru["small"] = b"S" * 11
        assert _assert_bytes_exact(cache)["size"] == 0
        # Exactly at the bound still fits.
        cache.get_or_build("fits", lambda: b"f" * 10)
        assert _assert_bytes_exact(cache)["bytes"] == 10

    def test_herd_of_identical_oversize_requests_builds_once(self):
        cache = ResponseCache(10)
        herd = 6
        barrier = threading.Barrier(herd, timeout=10)
        builds = []
        results = []

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.3)  # hold the flight open for the followers
            return b"B" * 1000

        def caller():
            barrier.wait()
            results.append(cache.get_or_build("big", build))

        threads = [threading.Thread(target=caller) for _ in range(herd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [b"B" * 1000] * herd
        assert len(builds) == 1
        stats = _assert_bytes_exact(cache)
        assert stats["size"] == 0
        # One build is one miss; the five it was shared with are
        # coalesced, not five more misses.
        assert stats["flights"] == 1 and stats["coalesced"] == herd - 1
        assert stats["misses"] == 1 and stats["hits"] == 0


class TestResponseCacheBoundThroughFullNode:
    """On ``benchmark_chain`` the heaviest probe's long ranges come to
    tens of KB each."""

    def test_distinct_heavy_ranges_stay_inside_one_mebibyte(self, benchmark_chain):
        workload, config = benchmark_chain
        blocks = len(workload.bodies) - 1
        system = build_system(workload.bodies[:-2], config)
        node = FullNode(system, response_cache_bytes=1 << 20)
        cache = node.response_cache
        heaviest = workload.probe_addresses["Addr6"]
        built = 0
        for first in range(1, 65):
            frame = node.handle_query(QueryRequest(heaviest, first).serialize())
            built += len(frame)
            stats = _assert_bytes_exact(cache)
        # The 64 answers would not all have fit, so the bound did work.
        assert built > 2 * stats["max_bytes"]
        assert stats["evictions"] > 0 and stats["misses"] == 64
        assert stats["bytes"] > stats["max_bytes"] // 2
        # What is still held is served from the cache, byte for byte.
        request = QueryRequest(heaviest, 64).serialize()
        assert node.handle_query(request) == frame
        assert cache.stats()["hits"] == 1

        # An append drops every tip-keyed byte ...
        node.extend_chain([workload.bodies[blocks - 1]])
        stats = _assert_bytes_exact(cache)
        assert stats["bytes"] == 0 and stats["size"] == 0
        node.handle_query(request)
        assert _assert_bytes_exact(cache)["bytes"] > 0
        # ... and so does a reorg, here onto a fork one block longer.
        node.reorg(blocks - 2, workload.bodies[blocks - 1 :])
        assert system.tip_height == blocks
        stats = _assert_bytes_exact(cache)
        assert stats["bytes"] == 0 and stats["size"] == 0
        node.handle_query(request)
        assert _assert_bytes_exact(cache)["bytes"] > 0

    def test_whole_chain_answer_over_the_bound_is_served_uncached(
        self, benchmark_chain
    ):
        workload, config = benchmark_chain
        system = build_system(workload.bodies, config)
        node = FullNode(system, response_cache_bytes=4096)
        request = QueryRequest(workload.probe_addresses["Addr6"]).serialize()
        frame = node.handle_query(request)
        assert len(frame) > 4096
        assert node.handle_query(request) == frame
        stats = _assert_bytes_exact(node.response_cache)
        assert stats["size"] == 0 and stats["misses"] == 2
        result = QueryResponse.deserialize(frame, config).result
        assert result.tip_height == system.tip_height


@pytest.fixture(scope="module")
def serving_setup():
    workload = generate_workload(
        WorkloadParams(num_blocks=20, txs_per_block=6, seed=11)
    )
    config = SystemConfig.lvq(bf_bytes=192, segment_len=8)
    # Hold back the last three bodies so tests can grow the chain.
    system = build_system(workload.bodies[:17], config)
    return workload, config, system


def _onchain_address(workload, height: int = 3) -> str:
    """An address guaranteed to appear inside the truncated chain."""
    return sorted(workload.bodies[height][0].addresses())[0]


class TestBuiltSystemCacheWiring:
    def test_memos_are_bounded_lrus(self, serving_setup):
        workload, config, _system = serving_setup
        system = build_system(
            workload.bodies[:17],
            config,
            caches=QueryCaches(3_000, max_segment_bytes=2_000),
        )
        for address in workload.probe_addresses.values():
            answer_query(system, address)
            report = system.caches.stats()["segments"]
            assert report["bytes"] <= report["max_bytes"] == 2_000
        memo = system.caches.segments
        held = [memo.get(key).held_bytes for key in memo.keys()]
        assert held and report["bytes"] == sum(held)
        assert report["evictions"] > 0
        assert "max_entries" not in report

    def test_resolution_memo_holds_wire_bytes_within_its_byte_bound(
        self, serving_setup
    ):
        workload, config, _system = serving_setup
        system = build_system(
            workload.bodies[:17],
            config,
            caches=QueryCaches(1_000, max_segment_bytes=2_000),
        )
        for address in workload.probe_addresses.values():
            for _ in range(2):
                answer_query(system, address)
                report = system.caches.stats()["resolutions"]
                assert report["bytes"] <= report["max_bytes"] == 1_000
        memo = system.caches.resolutions
        pieces = [memo.get(key) for key in memo.keys()]
        assert all(
            0 < len(piece) <= RESOLUTION_PIECE_BYTES
            for entry in pieces
            for piece in entry
        )
        stored = [b"".join(entry) for entry in pieces]
        assert stored and report["bytes"] == sum(map(len, stored))
        for (address, height), wire in zip(memo.keys(), stored):
            assert _resolve_block(system, height, address).wire == wire
        assert report["evictions"] > 0
        assert "max_entries" not in report

    def test_clear_query_caches_still_works(self, serving_setup):
        workload, config, _system = serving_setup
        system = build_system(workload.bodies[:17], config)
        address = _onchain_address(workload)
        answer_query(system, address)
        assert len(system.caches.segments) > 0
        assert len(system.caches.resolutions) > 0
        system.clear_query_caches()
        assert len(system.caches.segments) == 0
        assert len(system.caches.resolutions) == 0
        # and the caches still fill again afterwards
        answer_query(system, address)
        assert len(system.caches.segments) > 0


class TestAppendInvalidation:
    """Tip-keyed entries drop on append; append-stable entries survive."""

    def _query_bytes(self, node: FullNode, address: str) -> bytes:
        request = QueryRequest(address).serialize()
        return node.handle_query(request)

    def test_response_cache_drops_but_segment_entries_survive(
        self, serving_setup
    ):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)
        node = FullNode(system)
        address = _onchain_address(workload)

        first = self._query_bytes(node, address)
        again = self._query_bytes(node, address)
        assert first == again
        assert node.response_cache.stats()["hits"] == 1
        assert len(node.response_cache) == 1
        segment_keys_before = set(system.caches.segments.keys())
        resolutions_before = len(system.caches.resolutions)
        assert segment_keys_before and resolutions_before

        system.append_block(workload.bodies[17])

        # Tip-keyed response bytes are gone; append-stable memos are not.
        assert len(node.response_cache) == 0
        assert set(system.caches.segments.keys()) == segment_keys_before
        assert len(system.caches.resolutions) == resolutions_before

        # A fresh query answers at the new tip and re-fills the cache.
        after = self._query_bytes(node, address)
        result = QueryResponse.deserialize(after, config).result
        assert result.tip_height == 17
        assert len(node.response_cache) == 1

    def test_clear_query_caches_also_drops_response_bytes(
        self, serving_setup
    ):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)
        node = FullNode(system)
        self._query_bytes(node, workload.probe_addresses["Addr6"])
        assert len(node.response_cache) == 1
        system.clear_query_caches()
        assert len(node.response_cache) == 0

    def test_stale_tip_response_is_never_served(self, serving_setup):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)
        node = FullNode(system)
        address = workload.probe_addresses["Addr4"]
        before = QueryResponse.deserialize(
            self._query_bytes(node, address), config
        ).result
        system.append_block(workload.bodies[17])
        after = QueryResponse.deserialize(
            self._query_bytes(node, address), config
        ).result
        assert before.tip_height == 16
        assert after.tip_height == 17


class TestSegmentMemoAdmission:
    """One entry per ``(address, span)`` (DESIGN.md §8): any range that
    clips a span files the span's whole-span image, and every other range
    of the same address over that span is answered from it."""

    def _warmed(self, serving_setup):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)  # spans 1-8, 9-16
        addresses = list(workload.probe_addresses.values())
        for address in addresses:
            answer_query(system, address)
        return system, addresses

    def test_distinct_clipped_ranges_and_batch_windows_file_nothing(
        self, serving_setup
    ):
        system, addresses = self._warmed(serving_setup)
        keys = set(system.caches.segments.keys())
        assert len(keys) == 2 * len(addresses)
        # Every (first, last) below cuts both spans short of an edge.
        ranges = [(first, last) for first in range(2, 8) for last in range(10, 16)]
        for address in addresses:
            for first, last in ranges:
                answer_query(system, address, first, last)
        for first in range(2, 13):
            answer_batch_query(system, addresses, first, first + 3)  # quarter chain
        assert set(system.caches.segments.keys()) == keys

    def test_whole_span_inside_a_range_is_still_filed_and_hit(
        self, serving_setup
    ):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)
        address = _onchain_address(workload)
        answer_query(system, address, 5, 16)  # 1-8 clipped, 9-16 whole
        filed = [(1, 8), (9, 16)]
        assert [key[2:4] for key in system.caches.segments.keys()] == filed
        hits = system.caches.stats()["segments"]["hits"]
        answer_query(system, address, 3, 16)  # a different range, same spans
        assert system.caches.stats()["segments"]["hits"] == hits + 2
        answer_query(system, address)
        assert system.caches.stats()["segments"]["hits"] == hits + 4
        assert [key[2:4] for key in system.caches.segments.keys()] == filed

    def test_reorg_evicts_filed_spans_above_the_fork(self, serving_setup):
        system, addresses = self._warmed(serving_setup)
        evicted = system.caches.on_reorg(12)
        assert evicted["segments"] == len(addresses)
        assert {key[2:4] for key in system.caches.segments.keys()} == {(1, 8)}
