"""The bounded query caches, locking primitives, and invalidation rules.

Covers the serving-engine plumbing of :mod:`repro.query.cache`:

* LRU semantics — bound, recency order, counters, ``clear``;
* single-flight coalescing — one computation among concurrent callers,
  exception propagation;
* the readers/writer lock — mutual exclusion, reader reentrancy while a
  writer waits, upgrade rejection;
* the wiring into ``BuiltSystem``/``FullNode`` — the PR-1 memo dicts
  are now bounded, response bytes drop on ``append_block`` while the
  append-stable segment/resolution entries survive.
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
    LRUCache,
    QueryCaches,
    ResponseCache,
    RWLock,
    SingleFlight,
)
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
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

    def test_invalidate_all_empties(self):
        cache = ResponseCache(8)
        cache.get_or_build("k", lambda: b"x")
        assert len(cache) == 1
        cache.invalidate_all()
        assert len(cache) == 0


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
            workload.bodies[:17], config, caches=QueryCaches(4, 2)
        )
        for address in workload.probe_addresses.values():
            answer_query(system, address)
        assert len(system.resolution_cache) <= 4
        assert len(system.segment_cache) <= 2
        assert system.caches.stats()["segments"]["max_entries"] == 2

    def test_clear_query_caches_still_works(self, serving_setup):
        workload, config, _system = serving_setup
        system = build_system(workload.bodies[:17], config)
        address = _onchain_address(workload)
        answer_query(system, address)
        assert len(system.segment_cache) > 0
        assert len(system.resolution_cache) > 0
        system.clear_query_caches()
        assert len(system.segment_cache) == 0
        assert len(system.resolution_cache) == 0
        # and the caches still fill again afterwards
        answer_query(system, address)
        assert len(system.segment_cache) > 0


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
        segment_keys_before = set(system.segment_cache.keys())
        resolutions_before = len(system.resolution_cache)
        assert segment_keys_before and resolutions_before

        system.append_block(workload.bodies[17])

        # Tip-keyed response bytes are gone; append-stable memos are not.
        assert len(node.response_cache) == 0
        assert set(system.segment_cache.keys()) == segment_keys_before
        assert len(system.resolution_cache) == resolutions_before

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
    """Only whole-span multiproofs are filed (DESIGN.md §8): a clipped
    one can be hit again only by the very ``(address, first, last)`` the
    response cache in front already absorbs, so filing it would grow
    the memo by one never-read entry per cold range query."""

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
        keys = set(system.segment_cache.keys())
        assert len(keys) == 2 * len(addresses)
        # Every (first, last) below cuts both spans short of an edge.
        ranges = [(first, last) for first in range(2, 8) for last in range(10, 16)]
        for address in addresses:
            for first, last in ranges:
                answer_query(system, address, first, last)
        for first in range(2, 13):
            answer_batch_query(system, addresses, first, first + 3)  # quarter chain
        assert set(system.segment_cache.keys()) == keys

    def test_whole_span_inside_a_range_is_still_filed_and_hit(
        self, serving_setup
    ):
        workload, config, _shared = serving_setup
        system = build_system(workload.bodies[:17], config)
        address = _onchain_address(workload)
        answer_query(system, address, 5, 16)  # 1-8 clipped, 9-16 whole
        assert [key[2:4] for key in system.segment_cache.keys()] == [(9, 16)]
        hits = system.caches.stats()["segments"]["hits"]
        answer_query(system, address, 3, 16)  # a different range, same span
        answer_query(system, address)
        assert system.caches.stats()["segments"]["hits"] == hits + 2

    def test_reorg_evicts_filed_spans_above_the_fork(self, serving_setup):
        system, addresses = self._warmed(serving_setup)
        evicted = system.caches.on_reorg(12)
        assert evicted["segments"] == len(addresses)
        assert {key[2:4] for key in system.segment_cache.keys()} == {(1, 8)}
