"""The worker-pool query server: dispatch, backpressure, stats, and the
queries-racing-appends stress test.

The stress test is the concurrency deliverable's acceptance check: many
client threads query (hot and distinct addresses) while another thread
extends the chain with ``append_block``; every answer must verify
against the header prefix of the tip it was answered at — i.e. an
answer is never assembled over a half-appended block — and must carry
exactly the ground-truth history for its range.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.errors import (
    BackpressureError,
    EncodingError,
    QueryError,
    RateLimitedError,
    RequestShedError,
    ServerOverloadedError,
)
from repro.node.full_node import FullNode
from repro.node.messages import (
    BatchQueryRequest,
    HeadersRequest,
    HeadersResponse,
    QueryRequest,
    QueryResponse,
)
from repro.node.metrics import parse_metrics, render_metrics
from repro.node.server import QueryServer, _percentile
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.verifier import verify_result
from repro.workload.generator import WorkloadParams, generate_workload

NUM_BLOCKS = 22
BUILT_BLOCKS = 17  # bodies beyond this index are appended by tests
CONFIG = SystemConfig.lvq(bf_bytes=192, segment_len=8)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadParams(num_blocks=NUM_BLOCKS, txs_per_block=6, seed=23)
    )


@pytest.fixture()
def system(workload):
    return build_system(workload.bodies[:BUILT_BLOCKS], CONFIG)


@pytest.fixture()
def server(system):
    with QueryServer(FullNode(system), num_workers=4, max_pending=32) as srv:
        yield srv


def _result_of(response_bytes: bytes):
    return QueryResponse.deserialize(response_bytes, CONFIG).result


class _GatedFullNode(FullNode):
    """Honest node whose query handling blocks until the gate opens."""

    def __init__(self, system, gate: threading.Event) -> None:
        super().__init__(system)
        self._gate = gate

    def handle_query(self, payload: bytes) -> bytes:
        self._gate.wait()
        return super().handle_query(payload)


def _wait_for(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class TestDispatchAndServe:
    def test_query_roundtrip_verifies(self, server, system, workload):
        address = workload.probe_addresses["Addr3"]
        result = _result_of(server.query(address))
        history = verify_result(result, system.headers(), CONFIG, address)
        expected = [
            (height, tx.txid())
            for height, tx in workload.history_of(address)
            if 1 <= height <= BUILT_BLOCKS - 1
        ]
        assert [
            (height, tx.txid()) for height, tx in history.transactions
        ] == expected

    def test_headers_frame_dispatches(self, server, system):
        response_bytes = server.submit(
            HeadersRequest(0).serialize()
        ).result(5)
        response = HeadersResponse.deserialize(
            response_bytes,
            CONFIG.header_extension_kind,
            CONFIG.header_bloom_bytes,
        )
        assert len(response.headers) == BUILT_BLOCKS

    def test_batch_frame_dispatches(self, server, workload):
        request = BatchQueryRequest(
            [workload.probe_addresses["Addr3"], workload.probe_addresses["Addr4"]]
        )
        response = server.submit(request.serialize()).result(5)
        assert response  # decoded/verified elsewhere; dispatch is the point

    def test_unknown_tag_and_empty_payload_rejected(self, server):
        with pytest.raises(QueryError):
            server.submit(b"")
        with pytest.raises(QueryError):
            server.submit(bytes([99]) + b"junk")

    def test_malformed_query_is_queued_and_rejected_typed(self, server):
        future = server.submit(bytes([QueryRequest.type_tag]) + b"\xff\xff")
        with pytest.raises(EncodingError):
            future.result(5)
        stats = server.stats()
        assert (stats["failed"], stats["inline_hits"]) == (1, 0)
        assert stats["admission"]["classes"]["interactive"]["admitted"] == 1

    def test_handler_errors_flow_through_future(self, server):
        future = server.submit(QueryRequest("absent", 5, 2).serialize())
        with pytest.raises(QueryError):
            future.result(5)
        assert server.stats()["failed"] >= 1

    def test_identical_queries_hit_response_cache(self, server, workload):
        address = workload.probe_addresses["Addr4"]
        first = server.query(address)
        second = server.query(address)
        assert first == second
        assert server.stats()["caches"]["responses"]["hits"] >= 1


class TestBatchValidation:
    """Satellite: the batch RPC validates addresses like the single path."""

    def test_empty_address_in_batch_rejected(self, system, workload):
        node = FullNode(system)
        payload = BatchQueryRequest(
            [workload.probe_addresses["Addr3"], ""]
        ).serialize()
        with pytest.raises(QueryError, match="empty address"):
            node.handle_batch_query(payload)

    def test_all_empty_batch_rejected(self, system):
        node = FullNode(system)
        payload = BatchQueryRequest([""]).serialize()
        with pytest.raises(QueryError, match="empty address"):
            node.handle_batch_query(payload)

    def test_answer_batch_query_rejects_empty_addresses(self, system):
        from repro.query.batch import answer_batch_query

        with pytest.raises(QueryError):
            answer_batch_query(system, [])
        with pytest.raises(QueryError, match="empty address"):
            answer_batch_query(system, ["addr", ""])


class TestBackpressure:
    def test_overload_rejects_with_typed_error(self, system, workload):
        gate = threading.Event()
        node = _GatedFullNode(system, gate)
        address = workload.probe_addresses["Addr3"]
        server = QueryServer(node, num_workers=1, max_pending=2)
        try:
            accepted = []
            overloaded = None
            for _ in range(6):
                try:
                    accepted.append(server.submit_query(address))
                except ServerOverloadedError as exc:
                    overloaded = exc
                    break
                time.sleep(0.02)  # let the worker pull the first item
            assert overloaded is not None, "queue bound never engaged"
            # capacity = 1 in flight + max_pending queued
            assert len(accepted) <= 3
            assert overloaded.max_pending == 2
            assert overloaded.details()["kind"] == "ServerOverloadedError"
            assert server.stats()["rejected"] == 1

            gate.set()  # drain: every accepted request must still finish
            for future in accepted:
                assert future.result(5)
        finally:
            gate.set()
            server.close()

    def test_rejection_is_immediate_not_blocking(self, system, workload):
        gate = threading.Event()
        server = QueryServer(
            _GatedFullNode(system, gate), num_workers=1, max_pending=1
        )
        address = workload.probe_addresses["Addr4"]
        try:
            with pytest.raises(ServerOverloadedError):
                start = time.perf_counter()
                for _ in range(4):
                    server.submit_query(address)
                    time.sleep(0.02)
            assert time.perf_counter() - start < 2.0
        finally:
            gate.set()
            server.close()


class TestLifecycle:
    def test_close_drains_backlog(self, system, workload):
        node = FullNode(system)
        server = QueryServer(node, num_workers=2, max_pending=16)
        futures = [
            server.submit_query(address)
            for address in workload.probe_addresses.values()
        ]
        server.close(drain=True)
        for future in futures:
            assert future.result(5)
        with pytest.raises(QueryError, match="closed"):
            server.submit_query("anything")

    def test_close_without_drain_fails_pending(self, system, workload):
        gate = threading.Event()
        server = QueryServer(
            _GatedFullNode(system, gate), num_workers=1, max_pending=8
        )
        address = workload.probe_addresses["Addr3"]
        futures = [server.submit_query(address) for _ in range(4)]
        time.sleep(0.05)  # worker blocks on the first request
        gate_opened_at = None
        server_closer = threading.Thread(
            target=lambda: server.close(drain=False)
        )
        server_closer.start()
        time.sleep(0.05)
        gate.set()
        server_closer.join(5)
        outcomes = []
        for future in futures:
            try:
                outcomes.append(("ok", future.result(5)))
            except QueryError as exc:
                outcomes.append(("err", str(exc)))
        assert any(kind == "err" for kind, _ in outcomes)

    def test_drain_reports_idle(self, server, workload):
        server.query(workload.probe_addresses["Addr4"])
        assert server.drain(timeout=5)

    def test_cancelled_request_is_counted_as_cancelled(self, system, workload):
        gate = threading.Event()
        server = QueryServer(
            _GatedFullNode(system, gate), num_workers=1, max_pending=8
        )
        address = workload.probe_addresses["Addr3"]
        try:
            running = server.submit_query(address)
            _wait_for(lambda: server.stats()["in_flight"] == 1)
            queued = server.submit_query(address)
            assert queued.cancel()
            gate.set()
            assert running.result(5)
            assert server.drain(timeout=5)
            stats = server.stats()
            parsed = parse_metrics(render_metrics(server=server))
        finally:
            gate.set()
            server.close()
        assert (stats["completed"], stats["cancelled"]) == (1, 1)
        assert stats["admission"]["classes"]["interactive"]["completed"] == 1
        assert parsed["lvq_requests_cancelled_total"] == 1.0

    def test_close_timeout_bounds_drain_and_joins_together(
        self, system, workload
    ):
        gate = threading.Event()
        server = QueryServer(
            _GatedFullNode(system, gate), num_workers=3, max_pending=8
        )
        address = workload.probe_addresses["Addr3"]
        try:
            futures = [server.submit_query(address) for _ in range(3)]
            _wait_for(lambda: server.stats()["in_flight"] == 3)
            started = time.monotonic()
            server.close(drain=True, timeout=0.2)
            elapsed = time.monotonic() - started
        finally:
            gate.set()
        assert elapsed < 0.2 + 0.15, f"close took {elapsed:.2f}s"
        for future in futures:
            assert future.result(5)
        for worker in server._workers:
            worker.join(5)

    def test_stats_shape(self, server, workload):
        server.query(workload.probe_addresses["Addr3"])
        stats = server.stats()
        assert stats["workers"] == 4
        assert stats["completed"] >= 1
        assert stats["in_flight"] == 0
        assert set(stats["latency"]) == {
            "count", "mean_ms", "p50_ms", "p99_ms", "max_ms",
        }
        assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"] >= 0
        assert "queue_wait" in stats and "service" in stats
        assert "responses" in stats["caches"]
        assert "segments" in stats["caches"]

    def test_percentile_is_nearest_rank(self):
        # rank ceil(q * n), as benchmarks/e2e/stats.percentile: the p50
        # of four samples is the second, not a rounded interpolation.
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
        assert _percentile([7.0], 0.50) == 7.0
        assert _percentile([], 0.50) == 0.0


class TestConcurrentServingStress:
    """Many clients query while the chain grows underneath them."""

    def test_queries_racing_appends_always_verify(self, workload):
        system = build_system(workload.bodies[:BUILT_BLOCKS], CONFIG)
        node = FullNode(system)
        # Ground truth over the *full* final chain, indexed by address.
        addresses = list(workload.probe_addresses.values())[2:] + [
            sorted(workload.bodies[3][0].addresses())[0],
            sorted(workload.bodies[7][0].addresses())[0],
        ]
        truth = {
            address: [
                (height, tx.txid())
                for height, tx in workload.history_of(address)
            ]
            for address in addresses
        }
        failures = []
        header_lock = threading.Lock()
        header_bytes = [h.serialize() for h in system.headers()]

        def appender():
            for body in workload.bodies[BUILT_BLOCKS:]:
                time.sleep(0.05)
                system.append_block(body)
                with header_lock:
                    del header_bytes[:]
                    header_bytes.extend(
                        h.serialize() for h in system.headers()
                    )

        def client(worker: int):
            # Each worker hammers a hot shared address and its own one.
            own = addresses[worker % len(addresses)]
            hot = addresses[0]
            for i in range(10):
                address = hot if i % 2 == 0 else own
                try:
                    result = _result_of(server.query(address, timeout=30))
                    # Headers the client "held at request time": the
                    # prefix of the final chain up to the answered tip —
                    # identical bytes, because the chain is append-only.
                    with header_lock:
                        known = len(header_bytes)
                    assert result.tip_height < max(known, BUILT_BLOCKS) + 5
                    headers = [
                        h
                        for h in system.chain.headers()[: result.tip_height + 1]
                    ]
                    history = verify_result(result, headers, CONFIG, address)
                    got = [
                        (height, tx.txid())
                        for height, tx in history.transactions
                    ]
                    expected = [
                        pair
                        for pair in truth[address]
                        if 1 <= pair[0] <= result.last_height
                    ]
                    if got != expected:
                        failures.append(
                            f"{address} at tip {result.tip_height}: "
                            f"{len(got)} txs != {len(expected)} expected"
                        )
                except Exception as exc:  # noqa: BLE001 — collect, don't die
                    failures.append(f"worker {worker}: {type(exc).__name__}: {exc}")

        with QueryServer(node, num_workers=6, max_pending=128) as server:
            grower = threading.Thread(target=appender)
            clients = [
                threading.Thread(target=client, args=(w,)) for w in range(6)
            ]
            grower.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            grower.join()

        assert not failures, failures[:5]
        # bodies run 0..NUM_BLOCKS (genesis extra), so the final tip is
        # NUM_BLOCKS once every held-back body has been appended.
        assert system.tip_height == NUM_BLOCKS

    def test_coalescing_under_thundering_herd(self, workload):
        """N concurrent identical cold queries → exactly one proof build."""
        system = build_system(workload.bodies[:BUILT_BLOCKS], CONFIG)
        node = FullNode(system)
        address = workload.probe_addresses["Addr6"]
        with QueryServer(node, num_workers=8, max_pending=64) as server:
            futures = [server.submit_query(address) for _ in range(24)]
            payloads = {future.result(30) for future in futures}
        assert len(payloads) == 1
        stats = node.response_cache.stats()
        assert stats["flights"] == 1
        assert stats["coalesced"] + stats["hits"] == 23


def _counting_handle_query(node: FullNode) -> "list[bytes]":
    """Route ``node.handle_query`` through a list of the payloads it ran."""
    calls: "list[bytes]" = []
    original = node.handle_query

    def handle_query(payload: bytes) -> bytes:
        calls.append(payload)
        return original(payload)

    node.handle_query = handle_query
    return calls


class TestInlineHits:
    """A cached single query is answered at submit, after admission."""

    def test_repeat_is_answered_without_handle_query(self, system, workload):
        node = FullNode(system)
        calls = _counting_handle_query(node)
        address = workload.probe_addresses["Addr4"]
        with QueryServer(node, num_workers=2) as server:
            first = server.query(address)
            future = server.submit_query(address)
            assert future.done(), "a hit must come back already resolved"
            assert future.result() == first
            stats = server.stats()
        assert len(calls) == 1
        assert stats["inline_hits"] == 1
        assert stats["completed"] == 2 and stats["submitted"] == 2
        # The latency windows cover the one request a worker ran.
        assert stats["latency"]["count"] == 1

    def test_one_decode_per_hit_two_per_miss(
        self, system, workload, monkeypatch
    ):
        decoded = []
        original = QueryRequest.deserialize.__func__

        def counting(cls, payload):
            decoded.append(payload)
            return original(cls, payload)

        monkeypatch.setattr(QueryRequest, "deserialize", classmethod(counting))
        address = workload.probe_addresses["Addr4"]
        with QueryServer(FullNode(system), num_workers=2) as server:
            server.query(address)  # a miss: submit, then handle_query
            assert len(decoded) == 2
            for _ in range(5):
                server.submit_query(address).result(5)
            assert server.stats()["inline_hits"] == 5
        assert len(decoded) == 2 + 5

    def test_hit_is_admitted_completed_and_counted_by_the_cache(
        self, system, workload
    ):
        node = FullNode(system)
        address = workload.probe_addresses["Addr3"]
        with QueryServer(node, num_workers=2) as server:
            server.query(address)
            server.submit_query(address).result(5)
            stats = server.stats()
        admission = stats["admission"]
        assert admission["admitted"] == 2
        assert admission["classes"]["interactive"]["admitted"] == 2
        assert admission["classes"]["interactive"]["completed"] == 2
        responses = stats["caches"]["responses"]
        assert (responses["hits"], responses["misses"]) == (1, 1)

    def test_rate_limited_client_is_refused_on_a_cached_key(
        self, system, workload
    ):
        node = FullNode(system)
        address = workload.probe_addresses["Addr4"]
        with QueryServer(
            node, num_workers=2, rate_limit=0.01, rate_burst=1
        ) as server:
            warm = server.query(address)  # client None: not rate limited
            assert server.submit_query(address, client="c").result(5) == warm
            with pytest.raises(RateLimitedError):
                server.submit_query(address, client="c")
            stats = server.stats()
        assert stats["inline_hits"] == 1
        assert stats["rejected"] == 1
        assert stats["admission"]["ratelimited"] == 1

    def test_shed_all_refuses_a_cached_key(self, system, workload):
        node = FullNode(system)
        address = workload.probe_addresses["Addr4"]
        gate = threading.Event()
        original = node.handle_query

        def gated(payload: bytes) -> bytes:
            gate.wait(10.0)
            return original(payload)

        server = QueryServer(
            node, num_workers=1, max_pending=8, watermarks=(1, 2, 3)
        )
        try:
            server.query(address)
            node.handle_query = gated
            # Distinct cold keys pile up behind the gated worker until
            # the watermark state refuses everything that would queue.
            queued = []
            for index in range(8):
                if server.stats()["admission"]["state"] == "shed_all":
                    break
                queued.append(server.submit_query(f"cold-{index}"))
            assert server.stats()["admission"]["state"] == "shed_all"
            with pytest.raises(RequestShedError):
                server.submit_query(address)
            assert server.stats()["inline_hits"] == 0
            gate.set()
            for future in queued:
                future.exception(10.0)  # unknown addresses: answered
        finally:
            gate.set()
            server.close()

    @pytest.mark.parametrize("override", ["answer", "handle_query"])
    def test_a_subclass_that_answers_its_own_way_always_queues(
        self, system, workload, override
    ):
        answered = []

        def answer(self, *args):
            answered.append(args)
            return FullNode.answer(self, *args)

        def handle_query(self, payload):
            answered.append(payload)
            return FullNode.handle_query(self, payload)

        methods = {"answer": answer, "handle_query": handle_query}
        node = type("Custom", (FullNode,), {override: methods[override]})(
            system
        )
        address = workload.probe_addresses["Addr4"]
        payload = QueryRequest(address).serialize()
        # Even bytes already under the key are never taken inline.
        with system.lock.read():
            key = node._response_key(QueryRequest(address))
        node.response_cache.get_or_build(key, lambda: b"planted")
        assert node.cached_response(QueryRequest(address)) is None
        with QueryServer(node, num_workers=2) as server:
            server.query(address)
            server.query(address)
            assert server.stats()["inline_hits"] == 0
        assert len(answered) == 2


class TestLockProbe:
    """The probe tries the read lock; a writer sends the request to the
    queue instead of stalling the submitter."""

    def test_held_write_lock_falls_back_to_the_queue(self, system, workload):
        node = FullNode(system)
        calls = _counting_handle_query(node)
        address = workload.probe_addresses["Addr4"]
        holding, release = threading.Event(), threading.Event()

        def writer():
            with system.lock.write():
                holding.set()
                release.wait(10.0)

        with QueryServer(node, num_workers=2) as server:
            warm = server.query(address)
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                assert holding.wait(5.0)
                payload = QueryRequest(address).serialize()
                assert node.cached_response(QueryRequest(address)) is None
                started = time.monotonic()
                future = server.submit(payload)
                assert time.monotonic() - started < 0.5
                assert not future.done()  # queued behind the writer
            finally:
                release.set()
                thread.join(5.0)
            assert future.result(5) == warm
            stats = server.stats()
        assert len(calls) == 2
        assert stats["inline_hits"] == 0
        # The fallen-back request still hit the cache on the worker.
        assert stats["caches"]["responses"]["hits"] == 1

    def test_repeat_after_equal_length_reorg_gets_the_new_fork(
        self, system, workload
    ):
        node = FullNode(system)
        address = workload.probe_addresses["Addr6"]
        tip = system.tip_height
        with QueryServer(node, num_workers=2) as server:
            old = server.query(address)
            assert server.submit_query(address).result(5) == old  # cached
            replaced, appended = server.reorg(
                tip - 2, workload.bodies[BUILT_BLOCKS : BUILT_BLOCKS + 2]
            )
            assert (replaced, appended) == (2, 2)
            assert system.tip_height == tip
            new = server.query(address)
            again = server.submit_query(address)
            assert again.done() and again.result() == new
        assert new != old
        assert new == FullNode(system).handle_query(
            QueryRequest(address).serialize()
        )
        result = _result_of(new)
        verify_result(result, system.headers(), CONFIG, address)

    def test_probes_racing_appends_account_for_every_request(self, workload):
        """More submitters than cores, a short switch interval, appends
        underneath: every request is answered once and counted once, and
        every answer verifies against the tip it names."""
        system = build_system(workload.bodies[:BUILT_BLOCKS], CONFIG)
        node = FullNode(system)
        hot = workload.probe_addresses["Addr4"]
        clients, per_client = 8, 40
        answers, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(node, num_workers=3, max_pending=256) as server:

                def client():
                    for _ in range(per_client):
                        try:
                            answers.append(
                                server.submit_query(hot).result(30)
                            )
                        except Exception as exc:  # noqa: BLE001 - collect
                            errors.append(exc)

                def appender():
                    for body in workload.bodies[BUILT_BLOCKS:]:
                        system.append_block(body)
                        time.sleep(0.005)

                threads = [
                    threading.Thread(target=client) for _ in range(clients)
                ] + [threading.Thread(target=appender)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        total = clients * per_client
        assert len(answers) == total
        assert stats["submitted"] == stats["completed"] == total
        assert stats["admission"]["admitted"] == total
        assert stats["admission"]["classes"]["interactive"]["completed"] == total
        assert stats["inline_hits"] > 0
        assert stats["inline_hits"] + stats["latency"]["count"] == total
        for response in set(answers):
            result = _result_of(response)
            headers = system.chain.headers()[: result.tip_height + 1]
            verify_result(result, headers, CONFIG, hot)


class TestAccounting:
    """Every stats() snapshot balances, whatever races underneath it."""

    def test_snapshots_balance_under_races(self, workload):
        system = build_system(workload.bodies[:BUILT_BLOCKS], CONFIG)
        node = FullNode(system)
        addresses = list(workload.probe_addresses.values())
        hot = workload.probe_addresses["Addr4"]
        clients, per_client = 8, 40
        errors, violations = [], []
        cancelled = [0] * clients
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(
                node,
                num_workers=2,
                max_pending=12,
                rate_limit=50.0,
                rate_burst=5.0,
            ) as server:

                def client(index: int) -> None:
                    # Half the clients are rate limited, half anonymous.
                    identity = f"c{index}" if index % 2 else None
                    rng = random.Random(index)
                    for step in range(per_client):
                        address = hot if step % 2 else rng.choice(addresses)
                        first = 1 + rng.randrange(3)
                        # Every third request a bounded range: backfill
                        # class, the first one shed.
                        last = first + 4 if step % 3 == 0 else 0
                        try:
                            future = server.submit_query(
                                address, first, last, client=identity
                            )
                        except BackpressureError:
                            continue
                        if step % 4 == 0 and future.cancel():
                            cancelled[index] += 1
                            continue
                        try:
                            future.result(30)
                        except Exception as exc:  # noqa: BLE001 - collect
                            errors.append(exc)

                def appender() -> None:
                    for body in workload.bodies[BUILT_BLOCKS:]:
                        system.append_block(body)
                        time.sleep(0.005)

                def auditor() -> None:
                    while not stop.is_set():
                        stats = server.stats()
                        admission = stats["admission"]
                        settled = (
                            stats["completed"]
                            + stats["failed"]
                            + stats["cancelled"]
                            + stats["in_flight"]
                            + stats["queue_depth"]
                        )
                        refused = (
                            admission["ratelimited"]
                            + admission["shed"]
                            + admission["queue_full"]
                        )
                        if admission["admitted"] != settled:
                            violations.append(("admitted", stats))
                        if stats["rejected"] != refused:
                            violations.append(("rejected", stats))

                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(clients)
                ] + [threading.Thread(target=appender)]
                watcher = threading.Thread(target=auditor)
                watcher.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
                assert server.drain(timeout=30)
                stop.set()
                watcher.join(10.0)
                final = server.stats()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not violations, violations[:1]
        assert not errors, errors[:3]
        assert final["cancelled"] == sum(cancelled)
        assert final["admission"]["admitted"] == (
            final["completed"] + final["failed"] + final["cancelled"]
        )
        assert final["inline_hits"] > 0
