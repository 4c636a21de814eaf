"""The admission-control layer: token buckets, watermark shedding,
weighted-fair scheduling, classification, and the metrics exporter.

The integration tests at the bottom drive a real :class:`QueryServer`
(gated workers) through the staged-degradation story the ISSUE
promises: a filling queue sheds batch first, then low-priority, then
everything — with typed, retry-hinted refusals — while one hot client
exhausts its own token bucket without denting anyone else.
"""

from __future__ import annotations

import threading
import time
import urllib.request

import pytest

from repro.errors import (
    QueryError,
    RateLimitedError,
    RequestShedError,
    ServerOverloadedError,
)
from repro.node.admission import (
    PRIO_BACKFILL,
    PRIO_BATCH,
    PRIO_INTERACTIVE,
    PRIO_SYNC,
    STATE_NORMAL,
    STATE_SHED_ALL,
    STATE_SHED_BATCH,
    STATE_SHED_LOW,
    FairScheduler,
    RateLimiter,
    TokenBucket,
    WatermarkShedder,
    classify,
)
from repro.node.full_node import FullNode
from repro.node.messages import (
    AggregatedBatchRequest,
    BatchQueryRequest,
    DeltaHeadersRequest,
    HeadersRequest,
    QueryRequest,
)
from repro.node.metrics import MetricsServer, parse_metrics, render_metrics
from repro.node.server import QueryServer
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload

CONFIG = SystemConfig.lvq(bf_bytes=192, segment_len=8)
_QUERY = QueryRequest("a").serialize()


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadParams(num_blocks=18, txs_per_block=5, seed=29)
    )


@pytest.fixture(scope="module")
def system(workload):
    return build_system(workload.bodies, CONFIG)


class _GatedFullNode(FullNode):
    """Honest node whose query handling blocks until the gate opens."""

    def __init__(self, system, gate: threading.Event) -> None:
        super().__init__(system)
        self._gate = gate

    def handle_query(self, payload: bytes) -> bytes:
        self._gate.wait()
        return super().handle_query(payload)

    def handle_batch_query(self, payload: bytes) -> bytes:
        self._gate.wait()
        return super().handle_batch_query(payload)

    def handle_headers(self, payload: bytes) -> bytes:
        self._gate.wait()
        return super().handle_headers(payload)


class TestClassify:
    def test_open_ended_query_is_interactive(self):
        payload = QueryRequest("addr", 1, 0).serialize()
        assert classify(payload) == PRIO_INTERACTIVE

    def test_bounded_range_query_is_backfill(self):
        payload = QueryRequest("addr", 3, 9).serialize()
        assert classify(payload) == PRIO_BACKFILL

    def test_header_requests_are_sync(self):
        assert classify(HeadersRequest(0).serialize()) == PRIO_SYNC
        assert classify(DeltaHeadersRequest(4).serialize()) == PRIO_SYNC

    def test_batch_requests_are_batch(self):
        assert classify(BatchQueryRequest(["a"]).serialize()) == PRIO_BATCH
        assert (
            classify(AggregatedBatchRequest(["a"]).serialize())
            == PRIO_BATCH
        )

    def test_malformed_query_defaults_interactive(self):
        payload = bytes([QueryRequest.type_tag]) + b"\xff\xff"
        assert classify(payload) == PRIO_INTERACTIVE


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.take(0.0) == (True, 0.0)
        assert bucket.take(0.0) == (True, 0.0)
        ok, retry_after = bucket.take(0.0)
        assert not ok
        assert retry_after == pytest.approx(0.1)
        # After the hinted wait the bucket holds exactly one token.
        ok, _ = bucket.take(retry_after)
        assert ok

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        bucket.take(1000.0)  # long idle: refill clamps at burst
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)


class TestRateLimiter:
    def test_hot_client_limited_others_unaffected(self):
        clock = [0.0]
        limiter = RateLimiter(rate=5.0, burst=3.0, clock=lambda: clock[0])
        for _ in range(3):
            limiter.check("hot")
        with pytest.raises(RateLimitedError) as info:
            limiter.check("hot")
        assert info.value.retry_after is not None
        assert info.value.retry_after > 0
        limiter.check("cold")  # a different identity: full bucket
        assert limiter.rejected == 1

    def test_bucket_refills_over_time(self):
        clock = [0.0]
        limiter = RateLimiter(rate=10.0, burst=1.0, clock=lambda: clock[0])
        limiter.check("c")
        with pytest.raises(RateLimitedError):
            limiter.check("c")
        clock[0] += 0.2
        limiter.check("c")  # refilled

    def test_identity_table_is_lru_bounded(self):
        limiter = RateLimiter(rate=1.0, max_clients=4, clock=lambda: 0.0)
        for index in range(8):
            limiter.check(f"client-{index}")
        assert limiter.clients() == 4
        assert limiter.evicted_clients == 4


class TestWatermarkShedder:
    def test_staged_escalation_and_refusal_sets(self):
        shedder = WatermarkShedder((4, 8, 12))
        assert shedder.observe(0) == STATE_NORMAL
        assert not shedder.refuses(PRIO_BATCH)
        assert shedder.observe(4) == STATE_SHED_BATCH
        assert shedder.refuses(PRIO_BATCH)
        assert shedder.refuses(PRIO_BACKFILL)
        assert not shedder.refuses(PRIO_SYNC)
        assert shedder.observe(8) == STATE_SHED_LOW
        assert shedder.refuses(PRIO_SYNC)
        assert not shedder.refuses(PRIO_INTERACTIVE)
        assert shedder.observe(12) == STATE_SHED_ALL
        assert shedder.refuses(PRIO_INTERACTIVE)

    def test_hysteresis_holds_until_clear_fraction(self):
        shedder = WatermarkShedder((4, 8, 12), clear_fraction=0.75)
        shedder.observe(4)
        assert shedder.state == STATE_SHED_BATCH
        # Depth 3 is below the watermark but not below 0.75 * 4 = 3.
        assert shedder.observe(3) == STATE_SHED_BATCH
        assert shedder.observe(2) == STATE_NORMAL

    def test_deescalation_can_skip_states(self):
        shedder = WatermarkShedder((4, 8, 12))
        shedder.observe(12)
        assert shedder.state == STATE_SHED_ALL
        assert shedder.observe(0) == STATE_NORMAL

    def test_transitions_counted_and_logged(self, caplog):
        shedder = WatermarkShedder((4, 8, 12))
        with caplog.at_level("WARNING", logger="repro.node.admission"):
            shedder.observe(4)
            shedder.observe(0)
        assert shedder.transitions == 2
        lines = [record.getMessage() for record in caplog.records]
        assert any(
            "previous=normal state=shed_batch" in line for line in lines
        )
        assert any(
            "previous=shed_batch state=normal" in line for line in lines
        )

    def test_rejects_non_increasing_watermarks(self):
        with pytest.raises(ValueError):
            WatermarkShedder((4, 4, 12))


class TestFairScheduler:
    def test_weighted_drain_ratio(self):
        scheduler = FairScheduler(weights=(3, 1, 1, 1))
        for index in range(30):
            scheduler.push(PRIO_INTERACTIVE, ("i", index))
            scheduler.push(PRIO_BATCH, ("b", index))
        first_12 = [scheduler.pop()[0] for _ in range(12)]
        # 3:1 ratio: every 4 consecutive pops hold 3 interactive, 1 batch.
        assert first_12.count(PRIO_INTERACTIVE) == 9
        assert first_12.count(PRIO_BATCH) == 3

    def test_batch_backlog_cannot_starve_interactive(self):
        scheduler = FairScheduler()
        for index in range(100):
            scheduler.push(PRIO_BATCH, index)
        scheduler.push(PRIO_INTERACTIVE, "urgent")
        popped = [scheduler.pop() for _ in range(16)]
        positions = [
            at for at, (priority, _item) in enumerate(popped)
            if priority == PRIO_INTERACTIVE
        ]
        assert positions and positions[0] < 16

    def test_fifo_within_one_class(self):
        scheduler = FairScheduler()
        for index in range(5):
            scheduler.push(PRIO_SYNC, index)
        drained = []
        while True:
            popped = scheduler.pop()
            if popped is None:
                break
            drained.append(popped[1])
        assert drained == [0, 1, 2, 3, 4]

    def test_drain_empties_everything(self):
        scheduler = FairScheduler()
        scheduler.push(PRIO_BATCH, "b")
        scheduler.push(PRIO_INTERACTIVE, "i")
        assert sorted(item for _p, item in scheduler.drain()) == ["b", "i"]
        assert scheduler.depth() == 0


class TestAdmissionController:
    """Admission as :class:`QueryServer` runs it: one gated worker holds
    the first request, so everything submitted after it stays queued."""

    @pytest.fixture()
    def busy(self, system):
        """``busy(**options)`` builds a one-worker server and parks its
        worker on a first request; ``busy.gate`` lets it go."""
        gate = threading.Event()
        servers = []

        def busy(**options):
            server = QueryServer(
                _GatedFullNode(system, gate), num_workers=1, **options
            )
            servers.append(server)
            server.submit(_QUERY)
            deadline = time.monotonic() + 5.0
            while server.stats()["in_flight"] == 0:
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.002)
            return server

        busy.gate = gate
        yield busy
        gate.set()
        for server in servers:
            server.close()

    def test_rate_limit_checked_before_queue(self, busy):
        server = busy(max_pending=8, rate_limit=0.01, rate_burst=1.0)
        server.submit(_QUERY, "hot")
        with pytest.raises(RateLimitedError):
            server.submit(_QUERY, "hot")
        server.submit(_QUERY, "cold")  # other identities unharmed
        server.submit(_QUERY, None)  # anonymous bypasses the limiter
        stats = server.stats()
        assert stats["admission"]["ratelimited"] == 1
        assert stats["queue_depth"] == 3  # the refusal never queued

    def test_staged_shedding_by_priority(self, busy):
        server = busy(max_pending=20, watermarks=(4, 8, 12))
        batch = BatchQueryRequest(["a"]).serialize()
        sync = HeadersRequest(0).serialize()
        for _ in range(4):
            server.submit(_QUERY)
        # Depth 4 = shed_batch: batch refused, sync and interactive pass.
        with pytest.raises(RequestShedError) as info:
            server.submit(batch)
        assert info.value.state == "shed_batch"
        assert info.value.retry_after > 0
        for _ in range(4):
            server.submit(sync)
        # Depth 8 = shed_low: sync refused too.
        with pytest.raises(RequestShedError) as info:
            server.submit(sync)
        assert info.value.state == "shed_low"
        for _ in range(4):
            server.submit(_QUERY)
        # Depth 12 = shed_all: even interactive refused.
        with pytest.raises(RequestShedError) as info:
            server.submit(_QUERY)
        assert info.value.state == "shed_all"
        report = server.stats()["admission"]
        assert report["shed"] == 3
        assert report["shed_by_state"]["shed_batch"] >= 1
        assert report["shed_by_state"]["shed_all"] >= 1
        assert [
            report["classes"][name]["shed"]
            for name in ("interactive", "sync", "batch")
        ] == [1, 1, 1]

    def test_hard_bound_overload_error(self, busy):
        server = busy(max_pending=3, watermarks=(10, 11, 12))
        for _ in range(3):
            server.submit(_QUERY)
        with pytest.raises(ServerOverloadedError) as info:
            server.submit(_QUERY)
        assert info.value.max_pending == 3
        assert info.value.retry_after > 0
        stats = server.stats()
        assert stats["admission"]["queue_full"] == 1
        assert stats["rejected"] == 1

    def test_worker_pop_clears_shed_state(self, busy):
        server = busy(max_pending=20, watermarks=(2, 8, 12))
        for _ in range(2):
            server.submit(_QUERY)
        assert server.stats()["admission"]["state"] == "shed_batch"
        busy.gate.set()
        assert server.drain(timeout=10)
        assert server.stats()["admission"]["state"] == "normal"

    def test_close_rejects_and_returns_backlog(self, busy):
        server = busy(max_pending=8)
        queued = server.submit(_QUERY)
        closer = threading.Thread(target=server.close, args=(False,))
        closer.start()
        with pytest.raises(QueryError, match="closed before request ran"):
            queued.result(5)
        with pytest.raises(QueryError, match="closed"):
            server.submit(_QUERY)
        busy.gate.set()  # the in-flight request still completes
        closer.join(5)
        assert not closer.is_alive()  # workers told to exit, and did
        stats = server.stats()
        assert (stats["completed"], stats["failed"]) == (1, 1)
        assert stats["in_flight"] == stats["queue_depth"] == 0


class TestQueryServerIntegration:
    def test_hot_client_rate_limited_others_served(self, system, workload):
        server = QueryServer(
            FullNode(system),
            num_workers=2,
            max_pending=32,
            rate_limit=50.0,
            rate_burst=3.0,
        )
        address = workload.probe_addresses["Addr3"]
        try:
            limited = 0
            for _ in range(6):  # burst well past the 3-token bucket
                try:
                    server.submit(
                        QueryRequest(address).serialize(), client="hot"
                    )
                except RateLimitedError:
                    limited += 1
            assert limited >= 1
            # The polite client is admitted and served to completion.
            future = server.submit(
                QueryRequest(address).serialize(), client="polite"
            )
            assert future.result(5)
            report = server.stats()
            assert report["admission"]["ratelimited"] == limited
            assert report["admission"]["rate_limit"]["clients"] == 2
        finally:
            server.close()

    def test_staged_shedding_under_gated_workers(self, system, workload):
        gate = threading.Event()
        server = QueryServer(
            _GatedFullNode(system, gate),
            num_workers=1,
            max_pending=20,
            watermarks=(4, 8, 12),
        )
        address = workload.probe_addresses["Addr4"]
        try:
            accepted = []
            # Fill past the first watermark with interactive queries.
            while server.stats()["queue_depth"] < 4:
                accepted.append(
                    server.submit(QueryRequest(address).serialize())
                )
            with pytest.raises(RequestShedError) as info:
                server.submit(BatchQueryRequest([address]).serialize())
            assert info.value.priority == "batch"
            assert server.stats()["admission"]["state"] == "shed_batch"
            gate.set()
            for future in accepted:
                assert future.result(10)  # admitted traffic all completes
            assert server.drain(timeout=10)
            assert server.stats()["admission"]["state"] == "normal"
        finally:
            gate.set()
            server.close()

    def test_stats_report_admission_block(self, system, workload):
        with QueryServer(FullNode(system), num_workers=2) as server:
            server.query(workload.probe_addresses["Addr3"])
            report = server.stats()
        admission = report["admission"]
        assert admission["state"] == "normal"
        assert admission["admitted"] == 1
        assert admission["classes"]["interactive"]["completed"] == 1
        assert "rate_limit" not in admission  # limiter off by default


class TestMetrics:
    def test_render_and_parse_roundtrip(self, system, workload):
        with QueryServer(
            FullNode(system), num_workers=2, rate_limit=100.0
        ) as server:
            server.query(workload.probe_addresses["Addr3"])
            text = render_metrics(server=server)
        parsed = parse_metrics(text)
        assert parsed["lvq_requests_completed_total"] == 1.0
        assert parsed["lvq_admission_state"] == 0.0
        assert parsed['lvq_admission_state_info{state="normal"}'] == 1.0
        assert parsed['lvq_class_completed{class="interactive"}'] == 1.0
        assert 'lvq_latency_ms{quantile="p99",stage="total"}' in parsed
        assert parsed["lvq_ratelimited_total"] == 0.0
        # Exposition hygiene: HELP/TYPE comments parse away cleanly.
        assert all(not key.startswith("#") for key in parsed)

    def test_cache_hit_rate_exported(self, system, workload):
        with QueryServer(FullNode(system), num_workers=2) as server:
            address = workload.probe_addresses["Addr4"]
            server.query(address)
            server.query(address)
            parsed = parse_metrics(render_metrics(server=server))
        assert parsed['lvq_cache_hit_rate{cache="responses"}'] > 0.0
        # The repeat was answered from the cache at submit: counted on
        # its own, and still among the completed requests.
        assert parsed["lvq_requests_inline_hits_total"] == 1.0
        assert parsed["lvq_requests_completed_total"] == 2.0

    def test_prover_memo_bytes_exported(self, system, workload):
        with QueryServer(FullNode(system), num_workers=2) as server:
            server.query(workload.probe_addresses["Addr6"])
            caches = server.stats()["caches"]
            parsed = parse_metrics(render_metrics(server=server))
        for name in ("resolutions", "segments"):
            memo = caches[name]
            key = 'lvq_cache_counter{cache="%s",counter="%%s"}' % name
            assert parsed[key % "bytes"] == memo["bytes"] > 0
            assert parsed[key % "max_bytes"] == memo["max_bytes"]

    def test_http_endpoint_scrapes(self, system, workload):
        with QueryServer(FullNode(system), num_workers=2) as server:
            with MetricsServer(port=0, server=server) as metrics:
                host, port = metrics.address
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=5
                ) as response:
                    assert response.status == 200
                    assert "text/plain" in response.headers["Content-Type"]
                    body = response.read().decode("utf-8")
        parsed = parse_metrics(body)
        assert "lvq_queue_depth" in parsed
        assert parsed["lvq_requests_inline_hits_total"] == 0.0
        assert metrics.scrapes == 1


class TestOverloadNeverQuarantines:
    """Satellite regression: overload is traffic, not malice."""

    def test_record_overload_never_bans_or_ladders(self):
        from repro.node.session import Peer

        peer = Peer("busy", node=None)
        for _ in range(50):  # a *sustained* overload storm
            peer.record_overload(
                ServerOverloadedError(9, 8, retry_after=0.05), now=0.0
            )
        assert not peer.banned
        assert peer.quarantined_until == 0.0  # the ladder never engaged
        assert peer.consecutive_failures == 0
        assert peer.score == 1.0
        assert peer.stats.overloads == 50
        # The hold-off is flat (the hint), not exponential.
        assert peer.overloaded_until == pytest.approx(0.05)
        assert not peer.available(0.0)
        assert peer.available(0.06)

    def test_session_classifies_backpressure_as_overload(self, system):
        from repro.node.light_node import LightNode
        from repro.node.session import Peer, QuerySession, RetryPolicy

        class _OverloadedNode(FullNode):
            def handle_query(self, payload: bytes) -> bytes:
                raise ServerOverloadedError(9, 8, retry_after=0.01)

        peer = Peer("busy", _OverloadedNode(system))
        session = QuerySession(
            LightNode.from_full_node(FullNode(system)),
            [peer],
            retry=RetryPolicy(max_rounds=2, base_delay=0.01, jitter=0.0),
        )
        with pytest.raises(Exception):
            session.query("absent-address")
        assert not peer.banned
        assert peer.quarantined_until == 0.0
        assert peer.stats.overloads >= 1
        assert peer.stats.transport_failures == 0
