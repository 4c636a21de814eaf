"""Unit tests for the fault-injection layer (link and peer chaos)."""

import pytest

from repro.errors import (
    EncodingError,
    RequestTimeoutError,
    TransportError,
)
from repro.node.faults import (
    ByzantineFlakyFullNode,
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
    FlakyFullNode,
    plan_frame,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import QueryRequest
from repro.node.transport import InProcessTransport, LinkModel, SimulatedClock
from repro.query.adversary import omit_one_transaction


class TestFaultSchedule:
    def test_deterministic_for_seed(self):
        a = FaultSchedule.drops(0.5, seed=11)
        b = FaultSchedule.drops(0.5, seed=11)
        draws_a = [bool(a.draw("to_server")) for _ in range(50)]
        draws_b = [bool(b.draw("to_server")) for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_scripted_fires_exactly_once(self):
        schedule = FaultSchedule.scripted([(2, FaultKind.DROP)])
        fired = [bool(schedule.draw("to_server")) for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_direction_filter(self):
        rule = FaultRule(FaultKind.CORRUPT, direction="to_client")
        schedule = FaultSchedule([rule])
        assert not schedule.draw("to_server")
        assert schedule.draw("to_client")

    def test_is_benign(self):
        assert FaultSchedule.drops(0.3).is_benign
        assert FaultSchedule.latency(2.0).is_benign
        assert not FaultSchedule(
            [FaultRule(FaultKind.CORRUPT, probability=0.1)]
        ).is_benign

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(FaultKind.DROP, direction="sideways")
        with pytest.raises(ValueError):
            FaultRule(FaultKind.DROP, probability=1.5)


class TestFaultyTransportFaults:
    def _transport(self, events, clock=None, **kwargs):
        return FaultyTransport(
            schedule=FaultSchedule.scripted(events), clock=clock, **kwargs
        )

    def test_clean_passthrough_counts_bytes(self):
        transport = self._transport([])
        assert transport.send_to_server(b"abc") == b"abc"
        assert transport.stats.bytes_to_server == 3
        assert not transport.is_closed

    def test_drop_raises_timeout_and_burns_deadline(self):
        clock = SimulatedClock()
        transport = self._transport([(0, FaultKind.DROP)], clock=clock)
        transport.arm_timeout(3.0)
        with pytest.raises(RequestTimeoutError) as excinfo:
            transport.send_to_server(b"request")
        assert excinfo.value.timeout_seconds == 3.0
        assert excinfo.value.elapsed_seconds > 3.0
        assert clock.now() > 3.0  # the client waited the timeout out
        # The sender's bytes crossed the first hop and are charged.
        assert transport.stats.bytes_to_server == 7

    def test_truncate_loses_the_tail(self):
        transport = self._transport([(0, FaultKind.TRUNCATE)])
        delivered = transport.send_to_server(b"0123456789")
        assert len(delivered) < 10
        assert b"0123456789".startswith(delivered)

    def test_corrupt_flips_bytes(self):
        transport = self._transport([(0, FaultKind.CORRUPT)])
        delivered = transport.send_to_server(b"\x00" * 64)
        assert delivered != b"\x00" * 64
        assert len(delivered) == 64

    def test_duplicate_charges_twice(self):
        transport = self._transport([(0, FaultKind.DUPLICATE)])
        delivered = transport.send_to_client(b"resp")
        assert delivered == b"resp"
        assert transport.stats.bytes_to_client == 8
        assert transport.stats.messages_to_client == 2

    def test_reorder_delivers_stale_message(self):
        transport = self._transport(
            [(0, FaultKind.REORDER), (1, FaultKind.REORDER)]
        )
        first = transport.send_to_client(b"first")
        second = transport.send_to_client(b"second")
        assert first == b"first"  # nothing earlier to deliver yet
        assert second == b"first"  # the stale one arrives instead

    def test_close_partial_bytes_recorded(self):
        transport = self._transport([(0, FaultKind.CLOSE)])
        transport.schedule.rules[0].param = 4
        with pytest.raises(TransportError):
            transport.send_to_client(b"0123456789")
        assert transport.is_closed
        assert transport.stats.bytes_to_client == 4
        assert transport.stats.messages_to_client == 0
        with pytest.raises(TransportError):
            transport.send_to_server(b"more")

    def test_delay_blows_armed_deadline(self):
        clock = SimulatedClock()
        transport = self._transport([(0, FaultKind.DELAY)], clock=clock)
        transport.schedule.rules[0].param = 10.0
        transport.arm_timeout(1.0)
        with pytest.raises(RequestTimeoutError):
            transport.send_to_server(b"req")

    def test_delay_within_deadline_passes(self):
        clock = SimulatedClock()
        transport = self._transport([(0, FaultKind.DELAY)], clock=clock)
        transport.schedule.rules[0].param = 0.5
        transport.arm_timeout(2.0)
        assert transport.send_to_server(b"req") == b"req"
        assert clock.now() == pytest.approx(0.5)

    def test_link_model_latency_charged(self):
        clock = SimulatedClock()
        link = LinkModel(bandwidth_bps=1000, rtt_seconds=0.1)
        transport = FaultyTransport(clock=clock, link=link)
        transport.send_to_server(b"x" * 500)
        assert clock.now() == pytest.approx(0.1 + 0.5)

    def test_fault_counts_accumulate(self):
        schedule = FaultSchedule.scripted(
            [(0, FaultKind.TRUNCATE), (1, FaultKind.CORRUPT)]
        )
        transport = FaultyTransport(schedule=schedule)
        transport.send_to_server(b"0123456789")
        transport.send_to_client(b"0123456789")
        assert schedule.fault_counts == {"truncate": 1, "corrupt": 1}

    def test_schedule_survives_reconnect(self):
        """A fresh transport per attempt continues the same script."""
        schedule = FaultSchedule.scripted([(1, FaultKind.DROP)])
        first = FaultyTransport(schedule=schedule)
        first.send_to_server(b"ok")  # message 0: clean
        second = FaultyTransport(schedule=schedule)  # reconnect
        with pytest.raises(RequestTimeoutError):
            second.send_to_server(b"dropped")  # message 1: scripted drop


#: An explicit ``param`` per kind (DROP, DUPLICATE and REORDER read none).
_EXPLICIT_PARAMS = {
    FaultKind.DELAY: 0.75,
    FaultKind.DROP: 1.0,
    FaultKind.TRUNCATE: 5,
    FaultKind.CORRUPT: 3,
    FaultKind.DUPLICATE: 1.0,
    FaultKind.REORDER: 1.0,
    FaultKind.CLOSE: 7,
}
_PARITY_FRAMES = [b"", b"x", bytes(range(9)), bytes(range(40)), b"z" * 200]


@pytest.mark.parametrize("seed", [3, 1234])
@pytest.mark.parametrize("explicit", [True, False], ids=["param", "no-param"])
@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_plan_matches_in_process_delivery(kind, explicit, seed):
    """The rule interpreter's plan is exactly what FaultyTransport does:
    same counts, same RNG position, same mangled bytes, same cuts."""
    param = _EXPLICIT_PARAMS[kind] if explicit else None

    def schedule():
        rule = FaultRule(kind, probability=0.6, param=param)
        return FaultSchedule([rule], seed=seed)

    planned, delivered = schedule(), schedule()
    clock = SimulatedClock()
    for index, frame in enumerate(_PARITY_FRAMES * 2):
        direction = ("to_server", "to_client")[index % 2]
        plan = plan_frame(planned, direction, frame)
        # A fresh transport per frame, as a session reconnects: a CLOSE
        # kills the inner transport, and REORDER then has nothing stale.
        transport = FaultyTransport(schedule=delivered, clock=clock)
        send = getattr(transport, f"send_{direction}")
        stats = transport.stats
        started = clock.now()
        if plan.outcome is FaultKind.CLOSE:
            with pytest.raises(TransportError):
                send(frame)
            assert stats.total_bytes == plan.cut
            assert plan.cut <= len(frame)
            continue
        if plan.outcome is FaultKind.DROP:
            with pytest.raises(RequestTimeoutError):
                send(frame)
            continue
        assert plan.outcome is None
        assert send(frame) == plan.frame
        assert stats.total_bytes == len(plan.frame) * (1 + plan.duplicates)
        assert clock.now() - started == pytest.approx(sum(plan.delays))
        if kind is FaultKind.TRUNCATE and frame and plan.frame != frame:
            assert len(plan.frame) == plan.cut < len(frame)
        if kind is FaultKind.CORRUPT and frame and plan.frame != frame:
            assert len(plan.frame) == len(frame)
    assert planned.fault_counts == delivered.fault_counts
    assert planned.fault_counts.get(kind.value, 0) > 0
    assert planned.message_index == delivered.message_index
    assert planned.rng().getstate() == delivered.rng().getstate()


class TestFaultyTransportEndToEnd:
    def test_corrupted_response_degrades_to_typed_error(
        self, lvq_system, probe_addresses
    ):
        """Corruption on the response leg: the light node rejects with a
        ReproError (decode or verification), never a wrong history."""
        from repro.errors import ReproError

        full_node = FullNode(lvq_system)
        light = LightNode.from_full_node(full_node)
        schedule = FaultSchedule(
            [FaultRule(FaultKind.CORRUPT, direction="to_client", param=4)],
            seed=5,
        )
        transport = FaultyTransport(schedule=schedule)
        with pytest.raises(ReproError):
            light.query_history(
                full_node, probe_addresses["Addr6"], transport
            )

    def test_truncated_response_is_encoding_error(
        self, lvq_system, probe_addresses
    ):
        full_node = FullNode(lvq_system)
        light = LightNode.from_full_node(full_node)
        schedule = FaultSchedule(
            [FaultRule(FaultKind.TRUNCATE, direction="to_client", param=40)]
        )
        transport = FaultyTransport(schedule=schedule)
        with pytest.raises(EncodingError):
            light.query_history(
                full_node, probe_addresses["Addr5"], transport
            )


class TestFlakyNodes:
    def test_fail_on_scripted_requests(self, lvq_system, probe_addresses):
        node = FlakyFullNode(lvq_system, fail_on=(0, 2))
        request = QueryRequest(probe_addresses["Addr5"]).serialize()
        with pytest.raises(TransportError):
            node.handle_query(request)
        node.handle_query(request)  # request 1 succeeds
        with pytest.raises(TransportError):
            node.handle_query(request)
        assert node.failures_injected == 2
        assert node.request_index == 3

    def test_flaky_is_honest_when_it_serves(self, lvq_system, probe_addresses):
        node = FlakyFullNode(lvq_system, fail_on=(0,))
        light = LightNode.from_full_node(node)
        with pytest.raises(TransportError):
            light.query_history(node, probe_addresses["Addr5"])
        history = light.query_history(node, probe_addresses["Addr5"])
        assert history.transactions

    def test_probabilistic_failures_are_seeded(self, lvq_system):
        a = FlakyFullNode(lvq_system, failure_rate=0.5, seed=9)
        b = FlakyFullNode(lvq_system, failure_rate=0.5, seed=9)
        request = QueryRequest("addr").serialize()

        def pattern(node):
            outcomes = []
            for _ in range(20):
                try:
                    node.handle_headers(
                        b"\x03\x00"
                    )  # cheap RPC, same failure gate
                    outcomes.append(True)
                except TransportError:
                    outcomes.append(False)
            return outcomes

        assert pattern(a) == pattern(b)
        assert not all(pattern(a))

    def test_byzantine_flaky_lies_and_flaps(self, lvq_system, probe_addresses):
        from repro.errors import ReproError, VerificationError

        node = ByzantineFlakyFullNode(
            lvq_system, omit_one_transaction, fail_on=(0,)
        )
        light = LightNode.from_full_node(node)
        address = probe_addresses["Addr6"]
        with pytest.raises(TransportError):
            light.query_history(node, address)
        with pytest.raises(VerificationError):
            light.query_history(node, address)

    def test_byzantine_attack_rate_zero_is_honest(
        self, lvq_system, probe_addresses
    ):
        node = ByzantineFlakyFullNode(
            lvq_system, omit_one_transaction, attack_rate=0.0
        )
        light = LightNode.from_full_node(node)
        history = light.query_history(node, probe_addresses["Addr6"])
        assert history.transactions

    def test_validation(self, lvq_system):
        with pytest.raises(ValueError):
            FlakyFullNode(lvq_system, failure_rate=2.0)
        with pytest.raises(ValueError):
            ByzantineFlakyFullNode(
                lvq_system, omit_one_transaction, attack_rate=-0.1
            )
