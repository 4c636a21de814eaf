"""Subscription subsystem, in-process: messages, registry, eviction.

The socket-free half of the streaming suite.  Wire messages round-trip
and reject garbage like every other tag; the registry is driven through
list-backed fake channels so fan-out, grouping, retraction, and the
slow-consumer eviction contract (typed final frame, outbox reclaimed,
no head-of-line blocking) are asserted without any TCP in the loop.
"""

import pytest

from repro.chain.block import BlockHeader
from repro.crypto.encoding import ByteReader
from repro.errors import (
    ChainError,
    EncodingError,
    QueryError,
    SubscriberEvictedError,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import (
    MAX_WATCH_ADDRESSES,
    ErrorResponse,
    PushRetraction,
    PushUpdate,
    SubscribeAck,
    SubscribeRequest,
    SubscriptionEvicted,
    UnsubscribeRequest,
    error_from_frame,
)
from repro.node.net import NetServer
from repro.node.server import QueryServer
from repro.node.subscribe import SubscriptionRegistry
from repro.query.batch import BatchQueryResult, verify_batch_result
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.verifier import VerifiedHistory
from repro.wallet import Wallet
from repro.workload.generator import WorkloadParams, generate_workload


def _build(num_blocks=8, extra=8, seed=7, txs=6):
    """A small mutable chain: serve ``num_blocks``, keep ``extra`` bodies
    aside so tests can append/reorg deterministically."""
    workload = generate_workload(
        WorkloadParams(num_blocks=num_blocks + extra, txs_per_block=txs, seed=seed)
    )
    config = SystemConfig.lvq(bf_bytes=192, segment_len=8)
    system = build_system(workload.bodies[: num_blocks + 1], config)
    return workload, config, system


class ListChannel:
    """The channel duck, backed by a list (optionally bounded)."""

    def __init__(self, capacity=None):
        self.frames = []
        self.capacity = capacity
        self.closed = False
        self.evicted = False

    def push(self, frame):
        if self.closed:
            return "closed"
        if self.capacity is not None and len(self.frames) >= self.capacity:
            return "overflow"
        self.frames.append(frame)
        return "ok"

    def evict(self, frame_factory):
        dropped = len(self.frames) + 1
        self.frames = [frame_factory(dropped)]
        self.evicted = True
        return dropped

    def close(self):
        self.closed = True


# ---------------------------------------------------------------------------
# wire messages


def test_subscribe_request_round_trip():
    request = SubscribeRequest(["alice", "bob", "carol"])
    decoded = SubscribeRequest.deserialize(request.serialize())
    assert decoded.addresses == ["alice", "bob", "carol"]


@pytest.mark.parametrize(
    "addresses",
    [
        [],
        [""],
        ["a", "a"],
        ["a"] * (MAX_WATCH_ADDRESSES + 1),
    ],
    ids=["empty", "blank", "duplicate", "too-many"],
)
def test_subscribe_request_rejects_bad_watch_sets(addresses):
    with pytest.raises((EncodingError, QueryError, ValueError)):
        SubscribeRequest(addresses)


def test_subscribe_ack_and_unsubscribe_round_trip():
    ack = SubscribeAck.deserialize(SubscribeAck(7, 123).serialize())
    assert (ack.subscription_id, ack.tip_height) == (7, 123)
    req = UnsubscribeRequest.deserialize(UnsubscribeRequest(7).serialize())
    assert req.subscription_id == 7


def test_push_update_round_trip():
    update = PushUpdate(42, b"header-bytes", b"batch-bytes")
    decoded = PushUpdate.deserialize(update.serialize())
    assert decoded.height == 42
    assert decoded.header_bytes == b"header-bytes"
    assert decoded.batch_bytes == b"batch-bytes"


def test_push_retraction_round_trip_and_validation():
    retraction = PushRetraction.deserialize(PushRetraction(10, 14).serialize())
    assert (retraction.fork_height, retraction.old_tip) == (10, 14)
    with pytest.raises((EncodingError, ValueError)):
        PushRetraction(10, 9)  # old tip below the fork is nonsense


def test_subscription_evicted_round_trip_and_typed_error():
    notice = SubscriptionEvicted.deserialize(
        SubscriptionEvicted(3, 17, "outbox overflow").serialize()
    )
    error = notice.to_error()
    assert isinstance(error, SubscriberEvictedError)
    assert error.subscription_id == 3
    assert error.dropped_frames == 17

    frame = ErrorResponse.from_exception(error).serialize()
    rebuilt = error_from_frame(ErrorResponse.deserialize(frame))
    assert isinstance(rebuilt, SubscriberEvictedError)
    assert rebuilt.subscription_id == 3
    assert rebuilt.dropped_frames == 17


@pytest.mark.parametrize(
    "cls",
    [SubscribeRequest, SubscribeAck, UnsubscribeRequest,
     PushUpdate, PushRetraction, SubscriptionEvicted],
)
def test_truncated_subscription_frames_rejected(cls):
    if cls is SubscribeRequest:
        frame = SubscribeRequest(["alice"]).serialize()
    elif cls is SubscribeAck:
        frame = SubscribeAck(1, 5).serialize()
    elif cls is UnsubscribeRequest:
        frame = UnsubscribeRequest(1).serialize()
    elif cls is PushUpdate:
        frame = PushUpdate(1, b"h", b"b").serialize()
    elif cls is PushRetraction:
        frame = PushRetraction(1, 2).serialize()
    else:
        frame = SubscriptionEvicted(1, 2, "outbox overflow").serialize()
    for cut in range(len(frame)):
        with pytest.raises(EncodingError):
            cls.deserialize(frame[:cut])


# ---------------------------------------------------------------------------
# registry fan-out


def test_registry_subscribe_returns_tip_and_distinct_ids():
    _, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    channel = ListChannel()
    id1, tip1 = registry.subscribe(["alice"], channel)
    id2, tip2 = registry.subscribe(["bob"], channel)
    assert id1 != id2
    assert tip1 == tip2 == system.tip_height
    assert registry.stats.active == 2


def test_append_fans_out_one_verified_update_per_watch_set():
    workload, config, system = _build()
    node = FullNode(system)
    registry = SubscriptionRegistry(node)
    watched = list(workload.probe_addresses.values())[:2]

    # Three subscribers, two distinct watch sets: the shared set must be
    # built once and pushed twice.
    shared_a = ListChannel()
    shared_b = ListChannel()
    other = ListChannel()
    registry.subscribe(watched, shared_a)
    registry.subscribe(watched, shared_b)
    registry.subscribe([watched[0]], other)

    system.append_block(workload.bodies[system.tip_height + 1])
    height = system.tip_height

    assert registry.stats.updates_built == 2
    assert registry.stats.update_frames == 3
    assert len(shared_a.frames) == len(shared_b.frames) == len(other.frames) == 1
    assert shared_a.frames[0] == shared_b.frames[0]

    # The pushed frame verifies exactly like a pulled batch would.
    update = PushUpdate.deserialize(shared_a.frames[0])
    assert update.height == height
    reader = ByteReader(update.header_bytes)
    header = BlockHeader.deserialize(
        reader, config.header_extension_kind, config.header_bloom_bytes
    )
    reader.finish()
    assert header.block_id() == system.headers()[height].block_id()
    batch = BatchQueryResult.deserialize(update.batch_bytes, config)
    histories = verify_batch_result(
        batch,
        system.headers()[: height + 1],
        config,
        watched,
        (height, height),
    )
    assert set(histories) == set(watched)


def test_reorg_fans_out_retraction_with_fork_and_old_tip():
    workload, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    channel = ListChannel()
    registry.subscribe(["whoever"], channel)
    old_tip = system.tip_height

    alt = generate_workload(
        WorkloadParams(num_blocks=12, txs_per_block=6, seed=99)
    )
    system.reorg(old_tip - 2, alt.bodies[old_tip - 1 : old_tip + 3])

    retraction = PushRetraction.deserialize(channel.frames[0])
    assert retraction.fork_height == old_tip - 2
    assert retraction.old_tip == old_tip
    # The replacement blocks follow as ordinary updates.
    heights = [
        PushUpdate.deserialize(frame).height for frame in channel.frames[1:]
    ]
    assert heights == list(range(old_tip - 1, system.tip_height + 1))


def test_unsubscribe_requires_the_owning_channel():
    _, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    owner = ListChannel()
    thief = ListChannel()
    sub_id, _ = registry.subscribe(["alice"], owner)
    registry.subscribe(["bob"], thief)
    with pytest.raises(QueryError):
        registry.unsubscribe(sub_id, thief)
    registry.unsubscribe(sub_id, owner)
    assert registry.stats.active == 1
    with pytest.raises(QueryError):
        registry.unsubscribe(sub_id, owner)  # already gone


def test_detach_channel_forgets_every_subscription_on_it():
    workload, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    channel = ListChannel()
    registry.subscribe(["a"], channel)
    registry.subscribe(["b"], channel)
    survivor = ListChannel()
    registry.subscribe(["c"], survivor)

    assert registry.detach_channel(channel) == 2
    assert registry.stats.active == 1
    system.append_block(workload.bodies[system.tip_height + 1])
    assert channel.frames == []
    assert len(survivor.frames) == 1


def test_closed_channel_is_detached_on_push():
    workload, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    channel = ListChannel()
    registry.subscribe(["a"], channel)
    channel.close()
    system.append_block(workload.bodies[system.tip_height + 1])
    assert registry.stats.active == 0
    assert channel.frames == []


def test_dead_registry_listener_is_inert():
    import gc

    workload, _, system = _build()
    registry = SubscriptionRegistry(FullNode(system))
    registry.subscribe(["a"], ListChannel())
    del registry
    gc.collect()
    # The weakref listener must no-op, not blow up the append path.
    system.append_block(workload.bodies[system.tip_height + 1])


# ---------------------------------------------------------------------------
# slow-consumer eviction (the in-process half of satellite 3)


def test_slow_consumer_evicted_with_typed_frame_and_reclaimed_outbox():
    workload, _, system = _build(extra=8)
    registry = SubscriptionRegistry(FullNode(system))
    slow = ListChannel(capacity=2)
    fast = ListChannel()
    slow_id, _ = registry.subscribe(["alice"], slow)
    registry.subscribe(["alice"], fast)

    for _ in range(3):
        system.append_block(workload.bodies[system.tip_height + 1])

    # Third push overflowed the bound of 2: the outbox was reclaimed and
    # replaced by exactly one typed eviction frame.
    assert slow.evicted
    assert len(slow.frames) == 1
    notice = SubscriptionEvicted.deserialize(slow.frames[0])
    assert notice.subscription_id == slow_id
    assert notice.dropped_frames == 3  # two queued + the overflowing one
    error = notice.to_error()
    assert isinstance(error, SubscriberEvictedError)

    # The registry dropped the subscription and did the accounting.
    assert registry.stats.evicted_slow == 1
    assert registry.stats.frames_dropped == 3
    assert registry.stats.active == 1

    # No head-of-line blocking: the fast subscriber saw every update.
    assert len(fast.frames) == 3
    heights = [PushUpdate.deserialize(frame).height for frame in fast.frames]
    assert heights == sorted(heights)

    # And the evicted channel receives nothing further.
    system.append_block(workload.bodies[system.tip_height + 1])
    assert len(slow.frames) == 1
    assert len(fast.frames) == 4


def test_server_rejects_tiny_push_outbox():
    """The per-subscriber outbox bound lives on the connection's push
    channel, set by ``NetServer(push_outbox=)``: it needs room for one
    update plus the eviction frame."""
    _, _, system = _build()
    query_server = QueryServer(FullNode(system), num_workers=1)
    try:
        with pytest.raises(ValueError, match="push outbox"):
            NetServer(query_server, push_outbox=1)
    finally:
        query_server.close()


# ---------------------------------------------------------------------------
# adjacent surfaces


def test_query_server_submit_rejects_subscription_tags_with_typed_hint():
    _, _, system = _build()
    server = QueryServer(FullNode(system), num_workers=1)
    try:
        with pytest.raises(QueryError, match="push-capable transport"):
            server.submit(SubscribeRequest(["alice"]).serialize())
        with pytest.raises(QueryError, match="push-capable transport"):
            server.submit(UnsubscribeRequest(1).serialize())
    finally:
        server.close()


def test_truncate_headers_drops_suffix_only():
    _, config, system = _build()
    light = LightNode(system.headers(), config)
    tip = light.tip_height
    assert light.truncate_headers(tip) == 0  # no-op at the tip
    assert light.truncate_headers(tip - 3) == 3
    assert light.tip_height == tip - 3
    assert light.headers[-1].block_id() == system.headers()[tip - 3].block_id()
    with pytest.raises(ChainError):
        light.truncate_headers(-1)


# ---------------------------------------------------------------------------
# wallet event folding


class _Event:
    def __init__(self, kind, **fields):
        self.kind = kind
        for name, value in fields.items():
            setattr(self, name, value)


def test_wallet_apply_event_merges_updates_and_retractions():
    workload, config, system = _build(num_blocks=10, extra=2)
    node = FullNode(system)
    light = LightNode(system.headers(), config)
    address = list(workload.probe_addresses.values())[2]
    wallet = Wallet(light, [address])
    wallet.refresh(node)
    baseline = wallet.history(address)
    truth_balance = wallet.balance(address)

    # A quiet single-height update must not change anything.
    quiet = _Event(
        "update",
        first_height=light.tip_height + 1,
        last_height=light.tip_height + 1,
        histories={address: VerifiedHistory(address, [], None)},
    )
    wallet.apply_event(quiet)
    assert wallet.history(address) == baseline
    assert wallet.balance(address) == truth_balance

    # Retract above a fork: only transactions above it disappear.
    heights = [height for height, _tx in baseline]
    assert heights, "probe address must have history for this test"
    fork = heights[-1] - 1  # guarantees at least the last hit is retracted
    retract = _Event("retract", fork_height=fork, old_tip=light.tip_height)
    assert wallet.apply_event(retract) is True
    assert all(height <= fork for height, _tx in wallet.history(address))

    # A backfill re-covering the retracted range restores the truth.
    restored = [
        (height, tx) for height, tx in baseline if height > fork
    ]
    backfill = _Event(
        "backfill",
        first_height=fork + 1,
        last_height=light.tip_height,
        histories={address: VerifiedHistory(address, restored, None)},
    )
    assert wallet.apply_event(backfill) is True
    assert wallet.history(address) == baseline
    assert wallet.balance(address) == truth_balance


def test_wallet_apply_event_ignores_unknown_addresses_and_kinds():
    workload, config, system = _build(num_blocks=10, extra=2)
    node = FullNode(system)
    light = LightNode(system.headers(), config)
    address = list(workload.probe_addresses.values())[2]
    wallet = Wallet(light, [address])
    wallet.refresh(node)
    before = wallet.history(address)

    stranger = _Event(
        "update",
        first_height=1,
        last_height=light.tip_height,
        histories={"never-watched": VerifiedHistory("never-watched", [], None)},
    )
    assert wallet.apply_event(stranger) is False
    assert wallet.apply_event(_Event("disconnect", reason="x", final=True)) is False
    assert wallet.history(address) == before
