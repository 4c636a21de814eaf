"""The light node's resolution memo changes cost, never outcome.

A :class:`LightNode` remembers each block-level resolution it accepted,
keyed by height and address and checked against the exact wire bytes and
both header roots (DESIGN.md §12).  Starting from a node whose memo
already accepted the honest answers, every attack, every cross-address
or cross-height substitution and every flip or splice of resolution
bytes must end exactly as it does on a cold path (``memo=None`` for both
decode and verify): the same history, or the same exception type and
text.  A hit is decided by a prefix comparison, so resolutions must be
self-delimiting; and the table must stay within its byte bound.
"""

import copy
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import ByteReader
from repro.errors import EncodingError, ProofError, ReproError
from repro.node.light_node import LightNode
from repro.node.messages import QueryResponse
from repro.query import memo as memo_module
from repro.query.adversary import ALL_ATTACKS, materialize
from repro.query.fragments import (
    ExistenceResolution,
    WireResolution,
    _deserialize_resolution,
)
from repro.query.memo import VerifierMemo
from repro.query.prover import answer_query
from repro.query.verifier import verify_result

#: Whole-chain and range-restricted answers.
SPANS = [None, (10, 40)]


def history(verified):
    return [(height, tx.txid()) for height, tx in verified.transactions]


def outcome(system, frame, address, span, memo=None):
    """Decode and verify ``frame`` with ``memo`` (``None``: the cold
    path); the accepted history, or the exception."""
    config = system.config
    try:
        result = QueryResponse.deserialize(frame, config, memo=memo).result
        verified = verify_result(
            result, system.headers(), config, address, span, memo=memo
        )
    except ReproError as error:
        return type(error), str(error)
    return history(verified)


def honest_frames(system, addresses):
    """``(address, span, result, frame)`` per address and span."""
    for address in addresses:
        for span in SPANS:
            first, last = span or (1, system.tip_height)
            result = answer_query(system, address, first, last)
            frame = QueryResponse(result).serialize(system.config)
            yield address, (first, last), materialize(result), frame


def warm_light(system, answers):
    """A light node whose memo accepted every honest answer."""
    light = LightNode(system.headers(), system.config)
    for address, span, _result, frame in answers:
        warm = outcome(system, frame, address, span, light.memo)
        assert isinstance(warm, list)
    assert light.memo.resolutions
    return light


@pytest.fixture(params=["lvq_system", "lvq_no_smt_system"])
def system(request):
    return request.getfixturevalue(request.param)


def test_every_attack_is_rejected_identically_on_a_warm_node(
    system, probe_addresses
):
    answers = list(honest_frames(system, probe_addresses.values()))
    light = warm_light(system, answers)
    config = system.config
    applied = set()
    for name, attack in sorted(ALL_ATTACKS.items()):
        for address, span, result, frame in answers:
            attacked = attack(copy.deepcopy(result))
            forged = QueryResponse(attacked).serialize(config)
            if forged == frame:
                continue
            applied.add(name)
            want = outcome(system, forged, address, span)
            assert isinstance(want, tuple), (name, address, span)
            warm = outcome(system, forged, address, span, light.memo)
            assert warm == want, (name, address, span)
    if system.config.uses_smt:
        assert {
            "swap_resolutions_between_blocks",
            "forge_transaction_value",
            "omit_one_transaction",
            "duplicate_transaction_entry",
            "swap_existence_for_fpm",
        } <= applied
    else:
        assert "corrupt_integral_block" in applied
    # Nothing a rejected answer carried was remembered, and the honest
    # answers still verify to what they did.
    for address, span, _result, frame in answers:
        assert outcome(system, frame, address, span, light.memo) == outcome(
            system, frame, address, span
        )


def test_evidence_for_another_address_is_rejected_identically(
    lvq_system, probe_addresses
):
    """Address X's valid existence evidence, served for Y at a height
    where Y's filter check fails too: the memo holds both honest entries
    and must hit neither."""
    answers = list(honest_frames(lvq_system, probe_addresses.values()))
    light = warm_light(lvq_system, answers)
    config = lvq_system.config
    cases = 0
    for x, x_span, x_result, _ in answers:
        for y, y_span, y_result, _ in answers:
            if x == y or x_span != y_span:
                continue
            for x_seg, y_seg in zip(x_result.segments, y_result.segments):
                for height, evidence in x_seg.resolutions.items():
                    if not isinstance(evidence, ExistenceResolution):
                        continue
                    if height not in y_seg.resolutions:
                        continue
                    forged_result = copy.deepcopy(y_result)
                    index = y_result.segments.index(y_seg)
                    forged_result.segments[index].resolutions[height] = evidence
                    forged = QueryResponse(forged_result).serialize(config)
                    want = outcome(lvq_system, forged, y, y_span)
                    assert isinstance(want, tuple)
                    warm = outcome(lvq_system, forged, y, y_span, light.memo)
                    assert warm == want
                    cases += 1
    assert cases >= 5


# ---------------------------------------------------------------------------
# flips and splices of the golden vector's resolution bytes


@pytest.fixture(scope="module")
def golden(lvq_system):
    path = pathlib.Path(__file__).resolve().parents[1] / "vectors"
    vector = json.loads((path / "bmt_query_response.json").read_text())
    frame = bytes.fromhex(vector["hex"])
    request = vector["request"]
    span = (request["first_height"], request["last_height"])
    result = QueryResponse.deserialize(
        frame, lvq_system.config, memo=VerifierMemo()
    ).result
    extents = []
    for segment in result.segments:
        for resolution in segment.resolutions.values():
            start = frame.index(resolution.wire)
            extents.append((start, start + len(resolution.wire)))
    assert len(extents) == 2  # one existence, one false positive
    return frame, request["address"], span, extents


EDITS = st.lists(
    st.one_of(
        st.tuples(
            st.just("flip"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=7),
        ),
        st.tuples(
            st.just("splice"),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=10_000_000),
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(target=st.integers(min_value=0, max_value=1_000), edits=EDITS)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_flipped_and_spliced_resolutions_end_identically_warm_and_cold(
    lvq_system, golden, target, edits
):
    frame, address, span, extents = golden
    light = LightNode(lvq_system.headers(), lvq_system.config)
    honest = outcome(lvq_system, frame, address, span, light.memo)
    assert isinstance(honest, list)
    start, end = extents[target % len(extents)]
    mutated = bytearray(frame)
    for kind, at, arg in edits:
        offset = start + at % (end - start)
        if kind == "flip":
            mutated[offset] ^= 1 << arg
        else:
            # Copy a run of another resolution's bytes over this one.
            donor_start, donor_end = extents[arg % len(extents)]
            source = donor_start + arg % (donor_end - donor_start)
            run = min(end - offset, donor_end - source, 1 + arg % 200)
            mutated[offset : offset + run] = frame[source : source + run]
    mutated = bytes(mutated)
    want = outcome(lvq_system, mutated, address, span)
    assert outcome(lvq_system, mutated, address, span, light.memo) == want
    assert outcome(lvq_system, frame, address, span, light.memo) == honest


# ---------------------------------------------------------------------------
# a hit is decided by a prefix: resolutions are self-delimiting


@pytest.fixture(scope="module")
def wires(lvq_system, lvq_no_smt_system, workload, golden):
    """Honest resolutions' wire bytes: existence and integral ones from
    the probe answers, the false-positive one from the golden vector."""
    frame, _address, _span, extents = golden
    found = [frame[start:end] for start, end in extents]
    for system in (lvq_system, lvq_no_smt_system):
        for address in workload.probe_addresses.values():
            result = answer_query(system, address)
            frame = QueryResponse(result).serialize(system.config)
            decoded = QueryResponse.deserialize(
                frame, system.config, memo=VerifierMemo()
            ).result
            for segment in decoded.segments:
                found.extend(r.wire for r in segment.resolutions.values())
    assert {wire[0] for wire in found} == {0, 1, 2}
    return found


def check_self_delimiting(raw, tail):
    """Whatever prefix of ``raw`` the decoder accepts, it decodes alone
    and ends at the same offset whatever bytes follow it — why a memo hit
    needs only ``data.startswith(wire, offset)`` to know the extent."""
    reader = ByteReader(raw)
    try:
        _deserialize_resolution(reader)
    except (EncodingError, ProofError):
        return
    wire = raw[: reader.offset]
    alone = ByteReader(wire)
    _deserialize_resolution(alone)
    alone.finish()
    followed = ByteReader(wire + tail)
    _deserialize_resolution(followed)
    assert followed.offset == len(wire)


@given(
    pick=st.integers(min_value=0, max_value=10_000),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["flip", "cut", "grow"]),
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=3,
    ),
    tail=st.binary(max_size=64),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_valid_and_mutated_resolutions_are_self_delimiting(
    wires, pick, edits, tail
):
    raw = bytearray(wires[pick % len(wires)])
    for kind, at, arg in edits:
        if not raw:
            break
        if kind == "flip":
            raw[at % len(raw)] ^= 1 << (arg % 8)
        elif kind == "cut":
            del raw[at % len(raw) :]
        else:
            raw[at % len(raw) : at % len(raw)] = bytes([arg]) * (1 + at % 40)
    check_self_delimiting(bytes(raw), tail)


@given(
    tag=st.integers(min_value=0, max_value=3),
    body=st.binary(max_size=400),
    tail=st.binary(max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_random_resolutions_are_self_delimiting(tag, body, tail):
    check_self_delimiting(bytes([tag]) + body, tail)


def test_a_hit_is_taken_only_on_the_exact_bytes(lvq_system, golden):
    """An entry whose bytes differ from the frame's in their last byte is
    no hit: the resolution is decoded as without a memo.  (Entries only
    ever hold the bytes of one whole decoded resolution, so an entry can
    not be a proper prefix or extension of one.)"""
    frame, address, _span, _extents = golden
    config = lvq_system.config
    memo = VerifierMemo()
    result = QueryResponse.deserialize(frame, config, memo=memo).result
    for segment in result.segments:
        for height, resolution in segment.resolutions.items():
            wire = resolution.wire
            memo.resolutions.clear()
            memo.resolution_bytes = 0
            altered = wire[:-1] + bytes([wire[-1] ^ 1])
            memo.remember_resolution((height, address), (altered, None, ()))
            again = QueryResponse.deserialize(frame, config, memo=memo).result
            for other in again.segments:
                if height in other.resolutions:
                    redone = other.resolutions[height]
                    assert redone.wire == wire
                    assert redone._decoded is not None


# ---------------------------------------------------------------------------
# what is stored, and the bound


def test_a_hit_decodes_nothing_and_a_decode_without_memo_is_unchanged(
    lvq_system, probe_addresses
):
    config = lvq_system.config
    address = probe_addresses["Addr6"]
    frame = QueryResponse(answer_query(lvq_system, address)).serialize(config)
    light = LightNode(lvq_system.headers(), config)
    first = outcome(lvq_system, frame, address, None, light.memo)
    result = QueryResponse.deserialize(frame, config, memo=light.memo).result
    resolutions = [r for s in result.segments for r in s.resolutions.values()]
    assert resolutions and all(type(r) is WireResolution for r in resolutions)
    assert all(r._decoded is None for r in resolutions)
    assert result.serialize(config) == frame[1:]
    plain = QueryResponse.deserialize(frame, config).result
    assert not any(
        isinstance(r, WireResolution)
        for s in plain.segments
        for r in s.resolutions.values()
    )
    assert outcome(lvq_system, frame, address, None, light.memo) == first


def test_rejected_evidence_is_never_stored(lvq_system, probe_addresses):
    config = lvq_system.config
    address = probe_addresses["Addr6"]
    honest = materialize(answer_query(lvq_system, address))
    attacked = ALL_ATTACKS["forge_transaction_value"](copy.deepcopy(honest))
    forged = QueryResponse(attacked).serialize(config)
    light = LightNode(lvq_system.headers(), config)
    for _ in range(2):
        rejected = outcome(lvq_system, forged, address, None, light.memo)
        assert isinstance(rejected, tuple)
    wires = {entry[0] for entry in light.memo.resolutions.values()}
    decoded = QueryResponse.deserialize(forged, config, memo=VerifierMemo()).result
    forged_wires = {
        r.wire for s in decoded.segments for r in s.resolutions.values()
    }
    honest_decoded = QueryResponse.deserialize(
        QueryResponse(honest).serialize(config), config, memo=VerifierMemo()
    ).result
    honest_wires = {
        r.wire for s in honest_decoded.segments for r in s.resolutions.values()
    }
    assert wires <= honest_wires
    assert forged_wires - honest_wires
    assert not wires & (forged_wires - honest_wires)


def test_a_full_table_keeps_what_it_holds(monkeypatch):
    monkeypatch.setattr(memo_module, "RESOLUTION_MEMO_BYTES", 100)
    memo = VerifierMemo()
    memo.remember_resolution((1, "a"), (b"x" * 60, None, ()))
    memo.remember_resolution((2, "a"), (b"y" * 50, None, ()))  # would pass
    assert set(memo.resolutions) == {(1, "a")}
    assert memo.resolution_bytes == 60
    memo.remember_resolution((3, "a"), (b"z" * 40, None, ()))
    assert memo.resolution_bytes == 100
    # Replacing an entry counts the difference.
    memo.remember_resolution((1, "a"), (b"w" * 20, None, ()))
    assert memo.resolution_bytes == 60
    assert memo.resolutions[(1, "a")][0] == b"w" * 20
    memo.forget_resolutions()
    assert memo.resolutions == {} and memo.resolution_bytes == 0


def test_a_small_bound_holds_and_changes_no_verdict(
    lvq_system, probe_addresses, monkeypatch
):
    monkeypatch.setattr(memo_module, "RESOLUTION_MEMO_BYTES", 2_000)
    answers = list(honest_frames(lvq_system, probe_addresses.values()))
    light = LightNode(lvq_system.headers(), lvq_system.config)
    for _ in range(2):
        for address, span, _result, frame in answers:
            assert outcome(lvq_system, frame, address, span, light.memo) == outcome(
                lvq_system, frame, address, span
            )
            assert light.memo.resolution_bytes <= 2_000
    assert light.memo.resolutions
    assert light.memo.resolution_bytes == sum(
        len(entry[0]) for entry in light.memo.resolutions.values()
    )


@pytest.mark.parametrize("root", ["merkle_root", "smt_root"])
def test_the_same_bytes_under_another_root_are_no_hit(
    lvq_system, probe_addresses, root
):
    """The memo accepted an answer; the same frame is then checked
    against headers whose Merkle (or SMT) root differs at one failed,
    non-anchor height.  The BMT part still verifies, so only the roots
    kept in the entry can send that resolution back to the cold path."""
    config = lvq_system.config
    address = probe_addresses["Addr6"]
    result = materialize(answer_query(lvq_system, address))
    frame = QueryResponse(result).serialize(config)
    anchors = {segment.anchor for segment in result.segments}
    height = next(
        h
        for segment in result.segments
        for h, r in sorted(segment.resolutions.items())
        if h not in anchors and isinstance(r, ExistenceResolution)
    )
    memo = VerifierMemo()
    headers = lvq_system.headers()
    decoded = QueryResponse.deserialize(frame, config, memo=memo).result
    verify_result(decoded, headers, config, address, memo=memo)
    assert any(key[0] == height for key in memo.resolutions)

    altered = copy.copy(headers[height])
    if root == "merkle_root":
        altered.merkle_root = bytes(32)
    else:
        extension = copy.copy(altered.extension)
        extension.smt_root = bytes(32)
        altered.extension = extension
    other = headers[:height] + [altered] + headers[height + 1 :]

    def checked(memo):
        try:
            decoded = QueryResponse.deserialize(frame, config, memo=memo).result
            return history(verify_result(decoded, other, config, address, memo=memo))
        except ReproError as error:
            return type(error), str(error)

    want = checked(None)
    assert isinstance(want, tuple) and f"height {height}" in want[1]
    assert checked(memo) == want


def test_truncating_headers_forgets_resolutions(lvq_system, probe_addresses):
    answers = list(honest_frames(lvq_system, probe_addresses.values()))
    light = warm_light(lvq_system, answers)
    light.truncate_headers(light.tip_height - 1)
    assert light.memo.resolutions == {} and light.memo.resolution_bytes == 0
