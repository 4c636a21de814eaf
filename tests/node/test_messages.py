"""Unit tests for the wire messages."""

import pytest

from repro.errors import EncodingError, RateLimitedError
from repro.node.messages import (
    BatchQueryRequest,
    BatchQueryResponse,
    ErrorResponse,
    HeadersRequest,
    HeadersResponse,
    QueryRequest,
    QueryResponse,
)
from repro.query.batch import answer_batch_query
from repro.query.prover import answer_query


class TestQueryRequest:
    def test_roundtrip(self):
        request = QueryRequest("1SomeAddress")
        assert QueryRequest.deserialize(request.serialize()).address == (
            "1SomeAddress"
        )

    def test_wrong_tag_rejected(self):
        with pytest.raises(EncodingError):
            QueryRequest.deserialize(b"\x63\x01a")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EncodingError):
            QueryRequest.deserialize(QueryRequest("1a").serialize() + b"!")


class TestQueryResponse:
    def test_roundtrip(self, lvq_system, probe_addresses):
        config = lvq_system.config
        result = answer_query(lvq_system, probe_addresses["Addr3"])
        response = QueryResponse(result)
        restored = QueryResponse.deserialize(response.serialize(config), config)
        assert restored.result.serialize(config) == result.serialize(config)

    def test_wrong_tag_rejected(self, lvq_system):
        with pytest.raises(EncodingError):
            QueryResponse.deserialize(b"\x63abc", lvq_system.config)

    def test_empty_rejected(self, lvq_system):
        with pytest.raises(EncodingError):
            QueryResponse.deserialize(b"", lvq_system.config)


class TestBatchMessages:
    def test_request_roundtrip(self):
        request = BatchQueryRequest(["1a", "1b"], 3, 9)
        restored = BatchQueryRequest.deserialize(request.serialize())
        assert restored.addresses == ["1a", "1b"]
        assert (restored.first_height, restored.last_height) == (3, 9)

    def test_request_validation(self):
        with pytest.raises(EncodingError):
            BatchQueryRequest([])
        with pytest.raises(EncodingError):
            BatchQueryRequest(["1a"], 0, 0)

    def test_response_roundtrip(self, lvq_system, probe_addresses):
        config = lvq_system.config
        addresses = list(probe_addresses.values())[:2]
        batch = answer_batch_query(lvq_system, addresses)
        response = BatchQueryResponse(batch)
        restored = BatchQueryResponse.deserialize(
            response.serialize(config), config
        )
        assert restored.batch.serialize(config) == batch.serialize(config)

    def test_response_wrong_tag(self, lvq_system):
        with pytest.raises(EncodingError):
            BatchQueryResponse.deserialize(b"\x63abc", lvq_system.config)

    def test_full_node_handles_batch_rpc(self, lvq_system, probe_addresses):
        from repro.node.full_node import FullNode
        from repro.node.light_node import LightNode

        full_node = FullNode(lvq_system)
        light_node = LightNode.from_full_node(full_node)
        addresses = list(probe_addresses.values())[:3]
        histories = light_node.query_batch(full_node, addresses)
        assert set(histories) == set(addresses)


class TestHeadersMessages:
    def test_request_roundtrip(self):
        request = HeadersRequest(17)
        assert HeadersRequest.deserialize(request.serialize()).from_height == 17

    def test_request_negative_rejected(self):
        with pytest.raises(EncodingError):
            HeadersRequest(-1)

    def test_response_roundtrip(self, lvq_system):
        headers = lvq_system.headers()
        response = HeadersResponse(0, headers)
        restored = HeadersResponse.deserialize(
            response.serialize(), extension_kind=3
        )
        assert restored.from_height == 0
        assert len(restored.headers) == len(headers)
        for original, parsed in zip(headers, restored.headers):
            assert parsed == original
            assert parsed.block_id() == original.block_id()

    def test_response_roundtrip_strawman(self, strawman_system):
        headers = strawman_system.headers()[:5]
        response = HeadersResponse(3, headers)
        restored = HeadersResponse.deserialize(
            response.serialize(), extension_kind=2
        )
        assert restored.headers == headers

    def test_response_size_reflects_extension(
        self, lvq_system, strawman_system
    ):
        lvq_bytes = len(HeadersResponse(0, lvq_system.headers()).serialize())
        straw_bytes = len(
            HeadersResponse(0, strawman_system.headers()).serialize()
        )
        # LVQ headers are 144B vs 112B for the bf-hash strawman variant.
        assert lvq_bytes > straw_bytes


class TestErrorResponseRetryHint:
    @pytest.mark.parametrize(
        "seconds,millis", [(0.0987, 99), (0.0001, 1), (0.25, 250), (0, 0)]
    )
    def test_retry_hint_rounds_up_to_whole_milliseconds(self, seconds, millis):
        """A client that sleeps the hinted milliseconds must not come
        back before the server's own retry-after has elapsed."""
        error = RateLimitedError("eager", retry_after=seconds)
        assert ErrorResponse.from_exception(error).params == (millis,)
