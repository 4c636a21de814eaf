"""Write the golden wire vectors in this directory.

Usage, from the repository root::

    PYTHONPATH=src python tests/vectors/make_vectors.py

The vectors are written once and only read from then on
(``test_golden_vectors.py``).  This script writes a vector only when
its file is absent; for every vector already committed it recomputes
the frame and exits non-zero, naming the file, if re-running it would
change one.  A vector that stops matching means the wire format or the
verifier changed; deleting the file to make the test pass again defeats
the point of having them.

The proof-carrying vectors, the headers, the plain batch and the push
update are built from the ``lvq_system`` test fixture (seed 42, 48
blocks x 10 transactions, 192-byte filters, 16-block segments) and
record the frame, what produced it, and — for the query answers — the
``(height, txid)`` list the light node must accept from it.  The four
other system kinds each get a plain and an aggregated batch vector over
the same request, built from the ``any_system`` fixture's chain for that
kind (``_config_for``), whose ``config`` the vector records.  Together
with the ``lvq`` vectors they hold every slot the aggregated frame's
walk reads: shared filters, empty answers, existence with and without
an SMT branch, false-positive refutations, integral bodies and every
multiproof node tag.  Every
other message class is built from the literal ``fields`` its vector
records.  The zlib vector is the aggregated batch vector's frame wrapped
by ``compress_frame``.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import _TEST_PROBES, NUM_BLOCKS, _config_for  # noqa: E402

from repro.errors import (  # noqa: E402
    ConnectionLimitError,
    RateLimitedError,
    RequestShedError,
    ServerOverloadedError,
    SubscriberEvictedError,
)
from repro.node.full_node import FullNode  # noqa: E402
from repro.node.messages import (  # noqa: E402
    AggregatedBatchRequest,
    AggregatedBatchResponse,
    BatchQueryRequest,
    BatchQueryResponse,
    DeltaHeadersRequest,
    ErrorResponse,
    HeadersRequest,
    HelloRequest,
    PingRequest,
    PongResponse,
    PushRetraction,
    PushUpdate,
    QueryRequest,
    QueryResponse,
    SubscribeAck,
    SubscribeRequest,
    SubscriptionEvicted,
    UnsubscribeRequest,
)
from repro.node.transport import compress_frame  # noqa: E402
from repro.query.batch import answer_batch_query, verify_batch_result  # noqa: E402
from repro.query.builder import build_system  # noqa: E402
from repro.query.config import SystemKind  # noqa: E402
from repro.query.prover import answer_query  # noqa: E402
from repro.query.verifier import verify_result  # noqa: E402
from repro.workload.generator import WorkloadParams, generate_workload  # noqa: E402

#: An address whose answer over [20, 36] holds all six multiproof node
#: tags and both existence and false-positive resolutions.
BMT_ADDRESS = "1Q8C3EnU1qYX14g8bjycJsfLy6jsJ992sj"
RANGE = (20, 36)
BATCH_PROBES = ("Addr3", "Addr4", "Addr5")
#: Header vectors start here: nine headers, 40..48, keep them readable.
HEADERS_FROM = 40
PUSH_PROBES = ("Addr4", "Addr5", "Addr6")
#: Kinds with batch vectors of their own, besides LVQ's.
BATCH_KINDS = (
    SystemKind.STRAWMAN,
    SystemKind.STRAWMAN_HEADER_BF,
    SystemKind.LVQ_NO_BMT,
    SystemKind.LVQ_NO_SMT,
)

#: Literal-field vectors: file name → (class, constructor fields).
FIELD_VECTORS = {
    "query_request": (
        QueryRequest,
        {"address": BMT_ADDRESS, "first_height": 20, "last_height": 36},
    ),
    "batch_query_request": (
        BatchQueryRequest,
        {"addresses": ["1a", "1b", "1c"], "first_height": 3, "last_height": 0},
    ),
    "aggregated_batch_request": (
        AggregatedBatchRequest,
        {"addresses": ["1a", "1b"], "first_height": 1, "last_height": 300},
    ),
    "headers_request": (HeadersRequest, {"from_height": HEADERS_FROM}),
    "delta_headers_request": (DeltaHeadersRequest, {"from_height": HEADERS_FROM}),
    "ping_request": (PingRequest, {"nonce": 77}),
    "pong_response": (PongResponse, {"nonce": 77, "tip_height": 48}),
    "hello_request": (HelloRequest, {"client_id": "wallet-7"}),
    "subscribe_request": (SubscribeRequest, {"addresses": ["1a", "1b", "1c"]}),
    "subscribe_ack": (SubscribeAck, {"subscription_id": 3, "tip_height": 48}),
    "unsubscribe_request": (UnsubscribeRequest, {"subscription_id": 3}),
    "push_retraction": (PushRetraction, {"fork_height": 44, "old_tip": 48}),
    "subscription_evicted": (
        SubscriptionEvicted,
        {"subscription_id": 3, "dropped_frames": 1000, "reason": "outbox overflow"},
    ),
}

#: One error frame per param-carrying kind, written by ``from_exception``.
ERROR_VECTORS = {
    "error_server_overloaded": ServerOverloadedError(260, 256, retry_after=0.0987),
    "error_connection_limit": ConnectionLimitError(70000, 65536, retry_after=2.5),
    "error_rate_limited": RateLimitedError("wallet-7", retry_after=0.25),
    "error_request_shed": RequestShedError("batch", "shed_low", retry_after=0.5),
    "error_subscriber_evicted": SubscriberEvictedError(3, 1000),
}


def _history(verified):
    return [[height, tx.txid().hex()] for height, tx in verified.transactions]


def _config_fields(config):
    return {
        "kind": config.kind.value,
        "bf_bytes": config.bf_bytes,
        "num_hashes": config.num_hashes,
        "segment_len": config.segment_len,
    }


def _kind_batch_vectors(workload, addresses):
    """A plain and an aggregated batch vector for every kind but LVQ."""
    out = {}
    for kind in BATCH_KINDS:
        config = _config_for(kind)
        system = build_system(workload.bodies, config)
        headers = system.headers()
        batch = answer_batch_query(system, addresses, *RANGE)
        histories = verify_batch_result(batch, headers, config, addresses, RANGE)
        common = {
            "chain": {
                "fixture": "any_system",
                "config": _config_fields(config),
                "tip_height": system.tip_height,
                "tip_block_id": headers[-1].block_id().hex(),
            },
            "request": {
                "addresses": addresses,
                "first_height": RANGE[0],
                "last_height": RANGE[1],
            },
            "verified": {
                address: _history(histories[address]) for address in addresses
            },
        }
        name = kind.value.replace("-", "_")
        for suffix, message_cls in (
            ("batch_query_response", BatchQueryResponse),
            ("aggregated_batch_response", AggregatedBatchResponse),
        ):
            out[f"{name}_{suffix}"] = {
                "message": message_cls.__name__,
                **common,
                "hex": message_cls(batch).serialize(config).hex(),
            }
    return out


def _fields(message, names):
    out = {}
    for name in names:
        value = getattr(message, name)
        out[name] = list(value) if isinstance(value, (list, tuple)) else value
    return out


def vectors():
    """Every golden vector, file name → JSON object, in a fixed order."""
    workload = generate_workload(
        WorkloadParams(
            num_blocks=NUM_BLOCKS, txs_per_block=10, seed=42, probes=_TEST_PROBES
        )
    )
    config = _config_for(SystemKind.LVQ)
    system = build_system(workload.bodies, config)
    node = FullNode(system)
    headers = system.headers()
    chain = {
        "fixture": "lvq_system",
        "tip_height": system.tip_height,
        "tip_block_id": headers[-1].block_id().hex(),
    }
    out = {}

    result = answer_query(system, BMT_ADDRESS, *RANGE)
    frame = QueryResponse(result).serialize(config)
    verified = verify_result(result, headers, config, BMT_ADDRESS, RANGE)
    out["bmt_query_response"] = {
        "message": "QueryResponse",
        "chain": chain,
        "request": {
            "address": BMT_ADDRESS,
            "first_height": RANGE[0],
            "last_height": RANGE[1],
        },
        "verified": _history(verified),
        "hex": frame.hex(),
    }

    addresses = [BMT_ADDRESS] + [
        workload.probe_addresses[name] for name in BATCH_PROBES
    ]
    batch = answer_batch_query(system, addresses, *RANGE)
    frame = AggregatedBatchResponse(batch).serialize(config)
    histories = verify_batch_result(batch, headers, config, addresses, RANGE)
    batch_request = {
        "addresses": addresses,
        "first_height": RANGE[0],
        "last_height": RANGE[1],
    }
    out["aggregated_batch_response"] = {
        "message": "AggregatedBatchResponse",
        "chain": chain,
        "request": batch_request,
        "verified": {
            address: _history(histories[address]) for address in addresses
        },
        "hex": frame.hex(),
    }
    out["zlib_aggregated_batch_response"] = {
        "message": "zlib",
        "inner": "aggregated_batch_response",
        "hex": compress_frame(frame).hex(),
    }

    frame = node.handle_batch_query(BatchQueryRequest(addresses, *RANGE).serialize())
    out["batch_query_response"] = {
        "message": "BatchQueryResponse",
        "chain": chain,
        "request": batch_request,
        "verified": out["aggregated_batch_response"]["verified"],
        "hex": frame.hex(),
    }

    for name, request_cls in (
        ("headers_response", HeadersRequest),
        ("delta_headers_response", DeltaHeadersRequest),
    ):
        frame = node.handle_headers(request_cls(HEADERS_FROM).serialize())
        out[name] = {
            "message": request_cls.__name__.replace("Request", "Response"),
            "chain": chain,
            "request": {"from_height": HEADERS_FROM},
            "hex": frame.hex(),
        }

    watched = [workload.probe_addresses[name] for name in PUSH_PROBES]
    height = system.tip_height
    frame = PushUpdate(
        height,
        system.chain.header_at(height).serialize(),
        answer_batch_query(system, watched, height, height).serialize(config),
    ).serialize()
    out["push_update"] = {
        "message": "PushUpdate",
        "chain": chain,
        "request": {"addresses": watched, "height": height},
        "hex": frame.hex(),
    }

    out.update(_kind_batch_vectors(workload, addresses))

    for name, (message_cls, fields) in FIELD_VECTORS.items():
        out[name] = {
            "message": message_cls.__name__,
            "fields": fields,
            "hex": message_cls(**fields).serialize().hex(),
        }
    for name, error in ERROR_VECTORS.items():
        message = ErrorResponse.from_exception(error)
        out[name] = {
            "message": "ErrorResponse",
            "fields": _fields(message, ("kind", "message", "params")),
            "hex": message.serialize().hex(),
        }
    return out


def main() -> int:
    changed = []
    for name, vector in vectors().items():
        path = HERE / f"{name}.json"
        text = json.dumps(vector, indent=1) + "\n"
        if not path.exists():
            path.write_text(text)
            print(f"wrote {path.name}: {len(vector['hex']) // 2} bytes")
        elif path.read_text() != text:
            changed.append(path.name)
    for name in changed:
        print(f"{name}: the committed vector no longer matches", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
