"""Write the golden wire vectors in this directory.

Usage, from the repository root::

    PYTHONPATH=src python tests/vectors/make_vectors.py

The vectors were written once, by the commit before multiproofs became
their wire image, and are only read from then on
(``test_golden_vectors.py``).  A vector that stops matching means the
wire format or the verifier changed; re-running this script to make the
test pass again defeats the point of having them.

Each vector is built from the ``lvq_system`` test fixture (seed 42, 48
blocks x 10 transactions, 192-byte filters, 16-block segments) and
records the frame, what produced it, and the ``(height, txid)`` list the
light node must accept from it.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import _TEST_PROBES, NUM_BLOCKS, _config_for  # noqa: E402

from repro.node.messages import (  # noqa: E402
    AggregatedBatchResponse,
    QueryResponse,
)
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


def _history(verified):
    return [[height, tx.txid().hex()] for height, tx in verified.transactions]


def main() -> None:
    workload = generate_workload(
        WorkloadParams(
            num_blocks=NUM_BLOCKS, txs_per_block=10, seed=42, probes=_TEST_PROBES
        )
    )
    config = _config_for(SystemKind.LVQ)
    system = build_system(workload.bodies, config)
    headers = system.headers()
    chain = {
        "fixture": "lvq_system",
        "tip_height": system.tip_height,
        "tip_block_id": headers[-1].block_id().hex(),
    }

    result = answer_query(system, BMT_ADDRESS, *RANGE)
    frame = QueryResponse(result).serialize(config)
    verified = verify_result(result, headers, config, BMT_ADDRESS, RANGE)
    query_vector = {
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
    batch_vector = {
        "message": "AggregatedBatchResponse",
        "chain": chain,
        "request": {
            "addresses": addresses,
            "first_height": RANGE[0],
            "last_height": RANGE[1],
        },
        "verified": {
            address: _history(histories[address]) for address in addresses
        },
        "hex": frame.hex(),
    }

    for name, vector in (
        ("bmt_query_response", query_vector),
        ("aggregated_batch_response", batch_vector),
    ):
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(vector, indent=1) + "\n")
        print(f"wrote {path.name}: {len(vector['hex']) // 2} bytes")


if __name__ == "__main__":
    main()
