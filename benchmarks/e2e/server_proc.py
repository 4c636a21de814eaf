"""The program under test, in its own process.

Composes the same public classes as ``repro serve`` — ``FullNode`` →
``QueryServer`` → ``SubscriptionRegistry`` → ``NetServer`` — over the
canonical chain, prints one JSON line with its port, then obeys one-word
commands on stdin, answering each with one JSON line:

``append``          extend the chain by the next pre-generated block
``stats``           every public stats object, as one document
``replay SECONDS``  (trace mode) re-run logged requests stage by stage
``spans PATH``      (trace mode) append the recorded spans to PATH
``quit``            drain and exit (stdin EOF does the same)

It is told a seed and a chain length, never a workload name.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import stats as summary  # noqa: E402
from tracing import SpanNode, SpanRecorder, SpanTarget  # noqa: E402
from workloads import chain_bodies, system_config  # noqa: E402

from repro.node import messages  # noqa: E402
from repro.node.full_node import FullNode  # noqa: E402
from repro.node.net import NetServer  # noqa: E402
from repro.node.server import QueryServer  # noqa: E402
from repro.node.subscribe import SubscriptionRegistry  # noqa: E402
from repro.node.transport import compress_frame  # noqa: E402
from repro.query.aggregate import encode_aggregated_batch  # noqa: E402
from repro.query.batch import answer_batch_query  # noqa: E402
from repro.query.builder import build_system  # noqa: E402
from repro.query.prover import answer_query  # noqa: E402

#: ``QueryServer`` shape every workload is served with.
NUM_WORKERS = 2
MAX_PENDING = 256


def replay(system, payloads, budget_seconds: float) -> "dict[str, float]":
    """Split the ``handle_*`` span: run logged requests one stage at a
    time, outside the serving path, and report each stage's median.

    The requests are the distinct frames the server really received,
    taken at an even stride so the sample keeps the workload's mix.
    """
    config = system.config
    index = system.address_index
    distinct = list(dict.fromkeys(payloads))
    stride = max(1, len(distinct) // 256)
    samples: "dict[str, list[float]]" = {}
    deadline = time.perf_counter() + budget_seconds
    for payload in distinct[::stride]:
        if time.perf_counter() > deadline:
            break
        tag = payload[0]
        if tag == messages.QueryRequest.type_tag:
            request = messages.QueryRequest.deserialize(payload)
            last = request.last_height or system.tip_height
            span = (request.address, request.first_height, last)

            def lookup():
                for height in index.heights(request.address):
                    if request.first_height <= height <= last:
                        index.tx_indices(request.address, height)

            summary.timed_ms(samples, "index.lookup_ms", lookup)
            system.clear_query_caches()
            summary.timed_ms(
                samples, "prover.answer_cold_ms", lambda: answer_query(system, *span)
            )
            result = summary.timed_ms(
                samples, "prover.answer_warm_ms", lambda: answer_query(system, *span)
            )
            summary.timed_ms(
                samples,
                "messages.encode_response_ms",
                lambda: messages.QueryResponse(result).serialize(config),
            )
            samples.setdefault("prover.resolutions_per_op", []).append(
                sum(len(segment.resolutions) for segment in result.segments)
            )
        elif tag == messages.AggregatedBatchRequest.type_tag:
            request = messages.AggregatedBatchRequest.deserialize(payload)
            # As the serving path saw it: every batch asked about a range
            # of its own (segment proofs cold), for addresses seen before
            # (block resolutions warm).
            system.caches.segments.clear()
            batch = summary.timed_ms(
                samples,
                "batch.answer_ms",
                lambda: answer_batch_query(
                    system,
                    request.addresses,
                    request.first_height,
                    request.last_height or None,
                ),
            )
            encoded = summary.timed_ms(
                samples,
                "aggregate.encode_ms",
                lambda: encode_aggregated_batch(batch, config),
            )
            frame = bytes([messages.AggregatedBatchResponse.type_tag]) + encoded
            samples.setdefault("aggregate.bytes_ratio", []).append(
                len(encoded) / len(batch.serialize(config))
            )
            compressed = summary.timed_ms(
                samples, "transport.compress_ms", lambda: compress_frame(frame)
            )
            samples.setdefault("transport.compress_ratio", []).append(
                len(compressed) / len(frame)
            )
            samples.setdefault("prover.resolutions_per_op", []).append(
                sum(
                    len(segment.resolutions)
                    for segments in batch.per_address_segments
                    for segment in segments
                )
            )
    report = {name: summary.median(values) for name, values in samples.items()}
    report["index.lookup_us"] = report.pop("index.lookup_ms", 0.0) * 1000.0
    report["replayed"] = max((len(v) for v in samples.values()), default=0)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--extra", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    started = time.monotonic()
    bodies, _probes = chain_bodies(args.seed, args.blocks, args.extra)
    generated = time.monotonic()
    system = build_system(bodies[: args.blocks + 1], system_config(args.blocks))
    built = time.monotonic()
    pending = bodies[args.blocks + 1 :]

    node = FullNode(system)
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        in_flight: dict = {}
        query_server = QueryServer(
            SpanNode(node, recorder, in_flight),
            num_workers=NUM_WORKERS,
            max_pending=MAX_PENDING,
        )
        target = SpanTarget(query_server, recorder, in_flight)
    else:
        query_server = target = QueryServer(
            node, num_workers=NUM_WORKERS, max_pending=MAX_PENDING
        )
    registry = SubscriptionRegistry(node)
    net = NetServer(target, subscriptions=registry).start()

    def reply(document) -> None:
        sys.stdout.write(json.dumps(document) + "\n")
        sys.stdout.flush()

    reply(
        {
            "port": net.port,
            "generate_s": generated - started,
            "build_s": built - generated,
            "tip": system.tip_height,
        }
    )
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "append":
                t0 = time.monotonic()
                node.extend_chain([pending.pop(0)])
                t1 = time.monotonic()
                reply({"height": system.tip_height, "t0": t0, "t1": t1})
            elif command == "stats":
                reply(
                    {
                        "query_server": query_server.stats(),
                        "net": net.stats.as_dict(),
                        "subscriptions": registry.stats.as_dict(),
                    }
                )
            elif command == "replay":
                reply(replay(system, target.payloads, float(argument)))
            elif command == "spans":
                recorder.write(argument, "server")
                reply({"spans": len(recorder.spans)})
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        registry.close()
        net.close(drain=True, timeout=5.0)
        query_server.close(drain=True, timeout=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
