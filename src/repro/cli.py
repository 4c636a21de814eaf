"""Command-line interface: ``python -m repro <command>``.

Five subcommands, each a self-contained demonstration on a synthetic
chain (sizes/seeds configurable):

* ``query``    — verifiable history + balance of one probe address;
* ``compare``  — Fig-12-style result-size comparison across all systems;
* ``storage``  — Challenge-1 light-node storage comparison;
* ``attack``   — run the §VI adversary suite and show every rejection;
* ``segments`` — print merge sets / segment division (Tables I & II).

Plus operational tools: ``verify-store <dir>`` fscks a durable chain
store (exit 0 clean / 1 corrupt, reporting the first bad record offset);
``serve`` runs a full node as a TCP daemon (PROTOCOL.md §9) with
graceful drain on SIGTERM and optional background mining
(``--mine-interval``) so watchers see live appends; ``query --connect
HOST:PORT`` points the query client at such a daemon instead of an
in-process node; ``watch --connect HOST:PORT addr...`` opens a §10
streaming subscription and prints one parseable line per verified
update/retraction until Ctrl-C.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_bytes, render_table
from repro.analysis.sizing import storage_table
from repro.chain.segments import merge_set, segment_spans
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.transport import InProcessTransport
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload


def _add_chain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--blocks", type=int, default=128, help="chain length")
    parser.add_argument(
        "--txs-per-block", type=int, default=16, help="background txs/block"
    )
    parser.add_argument("--seed", type=int, default=2020, help="workload seed")
    parser.add_argument(
        "--bf-bytes", type=int, default=512, help="Bloom filter size (bytes)"
    )
    parser.add_argument(
        "--segment-len",
        type=int,
        default=0,
        help="LVQ segment length M (default: largest power of two <= blocks)",
    )


def _segment_len(args) -> int:
    if args.segment_len:
        return args.segment_len
    length = 1
    while length * 2 <= args.blocks:
        length *= 2
    return length


def _workload(args):
    return generate_workload(
        WorkloadParams(
            num_blocks=args.blocks,
            txs_per_block=args.txs_per_block,
            seed=args.seed,
        )
    )


def _all_configs(args):
    segment_len = _segment_len(args)
    return {
        "strawman": SystemConfig.strawman(bf_bytes=args.bf_bytes),
        "lvq_no_bmt": SystemConfig.lvq_no_bmt(bf_bytes=args.bf_bytes),
        "lvq_no_smt": SystemConfig.lvq_no_smt(
            bf_bytes=args.bf_bytes * 3, segment_len=segment_len
        ),
        "lvq": SystemConfig.lvq(
            bf_bytes=args.bf_bytes * 3, segment_len=segment_len
        ),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_query(args) -> int:
    workload = _workload(args)
    config = SystemConfig.lvq(
        bf_bytes=args.bf_bytes * 3, segment_len=_segment_len(args)
    )
    system = build_system(workload.bodies, config)
    local_node = FullNode(system)
    light_node = LightNode.from_full_node(local_node)

    if args.connect:
        # Same synthetic chain parameters as the daemon → same trusted
        # headers; the *answer* comes over the socket and is verified.
        from repro.node.netclient import RemoteFullNode

        host, _, port = args.connect.rpartition(":")
        full_node = RemoteFullNode((host or "127.0.0.1", int(port)))
    else:
        full_node = local_node

    if args.address in workload.probe_addresses:
        address = workload.probe_addresses[args.address]
    else:
        address = args.address
    transport = InProcessTransport()
    kwargs = {}
    if args.range:
        first, last = args.range
        kwargs = {"first_height": first, "last_height": last}
    try:
        history = light_node.query_history(
            full_node, address, transport, **kwargs
        )
    finally:
        if args.connect:
            full_node.close()

    print(f"address       : {address}")
    print(f"transactions  : {len(history.transactions)}")
    print(f"active blocks : {len(history.heights())}")
    print(f"balance (Eq 1): {history.balance():,}")
    print(f"BMT endpoints : {history.num_endpoints}")
    print(f"proof bytes   : {transport.stats.bytes_to_client:,}")
    sizes = local_node.query(address, **kwargs).breakdown(config)
    print(f"raw result    : {sizes.total_bytes:,}")
    print(f"wire (agg)    : {sizes.aggregated_bytes:,}")
    print(f"wire (agg+z)  : {sizes.compressed_bytes:,}")
    if args.verbose:
        for height, tx in history.transactions:
            received = tx.received_by(address)
            sent = tx.sent_by(address)
            print(
                f"  h={height:6d} {tx.txid().hex()[:16]} "
                f"recv={received:+d} sent={-sent:+d}"
            )
    return 0


def cmd_compare(args) -> int:
    workload = _workload(args)
    configs = _all_configs(args)
    sizes = {}
    for label, config in configs.items():
        system = build_system(workload.bodies, config)
        full_node = FullNode(system)
        sizes[label] = {
            name: full_node.query(address).size_bytes(config)
            for name, address in workload.probe_addresses.items()
        }
    rows = [
        [name] + [format_bytes(sizes[label][name]) for label in configs]
        for name in workload.probe_addresses
    ]
    print(render_table(["Address", *configs.keys()], rows))
    return 0


def cmd_storage(args) -> int:
    workload = _workload(args)
    configs = _all_configs(args)
    configs["strawman_header_bf"] = SystemConfig.strawman_header_bf(
        bf_bytes=args.bf_bytes
    )
    labelled = [
        (label, build_system(workload.bodies, config).headers())
        for label, config in configs.items()
    ]
    rows = storage_table(labelled)
    print(
        render_table(
            ["System", "Blocks", "Total", "Overhead/block", "vs Bitcoin"],
            [
                [
                    row["system"],
                    row["blocks"],
                    format_bytes(row["total_bytes"]),
                    f"{row['per_block_overhead']}B",
                    f"{row['vs_bitcoin']:.2f}x",
                ]
                for row in rows
            ],
        )
    )
    return 0


def cmd_attack(args) -> int:
    from repro.errors import VerificationError
    from repro.query.adversary import ALL_ATTACKS, MaliciousFullNode

    workload = _workload(args)
    config = SystemConfig.lvq(
        bf_bytes=args.bf_bytes * 3, segment_len=_segment_len(args)
    )
    system = build_system(workload.bodies, config)
    light_node = LightNode(system.headers(), config)
    address = workload.probe_addresses[args.address] if (
        args.address in workload.probe_addresses
    ) else args.address

    undetected = 0
    for name, attack in sorted(ALL_ATTACKS.items()):
        liar = MaliciousFullNode(system, attack)
        try:
            light_node.query_history(liar, address)
        except VerificationError as reason:
            print(f"{name:28s} rejected: {str(reason)[:80]}")
        else:
            if liar.last_attack_applied:
                undetected += 1
                print(f"{name:28s} *** ACCEPTED A MODIFIED ANSWER ***")
            else:
                print(f"{name:28s} no-op for this address (answer honest)")
    return 1 if undetected else 0


def cmd_wallet(args) -> int:
    """A watch-only wallet session: batch-refresh several probes, then
    optionally persist the wallet to disk."""
    from repro.analysis.report import render_table as _render
    from repro.node.light_node import LightNode
    from repro.wallet import Wallet

    workload = _workload(args)
    config = SystemConfig.lvq(
        bf_bytes=args.bf_bytes * 3, segment_len=_segment_len(args)
    )
    system = build_system(workload.bodies, config)
    full_node = FullNode(system)

    watched = []
    for name in args.watch:
        watched.append(workload.probe_addresses.get(name, name))
    wallet = Wallet(LightNode.from_full_node(full_node), watched)
    wallet.refresh(full_node)

    print(
        _render(
            ["Address", "Verified balance", "#Tx"],
            [
                [
                    address,
                    f"{wallet.balance(address):,}",
                    len(wallet.history(address)),
                ]
                for address in wallet.addresses
            ],
        )
    )
    print(f"Total: {wallet.total_balance():,}")
    if args.save:
        wallet.save(args.save)
        print(f"Wallet persisted to {args.save}")
    return 0


def cmd_verify_store(args) -> int:
    """Offline fsck of a durable (format-2) chain store directory."""
    from repro.storage.durable import verify_store

    report = verify_store(args.directory, deep=args.deep)
    status = "clean" if report.ok else "CORRUPT"
    print(f"{report.directory}: {status}")
    print(f"  blocks          : {report.blocks}")
    print(f"  tip             : {report.tip_id or '-'}")
    print(f"  log bytes       : {report.log_bytes:,}")
    print(f"  committed bytes : {report.committed_bytes:,}")
    print(f"  records         : {report.records}")
    if report.torn_bytes:
        print(f"  torn tail       : {report.torn_bytes:,} bytes (recoverable)")
    if report.first_bad_offset is not None:
        print(f"  first bad record: offset {report.first_bad_offset}")
    if report.detail:
        print(f"  detail          : {report.detail}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run a full node as a TCP daemon until SIGTERM/SIGINT, then drain.

    With ``--mine-blocks N`` a background miner appends one
    pre-generated block every ``--mine-interval`` seconds, so connected
    ``repro watch`` clients receive live pushed updates.  The base chain
    stays the canonical ``--blocks`` workload (a client building the
    same parameters shares genesis and trusted headers); the mined
    blocks come from a seed-derived continuation workload, so each run
    is still deterministic while clients verify the appends purely from
    the pushed proofs.
    """
    import signal
    import threading

    from repro.node.metrics import MetricsServer
    from repro.node.net import NetServer
    from repro.node.server import QueryServer
    from repro.node.subscribe import SubscriptionRegistry

    mine_blocks = max(0, args.mine_blocks)
    workload = _workload(args)
    config = SystemConfig.lvq(
        bf_bytes=args.bf_bytes * 3, segment_len=_segment_len(args)
    )
    system = build_system(workload.bodies, config)
    node = FullNode(system)
    query_server = QueryServer(
        node,
        num_workers=args.workers,
        max_pending=args.max_pending,
        rate_limit=args.rate_limit if args.rate_limit > 0 else None,
        rate_burst=args.rate_burst if args.rate_burst > 0 else None,
    )
    registry = SubscriptionRegistry(node)
    server = NetServer(
        query_server,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        read_timeout=args.read_timeout,
        write_timeout=args.write_timeout,
        subscriptions=registry,
        push_outbox=args.push_outbox,
    )
    server.start()
    metrics: "Optional[MetricsServer]" = None
    if args.metrics_port is not None:
        metrics = MetricsServer(
            host=args.host,
            port=args.metrics_port,
            server=query_server,
            net=server,
            subscriptions=registry,
        ).start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    miner: "Optional[threading.Thread]" = None
    if mine_blocks:
        continuation = generate_workload(
            WorkloadParams(
                num_blocks=mine_blocks,
                txs_per_block=args.txs_per_block,
                seed=args.seed + 104729,  # distinct stream, still seeded
            )
        )
        pending = continuation.bodies[1:]  # bodies[0] is its genesis

        def _mine() -> None:
            for transactions in pending:
                if stop.wait(args.mine_interval):
                    return
                node.extend_chain([transactions])
                print(f"mined height {system.tip_height}", flush=True)

        miner = threading.Thread(target=_mine, name="repro-miner", daemon=True)
        miner.start()

    # Parseable by scripts/tests: the kernel picks the port when 0.
    print(f"serving on {server.host}:{server.port}", flush=True)
    print(
        f"  limits: workers={args.workers} queue-depth={args.max_pending} "
        f"max-connections={args.max_connections} "
        f"rate-limit={args.rate_limit if args.rate_limit > 0 else 'off'}",
        flush=True,
    )
    if metrics is not None:
        metrics_host, metrics_port = metrics.address
        print(f"metrics on {metrics_host}:{metrics_port}", flush=True)
    print(
        f"  chain: {args.blocks} blocks, tip height {system.tip_height}"
        + (f", mining {mine_blocks} more every {args.mine_interval}s"
           if mine_blocks else ""),
        flush=True,
    )
    try:
        stop.wait()
    finally:
        stop.set()
        if miner is not None:
            miner.join(timeout=5.0)
        print("draining...", flush=True)
        if metrics is not None:
            metrics.close()
        registry.close()
        server.close(drain=True, timeout=args.drain_timeout)
        query_server.close(drain=True, timeout=args.drain_timeout)
        stats = server.stats.as_dict()
        print(
            f"served {stats['frames_in']} frames over "
            f"{stats['connections_accepted']} connections "
            f"({stats['bytes_in']:,}B in, {stats['bytes_out']:,}B out, "
            f"{stats['pushes']} pushes)",
            flush=True,
        )
    return 0


def cmd_watch(args) -> int:
    """Stream verified watch updates from a daemon, one line per event.

    Builds the same synthetic chain parameters as the daemon for the
    trusted genesis headers (the daemon may have mined further — the
    session backfills the difference through verified range queries),
    subscribes over TCP, and prints each event's ``describe()`` line.
    Ctrl-C unsubscribes and exits cleanly.
    """
    from repro.node.subscribe import SubscriptionSession, WatchClosed

    workload = _workload(args)
    config = SystemConfig.lvq(
        bf_bytes=args.bf_bytes * 3, segment_len=_segment_len(args)
    )
    system = build_system(workload.bodies, config)
    light_node = LightNode(system.headers(), config)

    host, _, port = args.connect.rpartition(":")
    watched = [
        workload.probe_addresses.get(name, name) for name in args.addresses
    ]
    session = SubscriptionSession(
        light_node,
        (host or "127.0.0.1", int(port)),
        watched,
        keepalive=args.keepalive,
    )
    print(f"watching {len(watched)} addresses via {args.connect}", flush=True)
    session.start()
    import time as _time

    deadline = _time.monotonic() + args.duration if args.duration else None
    updates = 0
    status = 0
    try:
        while True:
            event = session.next_event(timeout=0.25)
            if event is None:
                if deadline is not None and _time.monotonic() >= deadline:
                    break
                continue
            print(event.describe(), flush=True)
            if isinstance(event, WatchClosed):
                break
            if event.kind == "update":
                updates += 1
                if args.max_updates and updates >= args.max_updates:
                    break
            elif event.kind == "disconnect" and event.final:
                status = 1
    except KeyboardInterrupt:
        pass
    finally:
        session.stop()
    stats = session.stats
    print(
        f"watch done: {stats.updates_verified} updates verified, "
        f"{stats.retractions} retractions, {stats.backfills} backfills, "
        f"0 unverified surfaced",
        flush=True,
    )
    return status


def cmd_segments(args) -> int:
    print("Table I — merge sets (M = 4096):")
    print(
        render_table(
            ["Height", "Blocks to be merged"],
            [
                [height, ", ".join(map(str, merge_set(height, 4096)))]
                for height in range(1, 9)
            ],
        )
    )
    print(f"\nSegment division for tip={args.tip}, M={args.segment}:")
    spans = segment_spans(args.tip, args.segment)
    print(", ".join(f"[{start},{end}]" for start, end in spans))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="verifiable history of one address")
    _add_chain_arguments(query)
    query.add_argument(
        "--address", default="Addr4",
        help="probe name (Addr1..Addr6) or literal address",
    )
    query.add_argument(
        "--range", type=int, nargs=2, metavar=("FIRST", "LAST"),
        help="restrict the query to a height range",
    )
    query.add_argument("--verbose", action="store_true")
    query.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="query a running `repro serve` daemon instead of in-process",
    )
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser(
        "serve", help="run a full node as a TCP daemon (PROTOCOL.md §9)"
    )
    _add_chain_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 = kernel-assigned"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--queue-depth",
        "--max-pending",
        dest="max_pending",
        type=int,
        default=64,
        help="bound on admitted-but-unstarted requests",
    )
    serve.add_argument("--max-connections", type=int, default=64)
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client requests/second budget (0 = unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=0.0,
        help="per-client token-bucket burst (0 = 2x rate)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus-style /metrics on this port (0 = kernel pick)",
    )
    serve.add_argument("--idle-timeout", type=float, default=30.0)
    serve.add_argument("--read-timeout", type=float, default=10.0)
    serve.add_argument("--write-timeout", type=float, default=10.0)
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="grace period for in-flight requests on shutdown",
    )
    serve.add_argument(
        "--mine-blocks",
        type=int,
        default=0,
        help="pre-generate this many extra blocks and append them live",
    )
    serve.add_argument(
        "--mine-interval",
        type=float,
        default=1.0,
        help="seconds between background block appends",
    )
    serve.add_argument(
        "--push-outbox",
        type=int,
        default=256,
        help="per-subscriber outbox bound before slow-consumer eviction",
    )
    serve.set_defaults(func=cmd_serve)

    watch = sub.add_parser(
        "watch",
        help="stream verified watch-address updates from a daemon (§10)",
    )
    _add_chain_arguments(watch)
    watch.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="a running `repro serve` daemon",
    )
    watch.add_argument(
        "addresses",
        nargs="+",
        help="probe names (Addr1..Addr6) or literal addresses to watch",
    )
    watch.add_argument(
        "--keepalive",
        type=float,
        default=5.0,
        help="quiet seconds before a keepalive ping",
    )
    watch.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = until Ctrl-C)",
    )
    watch.add_argument(
        "--max-updates",
        type=int,
        default=0,
        help="stop after this many verified updates/backfills (0 = no cap)",
    )
    watch.set_defaults(func=cmd_watch)

    compare = sub.add_parser("compare", help="Fig-12-style size comparison")
    _add_chain_arguments(compare)
    compare.set_defaults(func=cmd_compare)

    storage = sub.add_parser("storage", help="Challenge-1 storage comparison")
    _add_chain_arguments(storage)
    storage.set_defaults(func=cmd_storage)

    attack = sub.add_parser("attack", help="run the §VI adversary suite")
    _add_chain_arguments(attack)
    attack.add_argument("--address", default="Addr5")
    attack.set_defaults(func=cmd_attack)

    wallet = sub.add_parser("wallet", help="watch-only wallet session")
    _add_chain_arguments(wallet)
    wallet.add_argument(
        "--watch",
        nargs="+",
        default=["Addr2", "Addr4", "Addr6"],
        help="probe names or literal addresses to watch",
    )
    wallet.add_argument("--save", help="directory to persist the wallet to")
    wallet.set_defaults(func=cmd_wallet)

    verify = sub.add_parser(
        "verify-store",
        help="fsck a durable chain store (exit 0 clean, 1 corrupt)",
    )
    verify.add_argument("directory", help="chain store directory to check")
    verify.add_argument(
        "--deep",
        action="store_true",
        help="also rebuild indexes and cross-check every stored header",
    )
    verify.set_defaults(func=cmd_verify_store)

    segments = sub.add_parser("segments", help="Tables I & II calculators")
    segments.add_argument("--tip", type=int, default=464)
    segments.add_argument("--segment", type=int, default=256)
    segments.set_defaults(func=cmd_segments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
