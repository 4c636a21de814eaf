"""The load generator: one process, at most ``nproc`` client threads.

Drives a :mod:`server_proc` child over loopback TCP through the real
client stack (``LightNode`` → ``RemoteFullNode`` → ``ConnectionPool`` →
socket), checks every accepted answer against a local honest oracle, and
returns the end-to-end metrics of one workload.  Given a trace path it
also records spans around the client's public calls and joins them with
the server's.

A run is: set-up (server launch and header bootstrap, timed) → the
workload's fixed prefix of ops (fills the caches; bytes on the wire are
counted over it, because only a fixed op count gives the same bytes on
every run of a seed) → a timed warm-up stretch, discarded → the timed
part → oracle checks.  On ``live_chain`` an open-loop appender and a
watcher run beside the poller for the whole timed part.

Speed probes (:mod:`speed`) run on both CPUs for the whole of a run, and
every duration reported from the timed part is divided by how much the
probes say its quarter second was slowed (:class:`FullSpeed`).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import stats
from speed import Probes, Speeds
from tracing import SpanRecorder, durations_by_op
from workloads import Chain, LiveChain, Op, Workload

from repro.errors import CompletenessError, ReproError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import (
    AggregatedBatchResponse,
    QueryRequest,
    QueryResponse,
)
from repro.node.netclient import RemoteFullNode
from repro.node.subscribe import (
    SubscriptionSession,
    WatchBackfill,
    WatchClosed,
    WatchUpdate,
)
from repro.node.transport import compress_frame, decompress_frame
from repro.query.batch import verify_batch_result
from repro.query.builder import build_system
from repro.query.verifier import verify_result

HERE = pathlib.Path(__file__).resolve().parent
HOST = "127.0.0.1"
#: The CPUs this process was given, read before any harness pins it.
CPUS = sorted(os.sched_getaffinity(0))

#: Open-loop append spacing on ``live_chain``, seconds: 200 appends in a
#: 16 s run, ten beyond their p95.  An append holds the write lock for
#: 2 ms; at 50 ms apart 4–5 % of the poller's ops met one and its p95 sat
#: on the edge between ops that did (3–4 ms) and ops that did not (1 ms).
LIVE_APPEND_INTERVAL = 0.08
#: Timed warm-up after each workload's fixed prefix, seconds.
WARMUP_SECONDS = 1.5
#: Width of the slices the timed part is re-clocked by, seconds: the
#: machine's speed holds a level for a second at least.
SLICE_SECONDS = 0.25
#: Attempts at one live op before a tip race counts as a failure.
LIVE_ATTEMPTS = 8
#: Wall-clock budget of the byte-identity oracle pass, seconds.
ORACLE_BUDGET = 1.0


# ---------------------------------------------------------------------------
# the server child


class Server:
    """Handle on one ``server_proc.py`` child process."""

    def __init__(
        self, seed: int, blocks: int, extra: int, trace: bool, cpu: int
    ) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server_proc.py"),
                "--seed", str(seed),
                "--blocks", str(blocks),
                "--extra", str(extra),
                "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lock = threading.Lock()
        self.ready: Dict[str, float] = {}
        os.sched_setaffinity(self.process.pid, {cpu})

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited with code {self.process.wait()}"
            )
        return json.loads(line)

    def wait_ready(self) -> dict:
        self.ready = self._read()
        return self.ready

    @property
    def port(self) -> int:
        return int(self.ready["port"])

    def command(self, line: str) -> dict:
        with self._lock:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
            return self._read()

    def cpu_seconds(self) -> float:
        """CPU time of the server process so far: its threads' run time
        from ``schedstat`` (nanoseconds; ``/proc/<pid>/stat`` ticks in
        hundredths of a second, a twentieth of a slice)."""
        tasks = f"/proc/{self.process.pid}/task"
        total = 0
        for task in os.listdir(tasks):
            try:
                with open(f"{tasks}/{task}/schedstat", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                pass  # a thread that ended between the listing and the read
        return total / 1e9

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def quit(self) -> None:
        """Ask for a drain, then make sure the child is gone."""
        try:
            if self.process.poll() is None:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
            self.process.wait(timeout=15.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdin.close()
            self.process.stdout.close()


# ---------------------------------------------------------------------------
# the client side


class Probe:
    """The transport duck ``LightNode`` calls accept: it sees every
    request frame leave and every response frame arrive, which is where
    the client's spans, byte counts and oracle samples come from."""

    __slots__ = (
        "client", "recorder", "seq", "bytes_in", "frames_in", "response",
        "request", "t_sent", "t_received",
    )

    def __init__(self, client: str, recorder: Optional[SpanRecorder]) -> None:
        self.client = client
        self.recorder = recorder
        #: Requests this client has put on its connection so far; the
        #: server-side ``SpanTarget`` counts the same way.
        self.seq = 0
        self.bytes_in = 0
        self.frames_in = 0
        self.request = b""
        self.response = b""
        self.t_sent = 0
        self.t_received = 0

    def send_to_server(self, payload: bytes) -> bytes:
        self.request = payload
        if self.recorder is not None:
            self.t_sent = time.monotonic_ns()
        return payload

    def send_to_client(self, payload: bytes) -> bytes:
        if self.recorder is not None:
            self.t_received = time.monotonic_ns()
            self.recorder.add(
                "netclient.request",
                self.t_sent,
                self.t_received,
                "client.op",
                (self.client, self.seq),
            )
        self.seq += 1
        self.bytes_in += len(payload)
        self.frames_in += 1
        self.response = payload
        return payload


class Client:
    """One closed-loop client thread's state and samples."""

    def __init__(
        self,
        name: str,
        port: int,
        chain: Chain,
        headers,
        codec: Optional[str],
        recorder: Optional[SpanRecorder],
        oracle_stride: int,
    ) -> None:
        self.name = name
        self.chain = chain
        self.recorder = recorder
        self.oracle_stride = oracle_stride
        self.remote = RemoteFullNode(
            (HOST, port), size=1, codec=codec, client_id=name
        )
        self.light = LightNode(headers, chain.config)
        self.probe = Probe(name, recorder)
        self.reset()

    def reset(self) -> None:
        """Forget the warm-up: samples start again, connections stay."""
        #: Per verified op: (finished at, latency ms, thread CPU ms).
        self.done: "List[Tuple[float, float, float]]" = []
        self.attempted = 0
        self.failures: List[str] = []
        self.wrong_answers = 0
        self.tip_race_retries = 0
        self.endpoints: List[int] = []
        self.sync_ms: List[float] = []
        #: (tip, request, digest of the accepted response) — checked
        #: against the oracle's bytes after the timed part.
        self.oracle_samples: "List[Tuple[int, bytes, bytes]]" = []
        #: (op, tip, response) kept for the client-side stage replay.
        self.replay_samples: "List[Tuple[Op, int, bytes]]" = []
        self.probe.bytes_in = self.probe.frames_in = 0

    # -- one op ------------------------------------------------------------

    def _query(self, op: Op, first: int, last: int):
        if op.kind == "batch":
            return self.light.query_batch(
                self.remote,
                op.addresses,
                self.probe,
                first_height=first,
                last_height=last,
                aggregated=True,
            )
        history = self.light.query_history(
            self.remote,
            op.addresses[0],
            self.probe,
            first_height=first,
            last_height=last,
        )
        return {op.addresses[0]: history}

    def _execute(self, op: Op):
        """Run one op to a verified result; returns ``(histories, first,
        last, t_section)`` where ``t_section`` is when the request that
        produced the result started being built."""
        if op.kind != "live":
            return self._query(op, op.first, op.last), op.first, op.last, None
        error: Optional[Exception] = None
        for attempt in range(LIVE_ATTEMPTS):
            if attempt:
                self.tip_race_retries += 1
            started = time.monotonic_ns()
            self.light.sync_headers(self.remote, self.probe, delta=True)
            synced = time.monotonic_ns()
            self.sync_ms.append((synced - started) / 1e6)
            if self.recorder is not None:
                self.recorder.add(
                    "light_node.sync_headers",
                    started,
                    synced,
                    "client.op",
                    (self.name, self.probe.seq),  # the query that follows
                )
            last = self.light.tip_height
            first = max(1, last - LiveChain.RECENT + 1)
            try:
                return self._query(op, first, last), first, last, synced
            except CompletenessError as raced:
                error = raced  # the tip moved between sync and query
        raise error

    def run_one(self, op: Op, index: int) -> None:
        self.attempted += 1
        recorder = self.recorder
        cpu_started = time.thread_time()
        started = time.monotonic_ns()
        try:
            histories, first, last, section = self._execute(op)
        except ReproError as error:
            self.failures.append(type(error).__name__)
            return
        finished = time.monotonic_ns()
        self.done.append(
            (
                finished / 1e9,
                (finished - started) / 1e6,
                (time.thread_time() - cpu_started) * 1000.0,
            )
        )
        probe = self.probe
        if recorder is not None:
            request_op = (self.name, probe.seq - 1)
            recorder.add("client.op", started, finished, "", request_op)
            recorder.add(
                "messages.encode_request",
                section if section is not None else started,
                probe.t_sent,
                "client.op",
                request_op,
            )
            recorder.add(
                "client.decode_verify",
                probe.t_received,
                finished,
                "client.op",
                request_op,
            )
        # Everything below is the harness checking the program, outside
        # the op's latency and CPU windows.
        endpoints = 0
        for address, history in histories.items():
            endpoints += history.num_endpoints or 0
            got = [(height, tx.txid()) for height, tx in history.transactions]
            if got != self.chain.expected(address, first, last):
                self.wrong_answers += 1
        self.endpoints.append(endpoints)
        if index % self.oracle_stride == 0:
            tip = self.light.tip_height
            digest = hashlib.blake2b(probe.response, digest_size=16).digest()
            self.oracle_samples.append((tip, probe.request, digest))
            if recorder is not None and len(self.replay_samples) < 48:
                self.replay_samples.append((op, tip, probe.response))

    def run(self, ops: Iterator[Op], deadline: Optional[float], count: int = 0):
        """Execute ``count`` ops, or ops until ``deadline`` (monotonic)."""
        index = 0
        for op in ops:
            if deadline is not None and time.monotonic() >= deadline:
                break
            self.run_one(op, index)
            index += 1
            if count and index >= count:
                break

    def close(self) -> None:
        self.remote.close()


def _run_threads(clients: List[Client], streams, deadline, count=0) -> None:
    """Run every client's loop on its own thread until all are done."""
    threads = [
        threading.Thread(target=client.run, args=(stream, deadline, count))
        for client, stream in zip(clients, streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# the live part: appender + watcher


class LiveResult:
    def __init__(self) -> None:
        self.appends: "List[dict]" = []
        #: Server-side append start → verified update surfaced, ms, and
        #: when each of those appends started.
        self.notify_ms: List[float] = []
        self.notify_at: List[float] = []
        self.after_append_ms: List[float] = []
        self.late_ms: List[float] = []
        self.missing = 0
        self.wrong = 0
        self.watch_stats: Dict[str, int] = {}

    @property
    def extend_ms(self) -> List[float]:
        """Wall time of each ``extend_chain`` call on the server, ms."""
        return [(a["t1"] - a["t0"]) * 1000.0 for a in self.appends]


def _append_loop(server: Server, count: int, out: LiveResult) -> None:
    """Open loop: one append is due every ``LIVE_APPEND_INTERVAL``; a late
    generator does not push the schedule back, and its lateness is
    reported."""
    origin = time.monotonic()
    for index in range(count):
        due = origin + index * LIVE_APPEND_INTERVAL
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        sent = time.monotonic()
        reply = server.command("append")
        out.late_ms.append((sent - due) * 1000.0)
        out.appends.append(reply)


def run_live(
    server: Server,
    chain: Chain,
    headers,
    count: int,
    poller: Client,
    poller_ops: Iterator[Op],
) -> LiveResult:
    """Subscribe a watcher, append ``count`` blocks open-loop with the
    poller reading beside them, and match every verified push to the
    append that caused it."""
    out = LiveResult()
    watched = chain.watch_set()
    session = SubscriptionSession(
        LightNode(headers, chain.config), (HOST, server.port), watched
    )
    session.start()
    if not session.wait_subscribed(10.0):
        session.stop()
        raise RuntimeError("watcher never got its subscribe ack")
    base_tip = len(headers) - 1
    appender = threading.Thread(target=_append_loop, args=(server, count, out))
    started = time.monotonic()
    appender.start()
    poller.run(poller_ops, started + count * LIVE_APPEND_INTERVAL)
    appender.join()

    surfaced: Dict[int, float] = {}
    target = base_tip + count
    give_up = time.monotonic() + 10.0
    while len(surfaced) < count and time.monotonic() < give_up:
        event = session.next_event(timeout=0.25)
        if event is None:
            continue
        if isinstance(event, WatchClosed):
            break
        if isinstance(event, (WatchUpdate, WatchBackfill)):
            for address, history in event.histories.items():
                got = [(h, tx.txid()) for h, tx in history.transactions]
                want = chain.expected(
                    address, event.first_height, event.last_height
                )
                if got != want:
                    out.wrong += 1
            for height in range(event.first_height, event.last_height + 1):
                if base_tip < height <= target:
                    surfaced[height] = event.emitted_at
    session.stop()
    out.watch_stats = session.stats.as_dict()
    for append in out.appends:
        emitted = surfaced.get(append["height"])
        if emitted is None:
            out.missing += 1
            continue
        out.notify_ms.append((emitted - append["t0"]) * 1000.0)
        out.notify_at.append(append["t0"])
        out.after_append_ms.append((emitted - append["t1"]) * 1000.0)
    return out


# ---------------------------------------------------------------------------
# set-up, oracle, one measured run


class Oracle:
    """The honest local reference: the same chain built in this process."""

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        self.system = build_system(
            chain.bodies[: chain.blocks + 1], chain.config
        )
        self.node = FullNode(self.system)

    def move_to(self, tip: int) -> List[float]:
        """Roll back or append to ``tip``; returns the wall time, in ms,
        of each ``append_block`` it took (nobody is subscribed here)."""
        append_ms = []
        if tip < self.system.tip_height:
            self.system.rollback_to(tip)
        while self.system.tip_height < tip:
            body = self.chain.bodies[self.system.tip_height + 1]
            started = time.perf_counter()
            self.system.append_block(body)
            append_ms.append((time.perf_counter() - started) * 1000.0)
        return append_ms

    def check(self, samples) -> "Tuple[int, int]":
        """Byte-identity of sampled accepted frames against this node's
        own answers at the same tip; returns ``(checked, mismatched)``."""
        checked = mismatched = 0
        deadline = time.monotonic() + ORACLE_BUDGET
        for tip, request, digest in sorted(samples, key=lambda s: s[0]):
            if time.monotonic() > deadline:
                break
            self.move_to(tip)
            if request[0] == QueryRequest.type_tag:
                answer = self.node.handle_query(request)
            else:
                answer = self.node.handle_batch_query(request)
            checked += 1
            if hashlib.blake2b(answer, digest_size=16).digest() != digest:
                mismatched += 1
        return checked, mismatched


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


class Harness:
    """One seed's chain and oracle, and the runs measured against them."""

    def __init__(self, seed: int, blocks: int, extra: int) -> None:
        self.seed = seed
        self.blocks = blocks
        #: Blocks pre-generated for live appends; the same for every
        #: workload, so one chain (and one oracle) serves them all.
        self.extra = extra
        self.chain: Optional[Chain] = None
        self.oracle: Optional[Oracle] = None
        # A CPU each for this process and for the server, when there are
        # two to give: where the scheduler places two busy processes is
        # otherwise the largest source of run-to-run noise.
        self.client_cpu = CPUS[0]
        self.server_cpu = CPUS[min(1, len(CPUS) - 1)]
        os.sched_setaffinity(0, {self.client_cpu})

    def launch(self, trace: bool):
        """Start a server and bootstrap a light client from it, timed:
        process launch → chain generated and built → listening → every
        header synced over the socket and its linkage checked.

        The first call also builds the chain and the oracle here, while
        the child builds its own copy on the other core.  Returns
        ``(server, headers, seconds)``.
        """
        started = time.monotonic()
        server = Server(
            self.seed, self.blocks, self.extra, trace, self.server_cpu
        )
        try:
            if self.chain is None:
                self.chain = Chain(self.seed, self.blocks, self.extra)
                self.oracle = Oracle(self.chain)
                # The oracle's chain-sized heap is the harness's, not the
                # light client's: keep this process's full collections
                # (11 in a 16 s history_cold run, 0.7 s) from walking it.
                gc.freeze()
            server.wait_ready()
            remote = RemoteFullNode(
                (HOST, server.port), size=1, client_id="bootstrap"
            )
            try:
                genesis = self.oracle.system.chain.header_at(0)
                light = LightNode([genesis], self.chain.config)
                light.sync_headers(remote, delta=True)
            finally:
                remote.close()
            seconds = time.monotonic() - started
            trusted = self.oracle.system.headers()[: self.blocks + 1]
            if [h.serialize() for h in light.headers] != [
                h.serialize() for h in trusted
            ]:
                raise RuntimeError("served headers differ from the oracle's")
        except BaseException:
            server.quit()
            raise
        return server, light.headers, seconds

    def measure(
        self,
        workload: Workload,
        seconds: float,
        trace_path: Optional[str] = None,
        setups: int = 1,
        warmup_seconds: float = WARMUP_SECONDS,
    ) -> dict:
        """One run of one workload against a fresh server, timed for
        ``seconds``.

        Returns ``metrics`` (end to end, the time ones at the machine's
        full speed; on ``live_chain`` also the notify and append
        latencies), ``layers`` (only with a ``trace_path``: spans are
        recorded and written there) and ``detail`` (counts, sample sizes,
        failures, the time metrics as the clock read them).
        """
        probes = Probes(sorted({self.client_cpu, self.server_cpu}))
        try:
            return self._measure(
                workload, seconds, trace_path, setups, warmup_seconds, probes
            )
        finally:
            probes.stop()

    def _measure(
        self, workload, seconds, trace_path, setups, warmup_seconds, probes
    ) -> dict:
        trace = trace_path is not None
        setup_samples: List[float] = []
        for _ in range(setups - 1):
            spare, _headers, spare_seconds = self.launch(trace)
            setup_samples.append(spare_seconds)
            spare.quit()
        server, headers, setup_seconds = self.launch(trace)
        setup_samples.append(setup_seconds)
        chain, oracle = self.chain, self.oracle
        recorder = SpanRecorder() if trace else None
        count = min(workload.clients, os.cpu_count() or 1)
        clients = [
            Client(
                f"c{index}", server.port, chain, headers,
                workload.codec, recorder, workload.oracle_stride,
            )
            for index in range(count)
        ]
        try:
            streams = [
                workload.ops(chain, index, count) for index in range(count)
            ]
            # The fixed prefix fills the caches the workload relies on and
            # is the one stretch with the same requests on every run of a
            # seed, so the server's byte count over it is exact.  The
            # timed stretch after it lets the interpreter and the
            # kernel's socket buffers settle, and is discarded.
            bytes_before = server.command("stats")["net"]["bytes_out"]
            _run_threads(clients, streams, None, workload.prefix)
            prefix_bytes = server.command("stats")["net"]["bytes_out"] - bytes_before
            prefix_ops = sum(len(client.done) for client in clients)
            _run_threads(clients, streams, time.monotonic() + warmup_seconds)
            failures = [f for client in clients for f in client.failures]
            for client in clients:
                client.reset()

            before = server.command("stats")
            live = LiveResult()
            edges: "List[Tuple[float, float]]" = []
            timed_part_over = threading.Event()
            sampler = threading.Thread(
                target=_sample_cpu,
                args=(server, timed_part_over, edges),
            )
            sampler.start()
            try:
                if workload.live:
                    appends = max(1, round(seconds / LIVE_APPEND_INTERVAL))
                    live = run_live(
                        server, chain, headers, appends, clients[0], streams[0]
                    )
                else:
                    _run_threads(clients, streams, time.monotonic() + seconds)
            finally:
                timed_part_over.set()
                sampler.join()
            after = server.command("stats")
            rss = server.peak_rss_mib()

            samples = [s for client in clients for s in client.oracle_samples]
            checked, mismatched = oracle.check(samples)
            layers: Dict[str, float] = {}
            trace_detail: Dict[str, float] = {}
            if trace:
                layers, trace_detail = _layer_metrics(
                    chain, server, clients, recorder, live, oracle, before,
                    after, trace_path,
                )
            speeds = probes.stop()
        finally:
            for client in clients:
                client.close()
            server.quit()

        done = sorted(sample for client in clients for sample in client.done)
        ops = len(done)
        failures += [f for client in clients for f in client.failures]
        wrong = mismatched + live.wrong + sum(c.wrong_answers for c in clients)
        if not ops or not prefix_ops:
            raise RuntimeError(
                f"{workload.name}: no op succeeded (failures={failures[:5]})"
            )
        clock = FullSpeed(edges, done, speeds, self.client_cpu, self.server_cpu)
        metrics = {
            "setup_s": stats.median(setup_samples),
            **clock.metrics(done),
            "wire_bytes_per_op": prefix_bytes / prefix_ops,
            "server_rss_mb": rss,
        }
        if workload.live:
            notify_ms = [
                clock.wall_ms(at, ms)
                for at, ms in zip(live.notify_at, live.notify_ms)
            ]
            extend_ms = [
                clock.server_ms(append["t0"], ms)
                for append, ms in zip(live.appends, live.extend_ms)
            ]
            metrics.update(
                {
                    "notify_p50_ms": stats.percentile(notify_ms, 0.50),
                    "notify_p95_ms": stats.percentile(notify_ms, 0.95),
                    "append_p50_ms": stats.percentile(extend_ms, 0.50),
                }
            )
        attempted = sum(c.attempted for c in clients) + len(live.appends)
        failed = len(failures) + live.missing + wrong
        detail = {
            "loop": "open appends + closed reads" if workload.live else "closed",
            "clients": count,
            "seconds": seconds,
            "ops": ops,
            "prefix_ops": prefix_ops,
            "attempted": attempted,
            "failed": failed,
            "failures": sorted(set(failures)),
            "wrong_answers": wrong,
            "oracle_frames_checked": checked,
            "appends": len(live.appends),
            "notifications_missing": live.missing,
            "tip_race_retries": sum(c.tip_race_retries for c in clients),
            "as_clocked": clock.as_clocked(done),
            "verified_ms": stats.summarize([ms for _at, ms, _cpu in done]),
            "notify_ms": stats.summarize(live.notify_ms),
            "p95_supported": stats.supported(ops, 0.95),
            "setup_samples_s": setup_samples,
            **trace_detail,
        }
        return {"metrics": metrics, "layers": layers, "detail": detail}


def _sample_cpu(server: Server, stop, out) -> None:
    """Read the clock and the server's CPU clock at every slice edge of
    the timed part, and once more when it is over."""
    out.append((time.monotonic(), server.cpu_seconds()))
    while not stop.wait(SLICE_SECONDS):
        out.append((time.monotonic(), server.cpu_seconds()))
    out.append((time.monotonic(), server.cpu_seconds()))


class FullSpeed:
    """The timed part re-clocked to the machine's full speed.

    Each slice between two ``edges`` — ``(clock, server CPU clock)``
    readings a quarter second apart — has a slowdown of the client's CPU
    and one of the server's, from the speed probes.  CPU time is divided
    by its own CPU's slowdown.  Wall time (a latency, the length of a
    slice) is divided by the two blended in the proportion the run's CPU
    time fell on either side: an op in a closed loop is client work and
    server work end to end, and little else.  ``done`` is ``(finished
    at, latency ms, client CPU ms)`` per verified op, by time; an op
    belongs to the slice it finished in.

    Over 16 runs of 16 seeds in a restless hour, re-clocking took the
    inter-quartile spread of ``history_cold`` from 10–12 % to 3–6 % and of
    ``poll_recent`` from 15–19 % to 8–11 %, on every time metric; in a calm
    hour it changes nothing (README, "Full speed").
    """

    def __init__(self, edges, done, speeds: Speeds, client_cpu, server_cpu) -> None:
        self._times = [at for at, _cpu in edges]
        slices = list(zip(edges, edges[1:]))
        self.client = [
            speeds.slowdown(client_cpu, a[0], b[0]) for a, b in slices
        ]
        self.server = [
            speeds.slowdown(server_cpu, a[0], b[0]) for a, b in slices
        ]
        client_ms = sum(cpu for _at, _ms, cpu in done)
        self._server_ms = [(b[1] - a[1]) * 1000.0 for a, b in slices]
        share = client_ms / ((client_ms + sum(self._server_ms)) or 1.0)
        self.wall = [
            1.0 / (share / client + (1.0 - share) / server)
            for client, server in zip(self.client, self.server)
        ]

    def _slice(self, at: float) -> int:
        index = bisect.bisect_right(self._times, at) - 1
        return min(max(index, 0), len(self.wall) - 1)

    def wall_ms(self, at: float, ms: float) -> float:
        return ms / self.wall[self._slice(at)]

    def server_ms(self, at: float, ms: float) -> float:
        return ms / self.server[self._slice(at)]

    def metrics(self, done) -> Dict[str, float]:
        latencies = [self.wall_ms(at, ms) for at, ms, _cpu in done]
        seconds = sum(
            (end - start) / slowdown
            for start, end, slowdown in zip(self._times, self._times[1:], self.wall)
        )
        server_ms = sum(
            ms / slowdown for ms, slowdown in zip(self._server_ms, self.server)
        )
        client_ms = sum(
            cpu / self.client[self._slice(at)] for at, _ms, cpu in done
        )
        return {
            "verified_p50_ms": stats.percentile(latencies, 0.50),
            "verified_p95_ms": stats.percentile(latencies, 0.95),
            "verified_ops_per_s": len(done) / seconds,
            "server_cpu_ms_per_op": server_ms / len(done),
            "client_cpu_ms_per_op": client_ms / len(done),
        }

    def as_clocked(self, done) -> Dict[str, float]:
        """The same figures with no slowdown taken out, and the mean
        slowdown of either CPU over the timed part."""
        latencies = [ms for _at, ms, _cpu in done]
        return {
            "verified_p50_ms": stats.percentile(latencies, 0.50),
            "verified_p95_ms": stats.percentile(latencies, 0.95),
            "verified_ops_per_s": len(done) / (self._times[-1] - self._times[0]),
            "server_cpu_ms_per_op": sum(self._server_ms) / len(done),
            "client_cpu_ms_per_op": sum(cpu for _at, _ms, cpu in done) / len(done),
            "client_cpu_slowdown": sum(self.client) / len(self.client),
            "server_cpu_slowdown": sum(self.server) / len(self.server),
        }


# ---------------------------------------------------------------------------
# per-layer numbers (trace mode)


def _hit_rate(after: dict, before: dict, cache: str) -> float:
    hits = _delta(after, before, "query_server", "caches", cache, "hits")
    misses = _delta(after, before, "query_server", "caches", cache, "misses")
    return hits / (hits + misses) if hits + misses else 0.0


def _p95(samples: List[float]) -> float:
    return stats.percentile(samples, 0.95) if samples else 0.0


def _client_replay(chain: Chain, clients: List[Client], headers) -> dict:
    """Split ``client.decode_verify``: decode and verify sampled accepted
    frames again, one stage at a time; returns each stage's median."""
    config = chain.config
    samples: Dict[str, List[float]] = {}
    for client in clients:
        for op, tip, response in client.replay_samples:
            local = headers[: tip + 1]
            if op.kind == "batch":
                frame = compress_frame(response)
                stats.timed_ms(
                    samples, "transport.decompress_ms",
                    lambda: decompress_frame(frame),
                )
                batch = stats.timed_ms(
                    samples, "aggregate.decode_ms",
                    lambda: AggregatedBatchResponse.deserialize(response, config),
                ).batch
                stats.timed_ms(
                    samples, "batch.verify_ms",
                    lambda: verify_batch_result(
                        batch, local, config, list(op.addresses),
                        (batch.first_height, batch.last_height),
                    ),
                )
            else:
                result = stats.timed_ms(
                    samples, "messages.decode_response_ms",
                    lambda: QueryResponse.deserialize(response, config),
                ).result
                stats.timed_ms(
                    samples, "verifier.verify_ms",
                    lambda: verify_result(
                        result, local, config, op.addresses[0],
                        (result.first_height, result.last_height),
                    ),
                )
    return {name: stats.median(values) for name, values in samples.items()}


#: Stage medians that come back from the server's ``replay`` command and
#: from the client-side replay; 0 where the workload never enters the stage.
_SERVER_REPLAY = (
    "index.lookup_us", "prover.answer_cold_ms", "prover.answer_warm_ms",
    "prover.resolutions_per_op", "messages.encode_response_ms",
    "batch.answer_ms", "aggregate.encode_ms", "aggregate.bytes_ratio",
    "transport.compress_ms", "transport.compress_ratio",
)
_CLIENT_REPLAY = (
    "messages.decode_response_ms", "verifier.verify_ms", "batch.verify_ms",
    "aggregate.decode_ms", "transport.decompress_ms",
)


def _layer_metrics(
    chain, server, clients, recorder, live, oracle, before, after, trace_path
) -> "Tuple[Dict[str, float], Dict[str, float]]":
    """Per-layer numbers of a traced run; ``before``/``after`` are the
    server's stats documents on either side of the timed part.  A layer
    the workload never enters reads 0."""
    # Bare socket + frame + loop cost: pings are answered inline on the
    # server's event loop and never reach the queue.
    ping_ms = []
    for _ in range(200):
        started = time.perf_counter()
        clients[0].remote.ping()
        ping_ms.append((time.perf_counter() - started) * 1000.0)

    server_replay = server.command(f"replay {ORACLE_BUDGET}")
    path = pathlib.Path(trace_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("")
    recorder.write(trace_path, "loadgen")
    server.command(f"spans {trace_path}")
    with open(trace_path, encoding="utf-8") as handle:
        server_spans = [
            (s["name"], s["t0_ns"], s["t1_ns"], s["parent"], s["op"])
            for s in map(json.loads, handle)
            if s["process"] == "server"
        ]

    # Join the two processes' spans on (client, seq), for the request
    # that produced each op's verified result.
    ops = durations_by_op(recorder.spans, "client.op")
    request = durations_by_op(recorder.spans, "netclient.request")
    encode = durations_by_op(recorder.spans, "messages.encode_request")
    decode_verify = durations_by_op(recorder.spans, "client.decode_verify")
    submit = durations_by_op(server_spans, "server.submit")
    handle: Dict[Tuple[str, int], int] = {}
    for name in ("handle_query", "handle_batch_query"):
        handle.update(durations_by_op(server_spans, "full_node." + name))
    sync = durations_by_op(recorder.spans, "light_node.sync_headers")
    joined = [op for op in ops if op in submit and op in handle]
    ms = 1e-6
    # One row per op: the time each layer held it.  Client spans tile the
    # op and the server's spans nest inside the request, so a layer's
    # self time is its span minus the span it encloses.  On wallet_batch
    # the frame codec runs between request and submit (the pool and
    # NetServer both wrap it), so it shows up in the socket's row; the
    # replayed codec medians come off the reported ``net.socket_ms``.
    rows = [
        {
            "client.op": ops[op] * ms,
            "light_node.sync_headers": sync.get(op, 0) * ms,
            "messages.encode_request": encode[op] * ms,
            "net.socket": (request[op] - submit[op]) * ms,
            "server.hop": (submit[op] - handle[op]) * ms,
            "full_node.handle": handle[op] * ms,
            "client.decode_verify": decode_verify[op] * ms,
        }
        for op in joined
    ]
    if not rows:
        raise RuntimeError("no op could be joined across the two traces")
    # How much of the median op the stage medians account for.  The
    # stages tile each single op, but medians taken stage by stage need
    # not add up to the median op when the workload mixes cheap and dear
    # requests — which is what a coverage away from 1 says.
    coverage = sum(
        stats.median([row[name] for row in rows])
        for name in rows[0]
        if name != "client.op"
    ) / stats.median([row["client.op"] for row in rows])
    # The budget of a typical op: stage means over the ops whose latency
    # lies between the 45th and 55th percentile.  (Stage medians taken
    # over all ops do not add up to the median op on a mixed workload.)
    rows.sort(key=lambda row: row["client.op"])
    band = rows[len(rows) * 45 // 100 : len(rows) * 55 // 100 + 1]
    budget = {
        name: sum(row[name] for row in band) / len(band) for name in rows[0]
    }
    socket_ms = [row["net.socket"] for row in rows]
    hop_ms = [row["server.hop"] for row in rows]
    handle_ms = [row["full_node.handle"] for row in rows]
    op_ms = [duration * ms for duration in ops.values()]
    sync_ms = [sample for client in clients for sample in client.sync_ms]
    encode_us = [encode[op] * 1e-3 for op in ops]

    # The same appends again, in this process and with nobody subscribed:
    # what extend_chain costs before any fan-out.
    oracle.move_to(chain.blocks)
    append_ms = stats.median(oracle.move_to(chain.blocks + len(live.appends)))
    client_replay = _client_replay(chain, clients, oracle.system.headers())
    codec_ms = server_replay.get("transport.compress_ms", 0.0) + client_replay.get(
        "transport.decompress_ms", 0.0
    )
    pools = [client.remote.pool.stats for client in clients]
    admission = after["query_server"]["admission"]
    # Pushes share the wire with the poller's responses, whose sizes the
    # probe saw (plain frames: live_chain uses no codec).
    pushes = _delta(after, before, "net", "pushes")
    push_bytes = _delta(after, before, "net", "bytes_out") - sum(
        client.probe.bytes_in + 4 * client.probe.frames_in for client in clients
    )
    extend_ms = live.extend_ms
    layers = {
        "net.ping_rtt_ms": stats.median(ping_ms),
        "net.socket_ms": stats.median(socket_ms) - codec_ms,
        "netclient.request_ms": stats.median([request[op] * ms for op in ops]),
        "netclient.reconnects": sum(p["connects"] - 1 for p in pools),
        "netclient.request_failures": sum(p["request_failures"] for p in pools),
        "server.hop_ms": stats.median(hop_ms),
        "server.queue_wait_ms": after["query_server"]["queue_wait"]["p50_ms"],
        "server.peak_queue_depth": after["query_server"]["peak_queue_depth"],
        "admission.refused": admission["shed"]
        + admission["ratelimited"]
        + admission["queue_full"],
        "admission.state_changes": admission["transitions"],
        "full_node.handle_ms": stats.median(handle_ms),
        "cache.responses_hit_rate": _hit_rate(after, before, "responses"),
        "cache.resolutions_hit_rate": _hit_rate(after, before, "resolutions"),
        "cache.segments_hit_rate": _hit_rate(after, before, "segments"),
        "cache.evictions": sum(
            _delta(after, before, "query_server", "caches", cache, "evictions")
            for cache in ("responses", "resolutions", "segments")
        ),
        "bmt.endpoints_per_op": stats.median(
            [n for client in clients for n in client.endpoints]
        ),
        "messages.encode_request_us": stats.median(encode_us),
        "light_node.sync_headers_ms": stats.median(sync_ms),
        "workload.generate_s": server.ready["generate_s"],
        "builder.build_s": server.ready["build_s"],
        "builder.append_ms": append_ms,
        "full_node.extend_chain_ms": stats.median(extend_ms),
        "subscribe.fanout_ms": stats.median(extend_ms) - append_ms,
        "subscribe.notify_p50_ms": stats.median(live.notify_ms),
        "subscribe.notify_p95_ms": _p95(live.notify_ms),
        "subscribe.notify_after_append_ms": stats.median(live.after_append_ms),
        "subscribe.push_bytes_per_update": push_bytes / pushes if pushes else 0.0,
        "subscribe.backfills": live.watch_stats.get("backfills", 0),
        "subscribe.evictions": live.watch_stats.get("evictions", 0),
        "subscribe.updates_rejected": live.watch_stats.get("updates_rejected", 0),
        "client.tip_race_retries": sum(c.tip_race_retries for c in clients),
        "loadgen.append_late_ms_p95": _p95(live.late_ms),
        "trace.coverage": coverage,
    }
    for name in _SERVER_REPLAY:
        layers[name] = server_replay.get(name, 0.0)
    for name in _CLIENT_REPLAY:
        layers[name] = client_replay.get(name, 0.0)
    detail = {
        "traced_p50_ms": stats.median(op_ms),
        "traced_ops_joined": len(joined),
        "traced_ops": len(ops),
        "median_op_budget_ms": budget,
        "server_requests_replayed": server_replay.get("replayed", 0),
    }
    return layers, detail
