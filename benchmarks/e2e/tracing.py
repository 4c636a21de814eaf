"""Spans recorded from outside the program, at its duck-typed seams.

Nothing under ``src/`` knows about tracing.  A span is
``(name, t0_ns, t1_ns, parent, op)``: ``parent`` names the span that
caused it and ``op`` is ``(client_id, seq)`` — the ``seq``-th request
that client put on its connection — so the two processes' spans join
without any shared state.  Timestamps are ``time.monotonic_ns()``,
CLOCK_MONOTONIC on Linux, which both processes read from the same clock.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, int, int, str, Optional[Tuple[str, int]]]


class SpanRecorder:
    """An append-only in-memory span list (``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        t0_ns: int,
        t1_ns: int,
        parent: str,
        op: "Optional[Tuple[str, int]]",
    ) -> None:
        self.spans.append((name, t0_ns, t1_ns, parent, op))

    def write(self, path: str, process: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for name, t0_ns, t1_ns, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "t0_ns": t0_ns,
                            "t1_ns": t1_ns,
                            "parent": parent,
                            "op": list(op) if op else None,
                            "process": process,
                        }
                    )
                    + "\n"
                )


def durations_by_op(
    spans: Iterable[Span], name: str
) -> "Dict[Tuple[str, int], int]":
    """``op -> duration_ns`` of every span called ``name``."""
    return {
        tuple(op): t1_ns - t0_ns
        for span_name, t0_ns, t1_ns, _parent, op in spans
        if span_name == name and op is not None
    }


class SpanTarget:
    """Stands where ``NetServer`` expects a ``QueryServer``.

    ``submit`` is the seam: the span opens when the event loop hands a
    frame to the queue and closes when the Future resolves on the worker
    thread — admission, fair scheduler, worker wake-up, handler and
    Future hop included.  Request payloads are kept for the stage replay.
    """

    def __init__(
        self,
        query_server,
        recorder: SpanRecorder,
        in_flight: "Dict[int, Tuple[str, int]]",
    ) -> None:
        self.query_server = query_server
        self.node = query_server.node  # NetServer reads the tip through it
        self.recorder = recorder
        self.payloads: List[bytes] = []
        #: id(payload) -> op, shared with the SpanNode so it can name the
        #: op it serves: the queue hands the handler the very bytes
        #: object submit() got.
        self.in_flight = in_flight
        self._seq: Dict[str, int] = {}
        self._lock = threading.Lock()

    def submit(self, payload: bytes, client: Optional[str] = None):
        t0_ns = time.monotonic_ns()
        name = client or ""
        with self._lock:
            seq = self._seq.get(name, 0)
            self._seq[name] = seq + 1
        op = (name, seq)
        self.in_flight[id(payload)] = op
        self.payloads.append(payload)
        future = self.query_server.submit(payload, client)
        future.add_done_callback(
            lambda _future: self.recorder.add(
                "server.submit",
                t0_ns,
                time.monotonic_ns(),
                "netclient.request",
                op,
            )
        )
        return future


class SpanNode:
    """Stands where ``QueryServer`` expects a ``FullNode``.

    Only the three RPC handlers are spans; everything else (stats,
    caches, reorg passthroughs) is forwarded untouched.
    """

    def __init__(
        self,
        node,
        recorder: SpanRecorder,
        in_flight: "Dict[int, Tuple[str, int]]",
    ) -> None:
        self._node = node
        self._recorder = recorder
        self._in_flight = in_flight

    def __getattr__(self, name: str):
        return getattr(self._node, name)

    def _handle(self, handler: str, payload: bytes) -> bytes:
        t0_ns = time.monotonic_ns()
        try:
            return getattr(self._node, handler)(payload)
        finally:
            self._recorder.add(
                "full_node." + handler,
                t0_ns,
                time.monotonic_ns(),
                "server.submit",
                self._in_flight.pop(id(payload), None),
            )

    def handle_query(self, payload: bytes) -> bytes:
        return self._handle("handle_query", payload)

    def handle_batch_query(self, payload: bytes) -> bytes:
        return self._handle("handle_batch_query", payload)

    def handle_headers(self, payload: bytes) -> bytes:
        return self._handle("handle_headers", payload)
