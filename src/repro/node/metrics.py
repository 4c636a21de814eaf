"""Prometheus-style text metrics for a serving node (PROTOCOL.md §11.5).

Operating the admission-controlled server (DESIGN.md §11) without
seeing its state means flying blind into a shed storm, so this module
renders every counter the serving stack already tracks — queue depth
and latency percentiles, shed/ratelimit/watermark counters from
:class:`~repro.node.server.QueryServer`'s admission control, cache
hit rates, outbox-eviction accounting from the subscription registry,
frame and byte counters from :class:`~repro.node.net.NetServer` — in
the Prometheus text exposition format (version 0.0.4), served by a tiny
stdlib HTTP listener (`repro serve --metrics-port`).

The exporter is strictly read-only and best-effort: it snapshots the
same ``stats()`` dictionaries the test suite asserts on, never takes a
lock the serving path contends on beyond those snapshots, and a scrape
can never make the server refuse, shed, or answer differently.

:func:`parse_metrics` is the inverse the tests read a scrape with —
it parses one back into ``{"name{labels}": value}``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

_PREFIX = "lvq"

#: Admission states in escalation order → numeric gauge value.
_STATE_VALUES = {"normal": 0, "shed_batch": 1, "shed_low": 2, "shed_all": 3}


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen: "set[str]" = set()

    def add(
        self,
        name: str,
        value: object,
        labels: "Optional[Dict[str, str]]" = None,
        *,
        kind: str = "gauge",
        help_text: str = "",
    ) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        metric = f"{_PREFIX}_{name}"
        if metric not in self._seen:
            self._seen.add(metric)
            if help_text:
                self._lines.append(f"# HELP {metric} {help_text}")
            self._lines.append(f"# TYPE {metric} {kind}")
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(val))}"'
                for key, val in sorted(labels.items())
            )
            self._lines.append(f"{metric}{{{rendered}}} {value}")
        else:
            self._lines.append(f"{metric} {value}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _render_latency(lines: _Lines, stage: str, summary: "dict") -> None:
    for quantile in ("p50_ms", "p99_ms", "mean_ms", "max_ms"):
        lines.add(
            "latency_ms",
            summary.get(quantile),
            {"stage": stage, "quantile": quantile[:-3]},
            help_text="Request latency summary in milliseconds.",
        )
    lines.add(
        "latency_samples",
        summary.get("count"),
        {"stage": stage},
        help_text="Samples in the latency window.",
    )


def render_metrics(
    server=None,
    net=None,
    subscriptions=None,
) -> str:
    """Render one scrape for any subset of the serving stack.

    ``server`` is a :class:`~repro.node.server.QueryServer`, ``net`` a
    :class:`~repro.node.net.NetServer`, ``subscriptions`` a
    :class:`~repro.node.subscribe.SubscriptionRegistry`.
    """
    lines = _Lines()
    if server is not None:
        stats = server.stats()
        lines.add("workers", stats["workers"],
                  help_text="Worker threads in the query pool.")
        lines.add("queue_depth", stats["queue_depth"],
                  help_text="Requests admitted but not yet running.")
        lines.add("queue_depth_peak", stats["peak_queue_depth"],
                  help_text="Peak queue depth since start.")
        lines.add("queue_bound", stats["max_pending"],
                  help_text="Hard bound on queued requests.")
        lines.add("in_flight", stats["in_flight"],
                  help_text="Requests currently executing.")
        for counter in ("submitted", "rejected", "completed", "failed",
                        "cancelled", "reorgs"):
            lines.add(f"requests_{counter}_total", stats[counter],
                      kind="counter",
                      help_text=f"Requests {counter} since start.")
        lines.add("requests_inline_hits_total", stats["inline_hits"],
                  kind="counter",
                  help_text="Completed requests answered from the response "
                            "cache without queueing.")
        for stage, key in (("total", "latency"), ("wait", "queue_wait"),
                           ("service", "service")):
            _render_latency(lines, stage, stats[key])

        admission = stats["admission"]
        state = admission["state"]
        lines.add("admission_state", _STATE_VALUES.get(state, -1),
                  help_text="Shed state: 0 normal, 1 shed_batch, "
                            "2 shed_low, 3 shed_all.")
        lines.add("admission_state_info", 1, {"state": state},
                  help_text="Current shed state as a label.")
        lines.add("admission_transitions_total", admission["transitions"],
                  kind="counter",
                  help_text="Watermark state transitions since start.")
        lines.add("admitted_total", admission["admitted"], kind="counter",
                  help_text="Requests past admission since start.")
        lines.add("shed_total", admission["shed"], kind="counter",
                  help_text="Requests refused by watermark shedding.")
        for shed_state, count in admission["shed_by_state"].items():
            lines.add("shed_by_state_total", count, {"state": shed_state},
                      kind="counter",
                      help_text="Shed refusals per watermark state.")
        lines.add("ratelimited_total", admission["ratelimited"],
                  kind="counter",
                  help_text="Requests refused by per-client rate limits.")
        lines.add("queue_full_total", admission["queue_full"],
                  kind="counter",
                  help_text="Requests refused at the hard queue bound.")
        for class_name, counters in admission["classes"].items():
            for counter, value in counters.items():
                lines.add(f"class_{counter}", value,
                          {"class": class_name},
                          kind="gauge" if counter == "queued" else "counter",
                          help_text=f"Per-priority-class {counter}.")
        rate = admission.get("rate_limit")
        if rate:
            lines.add("ratelimit_clients", rate["clients"],
                      help_text="Client identities with live buckets.")
            lines.add("ratelimit_rejected_total", rate["rejected"],
                      kind="counter",
                      help_text="Token-bucket refusals since start.")
            lines.add("ratelimit_evicted_clients_total",
                      rate["evicted_clients"], kind="counter",
                      help_text="Idle identities evicted from the table.")

        for cache_name, cache in stats["caches"].items():
            if not isinstance(cache, dict):
                continue
            for counter, value in cache.items():
                lines.add("cache_counter", value,
                          {"cache": cache_name, "counter": counter},
                          kind="counter",
                          help_text="Raw cache counters.")
            hits = cache.get("hits")
            misses = cache.get("misses")
            if isinstance(hits, int) and isinstance(misses, int) \
                    and hits + misses > 0:
                lines.add("cache_hit_rate", hits / (hits + misses),
                          {"cache": cache_name},
                          help_text="hits / (hits + misses).")
    if net is not None:
        for counter, value in net.stats.as_dict().items():
            lines.add(f"net_{counter}_total", value, kind="counter",
                      help_text=f"Transport counter: {counter}.")
        lines.add("net_max_connections", net.max_connections,
                  help_text="Concurrent-connection gate.")
    if subscriptions is not None:
        stats = subscriptions.stats.as_dict()
        for counter, value in stats.items():
            kind = "gauge" if counter == "active" else "counter"
            lines.add(f"subscriptions_{counter}", value, kind=kind,
                      help_text=f"Subscription registry counter: {counter}.")
    return lines.text()


def parse_metrics(text: str) -> "Dict[str, float]":
    """Parse an exposition scrape into ``{"name{labels}": value}``.

    The inverse of :func:`render_metrics` for the tests: comments are
    skipped, the label block (if any) is kept verbatim in the key, and
    values parse as floats.
    """
    parsed: "Dict[str, float]" = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"unparseable metrics line: {line!r}")
        parsed[key] = float(value)
    return parsed


class MetricsServer:
    """`/metrics` over stdlib HTTP on a daemon thread.

    Bound to loopback by default; ``port=0`` picks a free port
    (reported by :attr:`address` after :meth:`start`).  Any GET path
    answers the same scrape — there is nothing else to route.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        server=None,
        net=None,
        subscriptions=None,
    ) -> None:
        self._sources = {
            "server": server,
            "net": net,
            "subscriptions": subscriptions,
        }
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.scrapes = 0

    def render(self) -> str:
        self.scrapes += 1
        return render_metrics(**self._sources)

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    def start(self) -> "MetricsServer":
        metrics = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                try:
                    body = metrics.render().encode("utf-8")
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(str(exc).encode("utf-8", "replace"))
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes are periodic; keep stderr quiet

        self._httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        self._httpd.daemon_threads = True
        self._host, self._port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["MetricsServer", "parse_metrics", "render_metrics"]
