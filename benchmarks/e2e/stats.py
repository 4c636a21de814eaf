"""The one summary implementation of the end-to-end benchmark.

Everything the harness reports as a percentile, a median or a spread
goes through here, so two numbers with the same name were computed the
same way.  Percentiles are nearest-rank (the value at rank
``ceil(q * n)`` of the sorted sample): a reported percentile is always a
latency some operation really had.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Optional, Sequence

#: A percentile is only trustworthy with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_QUANTILES = (0.90, 0.95, 0.99, 0.999)


def percentile(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an unsorted, non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile {quantile} outside (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie strictly beyond the percentile."""
    return count - max(1, math.ceil(quantile * count)) if count else 0


def supported(count: int, quantile: float) -> bool:
    """Whether a sample of ``count`` has enough tail for ``quantile``."""
    return samples_beyond(count, quantile) >= MIN_SAMPLES_BEYOND


def highest_supported_quantile(count: int) -> Optional[float]:
    """The highest tail quantile with :data:`MIN_SAMPLES_BEYOND` samples
    beyond it, or ``None`` when even the lowest candidate has too few."""
    best = None
    for quantile in TAIL_QUANTILES:
        if supported(count, quantile):
            best = quantile
    return best


def quantile_label(quantile: float) -> str:
    """``0.95 -> 'p95'``, ``0.999 -> 'p99.9'``."""
    return "p" + f"{quantile * 100:.1f}".rstrip("0").rstrip(".")


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Count, median, quartiles and the highest supported tail percentile."""
    count = len(samples)
    if count == 0:
        return {"count": 0}
    summary: Dict[str, object] = {
        "count": count,
        "p50": percentile(samples, 0.50),
        "q1": percentile(samples, 0.25),
        "q3": percentile(samples, 0.75),
        "max": max(samples),
    }
    tail = highest_supported_quantile(count)
    if tail is not None:
        summary["tail"] = quantile_label(tail)
        summary["tail_value"] = percentile(samples, tail)
    return summary


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median; 0.0 for an empty sample (a layer that the
    workload never entered took no time)."""
    return percentile(samples, 0.50) if samples else 0.0


def timed_ms(samples: "Dict[str, list]", name: str, call):
    """Run ``call()``, file its wall time in ms under ``samples[name]``
    and hand back its result — one stage of a stage-by-stage replay."""
    started = time.perf_counter()
    value = call()
    samples.setdefault(name, []).append((time.perf_counter() - started) * 1000.0)
    return value


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark contract checks over ten seeds."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else math.inf
