"""How fast each CPU ran while the benchmark did: one probe per CPU.

The machines this benchmark runs on are small guests of a shared host.
Timing a fixed loop on one of their CPUs shows its speed stepping
between levels up to 1.5× apart, each held for seconds to minutes and
each CPU on its own schedule — consistent with a neighbour coming and
going on the sibling hardware thread (steal time stays near zero; the
cause is unverified).  Whatever a run measures is scaled by the level it
happened to meet, and a 16-second run often meets only one.

So the harness measures the level.  A probe is a child process pinned to
one CPU at idle priority (``SCHED_IDLE``: it runs only while the CPU has
nothing else to do and is preempted the moment the benchmark wakes) that
times a fixed piece of work over and over by its own thread's CPU clock.
CPU time per round is the inverse of the CPU's speed and does not count
time spent preempted.  The lowest readings of a run are the CPU at full
speed — every run so far had some, even runs spent almost entirely at a
slow level, and they repeat to ±1 % between runs — so a reading over that
floor says by how much the CPU was slowed at that moment
(:meth:`Speeds.slowdown`).  ``loadgen`` divides every duration it reports
by the slowdown of the quarter second it fell in: the metrics are times
at the machine's full speed.

The work (:func:`_round`) is what this repository's hot paths are made
of — SHA-256 over short buffers, dictionary lookups, slicing, struct
unpacking — because how much a busy sibling thread slows code depends on
the code.  Measured over 32 runs, per quarter-second slice and per run,
client and server CPU time per op rise as this kernel's reading to a
power of 0.7–1.3, centred on 1 (an arithmetic-only loop: 1.0–2.0; pointer
chasing in a 2 MB ring: 0.4–0.7, in a 30 MB ring: 1.1–2.2; README, "Full
speed").

A probe that keeps a CPU busy also keeps the virtual CPU from halting,
so every op is faster than on an idle guest by the wake-up exits it no
longer pays.  The benchmark compares commits, and both sides get the
same treatment.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Seconds of readings averaged into one sample the probe reports.
BUCKET = 0.05
#: The share of a run's samples taken to be the CPU at full speed.
FLOOR_QUANTILE = 0.02


class Speeds:
    """The samples of every probe of a run: ``(monotonic time, CPU ms per
    round)`` by time, per CPU."""

    def __init__(self, cpus: Sequence[int], samples: "List[List[Tuple[float, float]]]"):
        self._times = {}
        self._readings = {}
        self._floor = {}
        for cpu, rows in zip(cpus, samples):
            self._times[cpu] = [at for at, _reading in rows]
            self._readings[cpu] = [reading for _at, reading in rows]
            ordered = sorted(self._readings[cpu])
            self._floor[cpu] = (
                ordered[int(len(ordered) * FLOOR_QUANTILE)] if ordered else 0.0
            )

    def slowdown(self, cpu: int, start: float, end: float) -> float:
        """Mean reading of ``cpu`` over ``[start, end)`` as a multiple of
        its full-speed reading; 1.0 for a CPU whose probe left nothing.  A stretch
        the probe never ran in (the CPU was never idle) takes the
        readings nearest to it."""
        times = self._times.get(cpu)
        if not times:
            return 1.0
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_left(times, end)
        if low == high:
            low, high = max(0, low - 1), min(len(times), high + 1)
        readings = self._readings[cpu][low:high]
        return max(1.0, sum(readings) / len(readings) / self._floor[cpu])


class Probes:
    """The probe children of one run, one per CPU given."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self._children = [
            subprocess.Popen(
                [sys.executable, __file__, str(cpu)],
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in self.cpus
        ]
        self._speeds: "Speeds | None" = None

    def stop(self) -> Speeds:
        """End every probe, wait for it, and hand back what it saw (the
        same again on a second call)."""
        if self._speeds is not None:
            return self._speeds
        samples = []
        for child in self._children:
            child.send_signal(signal.SIGTERM)
        for child in self._children:
            try:
                output, _ = child.communicate(timeout=20.0)
                samples.append(json.loads(output) if output else [])
            except (subprocess.TimeoutExpired, ValueError):
                child.kill()
                child.communicate()
                samples.append([])
        self._speeds = Speeds(self.cpus, samples)
        return self._speeds


# ---------------------------------------------------------------------------
# the probe child


def _fixture():
    leaves = [hashlib.sha256(bytes([index])).digest() for index in range(64)]
    table = {
        hashlib.sha256(index.to_bytes(4, "big")).digest()[:8]: index
        for index in range(20000)
    }
    buffer = b"".join(leaves * 2)
    return leaves, table, list(table), buffer


def _round(leaves, table, keys, buffer, turn: int) -> int:
    """One fixed piece of work: a 64-leaf hash tree, 40 lookups in a
    20 000-entry table, 64 slices of a 4 KB buffer unpacked."""
    level = leaves
    while len(level) > 1:
        level = [
            hashlib.sha256(level[index] + level[index + 1]).digest()
            for index in range(0, len(level), 2)
        ]
    start = turn * 37 % (len(keys) - 40)
    total = 0
    for key in keys[start : start + 40]:
        total += table[key]
    for offset in range(0, len(buffer), 64):
        total += struct.unpack_from(">IIQ", buffer[offset : offset + 64])[0]
    return total + level[0][0]


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    fixture = _fixture()
    parent = os.getppid()
    samples: "List[Tuple[float, float]]" = []
    turn = 0
    while not stopping and os.getppid() == parent:  # never outlive the harness
        opened = time.monotonic()
        rounds = 0
        spent = 0
        while time.monotonic() - opened < BUCKET:
            before = time.thread_time_ns()
            _round(*fixture, turn)
            spent += time.thread_time_ns() - before
            rounds += 1
            turn += 1
        samples.append((opened, spent / rounds / 1e6))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
