"""One end-to-end benchmark for the verified-query stack.

Two ways to call it, from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one run.  Prints every metric by name with its unit
    and, as the last line of standard output, one JSON object with the
    keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1`` (the form ``BENCHMARK.json`` names as its command).

``python3 benchmarks/e2e/run.py [--seed N] [--trace] [--repeat K] [--smoke]``
    All four workloads against one chain, each measured exactly as the
    first form measures it.  Writes one result document per set under
    ``benchmarks/e2e/out/`` and appends a row to ``history.jsonl``.
    With an even ``--repeat K`` the odd-numbered sets are side A and the
    even-numbered ones side B of ``compare.py``: the same commit on both
    sides, so no row may read ``regressed``.  Sets 1 and 2 run seed N,
    sets 3 and 4 seed N+1, and so on, which makes each side's spread the
    spread across seeds that the benchmark's contract is checked by.

Names, units and regression bounds of the metrics every workload
reports live in ``BENCHMARK.json`` at the repository root; the three
bounded metrics only ``live_chain`` reports are in ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: run from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
from loadgen import (  # noqa: E402
    LIVE_APPEND_INTERVAL,
    WARMUP_SECONDS,
    Harness,
)
from workloads import FULL_BLOCKS, SMOKE_BLOCKS, WORKLOADS  # noqa: E402

#: Shares of ``--seconds`` a ``--trace 1`` run spends on its untraced
#: reference part and on its traced part; the rest goes to the replays.
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.5
#: Server launches timed per run; ``setup_s`` is their median.
SETUPS = 3


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, blocks: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "network": "loopback",
        "seed": seed,
        "chain_blocks": blocks,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def with_units(values: dict, specs: list) -> dict:
    """``{name: {"value", "unit"}}`` for the metrics of ``specs`` that
    ``values`` has."""
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
        if spec["name"] in values
    }


def run_workload(
    harness: Harness, spec: dict, name: str, seconds: float, trace: bool,
    smoke: bool = False,
) -> dict:
    """One run of one workload, in the shape of the contract's result
    line plus ``detail``: untraced for the end-to-end metrics (and the
    ones only ``live_chain`` has), traced for the per-layer ones."""
    workload = WORKLOADS[name]
    warmup = 0.1 if smoke else WARMUP_SECONDS
    if not trace:
        result = harness.measure(
            workload, seconds, setups=1 if smoke else SETUPS,
            warmup_seconds=warmup,
        )
        metrics = with_units(
            result["metrics"], spec["end_to_end"] + compare.LIVE_ONLY
        )
    else:
        reference = harness.measure(
            workload, seconds * UNTRACED_SHARE, warmup_seconds=warmup
        )
        OUT.mkdir(exist_ok=True)
        result = harness.measure(
            workload,
            seconds * TRACED_SHARE,
            trace_path=str(OUT / f"trace-{name}.jsonl"),
            warmup_seconds=warmup,
        )
        untraced_p50 = reference["detail"]["as_clocked"]["verified_p50_ms"]
        result["layers"]["trace.overhead_pct"] = (
            (result["detail"]["traced_p50_ms"] - untraced_p50) / untraced_p50 * 100.0
        )
        for key in ("attempted", "failed", "wrong_answers"):
            result["detail"][key] += reference["detail"][key]
        metrics = with_units(result["layers"], spec["per_layer"])
    detail = result["detail"]
    for metric, entry in metrics.items():
        print(f"{name:13s} {metric:34s} {entry['value']:14.4f} {entry['unit']}")
    print(
        f"{name:13s} ops={detail['ops']} attempted={detail['attempted']} "
        f"failed={detail['failed']} wrong_answers={detail['wrong_answers']} "
        f"oracle_frames_checked={detail['oracle_frames_checked']} "
        f"p95_supported={detail['p95_supported']} "
        f"client_cpu_slowdown={detail['as_clocked']['client_cpu_slowdown']:.3f} "
        f"server_cpu_slowdown={detail['as_clocked']['server_cpu_slowdown']:.3f}"
    )
    return {
        "correct": detail["wrong_answers"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def full_set(args, spec: dict, seed: int, label: str) -> dict:
    """All four workloads against one chain; returns the result document."""
    smoke = args.smoke
    seconds = 1.5 if smoke else (args.seconds or spec["run_seconds"])
    blocks = SMOKE_BLOCKS if smoke else FULL_BLOCKS
    harness = Harness(seed, blocks, max(20, round(seconds / LIVE_APPEND_INTERVAL)))
    document = {
        "environment": environment(seed, blocks),
        "smoke": smoke,
        "workloads": {},
        "layers": {},
    }
    for name, workload in WORKLOADS.items():
        document["workloads"][name] = dict(
            run_workload(harness, spec, name, seconds, False, smoke),
            why=workload.why,
        )
        if args.trace or smoke:
            document["layers"][name] = run_workload(
                harness, spec, name, seconds, True, smoke
            )
    runs = list(document["workloads"].values()) + list(document["layers"].values())
    document["wrong_answers"] = sum(run["detail"]["wrong_answers"] for run in runs)
    document["claim"] = None
    print(f"wrong_answers={document['wrong_answers']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{label}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if not smoke:
        row = {
            "environment": document["environment"],
            "metrics": {
                name: {
                    metric: entry["value"] for metric, entry in run["metrics"].items()
                }
                for name, run in document["workloads"].items()
            },
            "ops": {
                name: run["detail"]["ops"]
                for name, run in document["workloads"].items()
            },
            "wrong_answers": document["wrong_answers"],
        }
        with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="timed part of a run (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0,
        help="also (1) or only (--workload) report the per-layer metrics",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="full sets to run; an even number is compared, odd sets "
        "against even ones, each pair of sets on the next seed",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_BLOCKS}-block chain, seconds-long runs, all workloads, traced",
    )
    args = parser.parse_args()
    spec = contract()
    if args.workload:
        seconds = args.seconds or spec["run_seconds"]
        harness = Harness(
            args.seed, FULL_BLOCKS, round(seconds / LIVE_APPEND_INTERVAL)
        )
        result = run_workload(
            harness, spec, args.workload, seconds, bool(args.trace)
        )
        listed = spec["per_layer" if args.trace else "end_to_end"]
        line = {key: result[key] for key in ("correct", "attempted", "failed")}
        line["metrics"] = {
            entry["name"]: result["metrics"][entry["name"]] for entry in listed
        }
        print(json.dumps(line))
        return 0 if result["correct"] else 1
    documents = [
        full_set(
            args, spec, args.seed + index // 2,
            "smoke" if args.smoke else f"result-{index + 1:02d}",
        )
        for index in range(args.repeat)
    ]
    status = 1 if any(doc["wrong_answers"] for doc in documents) else 0
    if len(documents) >= 2 and len(documents) % 2 == 0:
        if compare.report(documents[0::2], documents[1::2], spec):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
