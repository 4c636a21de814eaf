"""Compare result documents of ``run.py``, side A against side B.

``python3 benchmarks/e2e/compare.py A1.json B1.json [A2.json B2.json ...]``
takes the documents in the order the runs were made, sides alternating
(``run.py --repeat N`` writes them that way), and prints one row per
(end-to-end metric, workload): each side's median over its runs, A's
run-to-run spread (distance between its quartiles as a share of its
median), the relative change of the median from A to B, and a verdict
against the regression bound:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is, and A's own runs agree to within the bound
``unresolved``  it is, but A's own spread is wider than the bound (or
                unknown: one run a side), so the difference cannot be
                told from noise; or a percentile had too few samples.
                Every run of B reading better than every run of A is
                ``ok`` whatever the spread.

The bounds of the metrics every workload reports are in
``BENCHMARK.json``.  The constants below add what that file cannot say:
bounded metrics only ``live_chain`` reports, the bound on
``wire_bytes_per_op`` between runs of one seed, where it is exact, and
the absolute bound on the rise of ``failed`` ÷ ``attempted``.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import pathlib
import sys

import stats

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Bounded end-to-end metrics that only ``live_chain`` reports.  (Every
#: metric ``BENCHMARK.json`` lists must be reported by every workload.)
LIVE_ONLY = [
    {"name": "notify_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "notify_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "append_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]
#: Both sides run the same seeds, and bytes are counted over a fixed
#: request prefix, so any difference at all is a change in proof size.
SAME_SEED_BYTES_BOUND = 0.001
#: Absolute rise of failed ÷ attempted that counts as a regression.
FAILED_SHARE_BOUND = 0.001


def worsening(better: str, a: float, b: float) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is worse."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(spec: dict, a: "list[float]", b: "list[float]") -> str:
    """Judge one (metric, workload) pairing from each side's runs."""
    worse = worsening(spec["better"], stats.median(a), stats.median(b))
    if worse <= spec["bound"]:
        return "ok"
    if len(a) >= 2 and stats.relative_spread(a) <= spec["bound"]:
        return "regressed"
    sign = 1 if spec["better"] == "lower" else -1
    if max(sign * value for value in b) < min(sign * value for value in a):
        return "ok"
    return "unresolved"


def rows(side_a: "list[dict]", side_b: "list[dict]", contract: dict):
    """``(workload, spec, values_a, values_b, verdict)`` per pairing."""
    for workload in side_a[0]["workloads"]:
        runs_a = [doc["workloads"][workload] for doc in side_a]
        runs_b = [doc["workloads"][workload] for doc in side_b]
        for spec in contract["end_to_end"] + LIVE_ONLY:
            name = spec["name"]
            if name == "wire_bytes_per_op":
                spec = dict(spec, bound=SAME_SEED_BYTES_BOUND)
            a, b = (
                [
                    run["metrics"][name]["value"]
                    for run in runs
                    if name in run["metrics"]
                ]
                for runs in (runs_a, runs_b)
            )
            if not a and not b:
                continue  # a metric this workload does not report
            if len(a) != len(runs_a) or len(b) != len(runs_b):
                yield workload, spec, a, b, "unresolved"
            elif "p95" in name and not all(
                run["detail"]["p95_supported"] for run in runs_a + runs_b
            ):
                yield workload, spec, a, b, "unresolved"
            else:
                yield workload, spec, a, b, verdict(spec, a, b)
        share_a, share_b = (
            sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs)
            for runs in (runs_a, runs_b)
        )
        spec = {
            "name": "failed_ops_share",
            "unit": "ratio",
            "bound": FAILED_SHARE_BOUND,
        }
        failed = "regressed" if share_b - share_a > FAILED_SHARE_BOUND else "ok"
        yield workload, spec, [share_a], [share_b], failed


def report(side_a: "list[dict]", side_b: "list[dict]", contract: dict) -> int:
    """Print the comparison; returns the number of regressed rows."""
    regressed = 0
    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)")
    print(
        f"{'workload':13s} {'metric':22s} {'median A':>12s} {'spread A':>8s} "
        f"{'median B':>12s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for workload, spec, a, b, outcome in rows(side_a, side_b, contract):
        regressed += outcome == "regressed"
        median_a = stats.median(a) if a else None
        median_b = stats.median(b) if b else None
        shown_a = f"{median_a:12.4f}" if a else f"{'-':>12s}"
        shown_b = f"{median_b:12.4f}" if b else f"{'-':>12s}"
        spread = f"{stats.relative_spread(a):8.1%}" if len(a) >= 2 else f"{'-':>8s}"
        change = (
            f"{(median_b - median_a) / median_a:+8.1%}"
            if median_a and b
            else f"{'-':>8s}"
        )
        print(
            f"{workload:13s} {spec['name']:22s} {shown_a} {spread} {shown_b} "
            f"{change} {spec['bound']:6.1%}  {outcome}  [{spec['unit']}]"
        )
    print(f"regressed rows: {regressed}")
    return regressed


def main() -> int:
    paths = sys.argv[1:]
    if len(paths) < 2 or len(paths) % 2:
        sys.exit(__doc__)
    documents = [json.loads(pathlib.Path(path).read_text()) for path in paths]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if report(documents[0::2], documents[1::2], contract) else 0


if __name__ == "__main__":
    sys.exit(main())
