"""Unit tests of ``compare.py``'s verdicts.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e`` from the
repository root.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import compare  # noqa: E402

LOWER = {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}


def test_within_the_bound_is_ok_in_either_direction():
    assert compare.verdict(LOWER, [10.0, 10.2, 10.1], [10.9, 11.0, 10.8]) == "ok"
    assert compare.verdict(HIGHER, [100.0, 101.0, 99.0], [92.0, 93.0, 91.0]) == "ok"
    assert compare.verdict(LOWER, [10.0], [5.0]) == "ok"


def test_beyond_the_bound_with_steady_runs_is_a_regression():
    assert compare.verdict(LOWER, [10.0, 10.2, 10.1], [12.0, 12.1, 11.9]) == "regressed"
    assert compare.verdict(HIGHER, [100.0, 101.0, 99.0], [80.0, 81.0, 79.0]) == "regressed"


def test_beyond_the_bound_with_noisy_or_single_runs_is_unresolved():
    assert compare.verdict(LOWER, [10.0, 14.0, 8.0], [12.0, 12.1, 11.9]) == "unresolved"
    assert compare.verdict(LOWER, [10.0], [12.0]) == "unresolved"


def _document(latency, failed=0):
    run = {
        "attempted": 1000,
        "failed": failed,
        "metrics": {"latency_ms": {"value": latency, "unit": "ms"}},
        "detail": {"p95_supported": True},
    }
    return {"workloads": {"w": run}}


def test_rows_judge_medians_per_side_and_the_failed_share():
    contract = {"end_to_end": [LOWER]}
    side_a = [_document(value) for value in (10.0, 10.1, 10.2)]
    side_b = [_document(value, failed=3) for value in (12.0, 12.1, 12.2)]
    outcomes = {
        spec["name"]: outcome
        for _workload, spec, _a, _b, outcome in compare.rows(side_a, side_b, contract)
    }
    assert outcomes == {"latency_ms": "regressed", "failed_ops_share": "regressed"}
    assert compare.report(side_a, side_a, contract) == 0
