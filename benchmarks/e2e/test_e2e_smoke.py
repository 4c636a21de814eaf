"""Runs the whole harness once at smoke scale and checks its vocabulary.

``run.py --smoke`` drives a 64-block chain through all four workloads,
traced, in well under a minute.  The test asserts that the workload and
metric names in its result document are exactly the ones
``BENCHMARK.json`` declares — the file later changes are judged by — and
that every accepted answer matched the oracle.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e`` from the
repository root.
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_smoke_run_matches_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads((HERE / "out" / "smoke.json").read_text())

    workloads = [entry["name"] for entry in contract["workloads"]]
    end_to_end = [entry["name"] for entry in contract["end_to_end"]]
    per_layer = [entry["name"] for entry in contract["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(workloads + end_to_end + per_layer)) == len(
        workloads + end_to_end + per_layer
    )
    assert "setup_s" in end_to_end

    live_only = [spec["name"] for spec in compare.LIVE_ONLY]
    units = {
        spec["name"]: spec["unit"]
        for spec in contract["end_to_end"] + compare.LIVE_ONLY
    }
    assert list(document["workloads"]) == workloads
    assert list(document["layers"]) == workloads
    for name, run in document["workloads"].items():
        expected = end_to_end + (live_only if name == "live_chain" else [])
        assert list(run["metrics"]) == expected, name
        assert list(document["layers"][name]["metrics"]) == per_layer, name
        for metric, value in run["metrics"].items():
            assert value["unit"] == units[metric]
            assert value["value"] > 0, (name, metric)
        assert run["correct"] and run["failed"] == 0, (name, run["detail"])
        assert run["attempted"] >= run["detail"]["ops"] > 0, name
        assert run["detail"]["oracle_frames_checked"] > 0, name
    assert document["wrong_answers"] == 0
    assert document["claim"] is None
    assert document["environment"]["network"] == "loopback"

    for name in workloads:
        spans = (HERE / "out" / f"trace-{name}.jsonl").read_text().splitlines()
        first = json.loads(spans[0])
        assert set(first) == {"name", "t0_ns", "t1_ns", "parent", "op", "process"}
        assert {json.loads(line)["process"] for line in spans} == {
            "loadgen", "server",
        }
