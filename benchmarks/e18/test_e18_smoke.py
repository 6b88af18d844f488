"""Smoke test of E18 itself: ``pytest benchmarks/e18/test_e18_smoke.py``.

Runs the suite in ``--quick`` mode (every workload at 1/10 size, one
repeat, all correctness checks on, timing bounds off) and holds the
benchmark to its own contract.  Not part of tier 1 (it takes about a
minute and times nothing).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
TIMED_UNITS = {"us", "ms", "%"}
DURABLE = {"durable-2pl", "recover-2pl"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, text=True,
        capture_output=True, timeout=900,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e18") / "result.json"
    done = run("--quick", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(out, encoding="utf-8") as handle:
        return done.stdout, json.load(handle)


def test_every_declared_metric_is_printed_with_its_unit(quick):
    stdout, record = quick
    sections = re.split(r"^(?:\[repeat \d+/\d+\] )?e18 (\S+) \((.+)\)$",
                        stdout, flags=re.M)
    seen = {}
    for name, mode, body in zip(sections[1::3], sections[2::3], sections[3::3]):
        seen[(name, mode.startswith("traced"))] = body
    for workload in SPEC["workloads"]:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            body = seen[(workload["name"], traced)]
            for metric in SPEC[key]:
                pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                           rf"{re.escape(metric['unit'])}(\s|$)")
                assert re.search(pattern, body, flags=re.M), (
                    workload["name"], metric["name"])
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_no_operation_fails(quick):
    _, record = quick
    for name, entry in record["workloads"].items():
        assert entry["failures"] == [], name
        assert entry["failed_share"] == 0
        assert entry["attempted"] > 0


def test_layers_a_workload_bypasses_report_zero(quick):
    _, record = quick
    layers = {name: entry["per_layer"]
              for name, entry in record["workloads"].items()}
    assert layers["soak-2pl"]["engine.closure.calls_per_txn"] == 0
    assert layers["soak-mla-hot"]["engine.closure.calls_per_txn"] > 0
    for name, metrics in layers.items():
        for key, value in metrics.items():
            if key.startswith("durability.") and name not in DURABLE:
                assert value == 0, (name, key)
    assert layers["durable-2pl"]["durability.wal_append.calls_per_txn"] > 0
    assert layers["recover-2pl"]["durability.recover.us_per_txn"] > 0
    assert layers["audit-batch"]["core.check_correctability_ms"] > 0


def test_traced_counts_repeat_exactly(quick):
    _, record = quick
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    again = run("--workload", "soak-mla-hot", "--seed", "7", "--seconds", "1",
                "--trace", "1")
    assert again.returncode == 0, again.stderr[-4000:]
    line = json.loads(again.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    first = record["workloads"]["soak-mla-hot"]["per_layer"]
    for key, unit in units.items():
        if unit not in TIMED_UNITS:
            assert line["metrics"][key]["value"] == first.get(key, 0.0), key


def test_result_line_has_exactly_the_contract_keys():
    done = run("--workload", "soak-2pl", "--seed", "3", "--seconds", "1",
               "--trace", "0")
    assert done.returncode == 0, done.stderr[-4000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0
