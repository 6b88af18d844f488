"""Smoke wiring for the quick benchmark collection.

Runs ``benchmarks/collect_results.py --quick``'s reduced E1/E10 workload
as part of the test suite.  It writes a copy of the committed
``BENCH.json``, so the regression check still compares against the
committed history and a test run leaves the working tree clean (the
``--quick`` command line writes the real file).  Correctness (verdicts, closure activity, behaviour-invariance of the
trace and metrics planes, the count-based overhead gates) is *asserted*
inside the runner; timings — against the seed baselines, against the
previous run's history entry, and the modelled metrics-plane overhead —
only *warn*, because CI machines are too noisy for hard timing gates.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import warnings

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks"
)
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import collect_results  # noqa: E402
from repro.api import SCHEDULER_FACTORIES  # noqa: E402


def test_quick_bench_smoke(tmp_path):
    assert os.path.exists(collect_results.QUICK_TARGET)
    assert collect_results.QUICK_TARGET.endswith("BENCH.json")
    target = str(tmp_path / "BENCH.json")
    shutil.copyfile(collect_results.QUICK_TARGET, target)
    data = collect_results.write_quick(path=target)
    with open(target, encoding="utf-8") as handle:
        assert json.load(handle) == data
    assert data["timings_ms"]["e1_accept"]
    assert data["timings_ms"]["e10_incremental+prune"]
    # The E14 fault smoke must have exercised every scheduler the
    # sequencer hosts (result identity under faults is asserted inside
    # the runner).
    assert set(data["timings_ms"]["e14_fault_smoke"]) == set(
        SCHEDULER_FACTORIES
    )
    # The flight-recorder smoke must have traced every scheduler and
    # stayed inside the disabled-tracer overhead budget (behaviour
    # invariance and the JSONL round-trip are asserted in the runner).
    trace = data["trace"]
    assert set(trace["events_per_run"]) == {
        "serial", "2pl", "timestamp",
        "mla-detect", "mla-prevent", "mla-nested-lock",
    }
    assert all(count > 0 for count in trace["events_per_run"].values())
    assert trace["disabled_overhead_worst_pct"] < 3.0
    # The metrics-plane smoke must have instrumented every scheduler
    # (behaviour invariance and registry agreement are asserted in the
    # runner).  Its gate is two counts, not a timing: the engine never
    # writes a registry child while it runs, and a tick opens no more
    # phase spans than there are hook sites.
    obs = data["obs"]
    assert set(obs["instrumented_work"]) == set(trace["events_per_run"])
    for counts in obs["instrumented_work"].values():
        assert counts["registry_writes_in_advance"] == 0
        assert 0 < counts["phase_spans"] <= (
            collect_results.PROFILER_HOOK_SITES * counts["ticks"]
        )
    if obs["enabled_overhead_aggregate_pct"] >= obs["budget_pct"]:
        warnings.warn(
            f"modelled metrics-plane overhead "
            f"{obs['enabled_overhead_aggregate_pct']}% is over the "
            f"{obs['budget_pct']}% budget (timing-only, not a failure)",
            stacklevel=1,
        )
    # Every run appends a history entry stamped with git SHA + date.
    assert data["history"], "BENCH.json history must never be empty"
    latest = data["history"][-1]
    assert latest["sha"]
    assert latest["date"]
    assert latest["timings_ms"] == data["timings_ms"]
    for key, factor in data["speedup_vs_seed"].items():
        if factor < 1.0:
            warnings.warn(
                f"quick benchmark {key} ran {1 / factor:.1f}x slower "
                "than the seed baseline (timing-only, not a failure)",
                stacklevel=1,
            )
    for message in data["regressions_vs_previous"]:
        warnings.warn(
            f"quick benchmark regression vs previous run: {message} "
            "(timing-only, not a failure)",
            stacklevel=1,
        )
