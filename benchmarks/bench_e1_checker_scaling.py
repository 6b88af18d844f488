"""E1: Theorem 2 checker scaling.

Claim tested: correctability (acyclicity of the coherent closure) is
decidable fast enough to sit inside a concurrency control, on both the
accept path (the closure saturates fully) and the reject path (a cycle
is found, usually early).

Workload: ``n`` abstract steps over ``n // 5`` transactions with a
3-level nest and random level-2 breakpoints.

* *accept instances*: dependency pairs from a random serial transaction
  order — always correctable, so the checker performs the complete
  fixpoint;
* *reject instances*: dependency pairs from a uniform random
  interleaving — essentially always uncorrectable at this scale, so the
  checker exercises early cycle detection.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from _harness import record_table
from repro.core import (
    BreakpointDescription,
    InterleavingSpec,
    KNest,
    check_correctability,
)
from repro.workloads import random_dependency_pairs

SIZES = [100, 400]          # timed-fixture sizes (kept light)
TABLE_SIZES = [100, 400, 1600, 6400]

#: Live quick-run history; the *only* remaining role of BENCH_PR2.json
#: is as collect_results' frozen seed-baseline source.
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH.json")


def e1_baselines() -> tuple[dict[str, float], dict[str, float]]:
    """(seed, previous-run) E1 accept timings in ms keyed by size, read
    from ``BENCH.json`` — its recorded seed baselines and the most recent
    quick-run history entry.  Empty dicts when the artefact is absent."""
    try:
        with open(BENCH_JSON, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}, {}
    seed = data.get("seed_baselines_ms", {}).get("e1_accept", {})
    previous: dict[str, float] = {}
    history = [e for e in data.get("history", []) if isinstance(e, dict)]
    if history:
        previous = history[-1].get("timings_ms", {}).get("e1_accept", {})
    return dict(seed), dict(previous)


def build_spec(step_orders, seed: int):
    rng = random.Random(seed)
    paths = {t: (f"g{rng.randrange(4)}",) for t in step_orders}
    nest = KNest.from_paths(paths)
    descriptions = {
        t: BreakpointDescription.from_cut_levels(
            steps,
            k=3,
            cut_levels={
                gap: 2
                for gap in range(len(steps) - 1)
                if rng.random() < 0.5
            },
        )
        for t, steps in step_orders.items()
    }
    return InterleavingSpec(nest, descriptions)


def accept_instance(n_steps: int, seed: int = 0):
    """Dependency pairs induced by a random serial order: correctable."""
    rng = random.Random(seed)
    steps_per_txn = 5
    n_txn = n_steps // steps_per_txn
    step_orders = {
        f"t{t}": [f"t{t}s{s}" for s in range(steps_per_txn)]
        for t in range(n_txn)
    }
    entity_of = {
        step: rng.randrange(max(n_steps // 10, 4))
        for steps in step_orders.values()
        for step in steps
    }
    order = []
    for t in rng.sample(sorted(step_orders), n_txn):
        order.extend(step_orders[t])
    pairs = []
    last: dict[int, str] = {}
    for step in order:
        entity = entity_of[step]
        if entity in last:
            pairs.append((last[entity], step))
        last[entity] = step
    return build_spec(step_orders, seed), pairs


def reject_instance(n_steps: int, seed: int = 0):
    step_orders, pairs = random_dependency_pairs(
        n_steps // 5, 5, n_entities=max(n_steps // 10, 4), seed=seed
    )
    return build_spec(step_orders, seed), pairs


@pytest.mark.parametrize("n_steps", SIZES)
def test_e1_accept_benchmark(benchmark, n_steps):
    spec, pairs = accept_instance(n_steps)
    benchmark.group = f"E1 accept n={n_steps}"
    report = benchmark(check_correctability, spec, pairs)
    assert report.correctable


@pytest.mark.parametrize("n_steps", SIZES)
def test_e1_reject_benchmark(benchmark, n_steps):
    spec, pairs = reject_instance(n_steps)
    benchmark.group = f"E1 reject n={n_steps}"
    benchmark(check_correctability, spec, pairs)


def test_e1_scaling_table():
    rows = []
    previous = None
    for n_steps in TABLE_SIZES:
        spec, pairs = accept_instance(n_steps)
        start = time.perf_counter()
        report = check_correctability(spec, pairs)
        accept_ms = (time.perf_counter() - start) * 1000
        assert report.correctable
        spec_r, pairs_r = reject_instance(n_steps)
        start = time.perf_counter()
        report_r = check_correctability(spec_r, pairs_r)
        reject_ms = (time.perf_counter() - start) * 1000
        growth = f"{accept_ms / previous:.1f}x" if previous else "-"
        rows.append([
            n_steps,
            f"{accept_ms:.1f}",
            growth,
            report.closure.index.edges,
            f"{reject_ms:.1f}",
            "no" if not report_r.correctable else "yes",
        ])
        previous = accept_ms
    seed, last_run = e1_baselines()
    baseline_note = ""
    if seed or last_run:
        parts = []
        if seed:
            parts.append(
                "seed revision "
                + ", ".join(
                    f"{ms:.1f} ms @ {size}"
                    for size, ms in sorted(seed.items(), key=lambda kv: int(kv[0]))
                )
            )
        if last_run:
            parts.append(
                "previous quick run "
                + ", ".join(
                    f"{ms:.1f} ms @ {size}"
                    for size, ms in sorted(last_run.items(), key=lambda kv: int(kv[0]))
                )
            )
        baseline_note = (
            "  Accept-path baselines from BENCH.json: " + "; ".join(parts) + "."
        )
    record_table(
        "e1_checker_scaling",
        "E1: Theorem 2 checker cost vs schedule size",
        ["steps", "accept (ms)", "growth /4x steps",
         "closure edges", "reject (ms)", "reject verdict"],
        rows,
        notes=(
            "Accept instances run the full closure fixpoint; reject "
            "instances stop at the first cycle.  Cost is polynomial — "
            "interactive (<=1s) through ~1600 steps, with roughly "
            "quadratic densification of the closure beyond (the generating "
            "graph itself grows superlinearly) — comfortably inside a "
            "concurrency control's window sizes, which pruning keeps in "
            "the tens of steps (E10)."
            + baseline_note
        ),
    )
