"""Assemble EXPERIMENTS.md from the per-experiment result artefacts.

Each ``bench_*`` table test writes ``benchmarks/results/<name>.md``; this
script stitches them (in experiment order) into the repository-level
EXPERIMENTS.md together with the paper-vs-measured commentary.

Usage: ``python benchmarks/collect_results.py`` (after running
``pytest benchmarks/``).

``python benchmarks/collect_results.py --quick`` instead runs a reduced
smoke workload (E1 at <=1600 steps, E10 at <=120 steps, plus the E14
distributed fault smoke, the flight-recorder trace smoke, the
metrics-plane obs smoke and the E15 service smoke — a few hundred
transactions through a live socket server with SLOs asserted and the
committed history checked bit-identical against a library replay)
against the seed baselines and writes ``BENCH.json`` at the repository
root — correctness is asserted, timings
are recorded with speedup factors, and every run appends a ``history``
entry (git SHA + date + timings) so slowdowns against the *previous* run
are surfaced as warnings.

The trace smoke records one small banking run per scheduler, asserts the
traced run is behaviour-identical to the untraced one (same metrics,
same commit order), round-trips the recording through JSONL, and
measures the disabled-tracer guard overhead on the E1 quick workload
(asserted < 3%).

The obs smoke does the same for the metrics plane: one registry-
instrumented, profiled banking run per scheduler, asserted
behaviour-identical to the bare run, with the *enabled* overhead
estimated analytically (measured primitive costs times the run's actual
instrumentation traffic; asserted < 5%).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
TARGET = os.path.join(HERE, os.pardir, "EXPERIMENTS.md")
QUICK_TARGET = os.path.join(HERE, os.pardir, "BENCH.json")
#: Seed-revision timings (ms) from benchmarks/results/*.md before the
#: incremental reachability core landed, at the quick-mode sizes.
SEED_BASELINES_MS = {
    "e1_accept": {"100": 1.3, "400": 4.5},
    "e1_reject": {"100": 0.9, "400": 4.5},
    "e10_full": {"40": 20.0, "120": 170.0},
    "e10_incremental": {"40": 20.0, "120": 194.0},
    "e10_incremental+prune": {"40": 17.0, "120": 103.0},
}

#: A quick-mode timing is flagged when it runs this much slower than the
#: same measurement in the previous ``BENCH.json`` run.
REGRESSION_FACTOR = 1.5
#: History entries kept in ``BENCH.json`` (oldest dropped first).
HISTORY_LIMIT = 100


ORDER = [
    "x_paper_examples",
    "e1_checker_scaling",
    "e2_admission_banking",
    "e2_admission_cad",
    "e3_rollbacks",
    "e4_throughput",
    "e5_audit_invariant",
    "e6_nest_depth",
    "e7_distributed",
    "e8_action_trees",
    "e9_cascades",
    "e10_closure_ablation",
    "e11_fgl_audit",
    "e12_recovery_unit",
    "e13_nested_locking",
    "e14_fault_sweep",
    "e15_soak",
    "e16_crash_fuzz",
    "e17_exhaustive_audit",
    "e18_service_path",
]

HEADER = """# EXPERIMENTS — measured results

The paper (*Multilevel Atomicity*, Lynch, PODS 1982) is theory-only: it
contains **no tables or figures**.  Its checkable content is (a) the worked
examples of Sections 4.2-5.2 and 7, reproduced verbatim below as X1-X8, and
(b) the performance conjectures and open questions stated in prose, which
experiments E1-E13 (defined in DESIGN.md) test quantitatively.  Absolute
numbers are properties of this pure-Python simulator; the *shapes* are the
reproduction targets.

Regenerate everything with::

    pytest benchmarks/            # runs the tables and the timings
    python benchmarks/collect_results.py

## Paper-vs-measured summary

| Claim (paper location) | Expected shape | Measured | Verdict |
|---|---|---|---|
| Worked examples, §4.2/§5.1/§5.2/§7 (X1-X8) | exact match | exact match (R1 modulo a documented transitive-closure erratum; both §5.1 extensions recovered exactly) | reproduced |
| Theorem 2 is an effective test (§5) | polynomial-time decision | ms through hundreds of steps, ~quadratic densification at thousands; window pruning keeps on-line cost flat (E1, E10) | holds |
| MLA admits more schedules than SR (§1, §4) | admission monotone in nest depth, SR = floor | monotone everywhere; same-family banking 0.10 -> 0.43, CAD 0.17 -> 0.53 by depth (E2); CAD engine cycles 5.2 -> 1.3 (E6) | holds |
| "Fewer cycles ... fewer rollbacks" (§6) | MLA-detect < SR-detect cycles at all contention | 1.3x-1.7x fewer cycles at every contention level (E3) | holds |
| Serializability too strict for long transactions (§1) | MLA scheduler beats serial & 2PL as transactions grow | mla-detect fastest at moderate length; all controls converge at saturation (E4) | holds (with regime caveat) |
| Audit atomicity (§1-2) | zero invariant violations under control, violations without | exactly that, every scheduler, every seed (E5) | holds |
| Migrating-transaction implementability (§6) | every admission control the sequencer hosts correctable on every run | 100% correctable, all six; message overhead quantified (E7) | holds |
| Nested-action-tree encodability (§7) | every MLA execution encodes; property verified | 100% encode + verify; linear-time pass (E8) | holds |
| Unbounded rollback chains (§6) | cascade length = chain length | exact, with live-engine confirmation (E9) | holds |
| [FGL] non-blocking audit (§2) | exact totals while riding level-2 breakpoints | zero errors in both styles; fewer aborts for FGL (E11) | holds |
| Intermediate recovery unit (§1) | — (paper only cautions) | segment recovery preserves steps but re-enters conflicts: a quantified *negative* result matching the caution (E12) | informative |
| Nested-transaction implementation efficiency (§7, open) | — (open question) | breakpoint-released locking matches prevention at lock-table cost; provably incomplete (counterexample); certified hybrid sound (E13) | answered |
| Migrating transactions on a *real* (faulty) network (§6, implicit) | — (§6 assumes perfect delivery) | at-least-once protocol masks 20% drop/dup/reorder plus node crashes: 100% checker acceptance, committed results bitwise equal to the fault-free run (E14) | extended |
| Single-site durability (§1's long-lived transactions must survive the scheduler's own process) | — (paper assumes a stable site) | engine WAL + snapshots + deterministic replay: hundreds of seeded crash points (incl. torn tails) all recover bitwise-identical and continue to the reference history (E16) | extended |
| Black-box checkability of histories (§3's breakpoint-derivable correctness needs only the history) | — (paper states the definitions; checking is implicit in Theorem 2) | audit plane: streamed captures re-imported black-box and classified per transaction (multilevel / serializable / SI with witnesses); bounded-exhaustive explorer proves every schedule of the small configs correctable under all five controls, with the unguarded control caught; online monitor <5% of bare wall at E1 scale, disabled seam ~ns/commit (E17) | extended |
| Where a served transaction's time goes, and what a restart costs (ROADMAP: "performance that is measured") | — (the paper makes no such claim; every number defended here is self-measured) | E18: five workloads against the real serve / audit processes, end-to-end + per-layer, correctness checked in the same run; restart is linear in the log (3 000 txns: 1.87 → 1.05 s; 8 000: 11.2 → 2.5 s) and the serve path imports neither networkx nor numpy (E18) | measured |

---
"""


#: Disabled-tracer overhead budget, in percent of run time (ISSUE 4).
TRACE_OVERHEAD_BUDGET_PCT = 3.0

#: Enabled metrics-plane overhead budget, in percent of run time (PR 5).
#: Information only: the gate is the deterministic pair in ``obs_smoke``.
OBS_OVERHEAD_BUDGET_PCT = 5.0

#: Callables ``PhaseProfiler.install`` times on an engine, each a place
#: a tick can open a phase span: the scheduler's ``on_request``,
#: ``after_performed`` and ``may_commit``, ``Engine._rollback``, and the
#: closure window's ``_recompute`` and ``_extend``.
PROFILER_HOOK_SITES = 6


def _scheduler_zoo() -> dict:
    from repro.engine import (
        MLADetectScheduler,
        MLAPreventScheduler,
        NestedLockScheduler,
        SerialScheduler,
        TimestampScheduler,
        TwoPhaseLockingScheduler,
    )

    return {
        "serial": lambda nest: SerialScheduler(),
        "2pl": lambda nest: TwoPhaseLockingScheduler(),
        "timestamp": lambda nest: TimestampScheduler(),
        "mla-detect": lambda nest: MLADetectScheduler(nest),
        "mla-prevent": lambda nest: MLAPreventScheduler(nest),
        "mla-nested-lock": lambda nest: NestedLockScheduler(nest),
    }


def trace_smoke() -> dict:
    """Flight-recorder smoke: record one small banking run per
    scheduler, assert behaviour-invariance against the untraced run,
    round-trip the recording through JSONL, and measure the disabled-
    tracer guard overhead.

    The overhead number is the honest one for always-on guards: the
    measured per-guard cost (attribute load + branch on the engine's
    empty sink tuple) times the number of events an enabled run of the
    same workload emits, as a percentage of the untraced run's wall
    time.
    """
    import tempfile
    import timeit

    from repro.obs import EVENT_KINDS, RingTracer, dump_jsonl, load_jsonl
    from repro.workloads import BankingConfig, BankingWorkload

    workload = BankingWorkload(
        BankingConfig(families=2, transfers=6, bank_audits=1,
                      creditor_audits=1, seed=7)
    )
    zoo = _scheduler_zoo()
    events_per_run: dict[str, int] = {}
    untraced_seconds: dict[str, float] = {}
    for name, factory in zoo.items():
        tracer = RingTracer(capacity=None)
        traced = workload.engine(
            factory(workload.nest), seed=7, tracer=tracer
        ).run()
        start = time.perf_counter()
        untraced = workload.engine(factory(workload.nest), seed=7).run()
        untraced_seconds[name] = time.perf_counter() - start
        assert traced.commit_order == untraced.commit_order, (
            f"trace smoke: commit order diverged under tracing ({name})"
        )
        assert traced.metrics.summary() == untraced.metrics.summary(), (
            f"trace smoke: metrics diverged under tracing ({name})"
        )
        events = tracer.events()
        assert tracer.dropped == 0
        assert events, f"trace smoke: no events recorded ({name})"
        assert all(e.kind in EVENT_KINDS for e in events)
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as handle:
            path = handle.name
        try:
            written = dump_jsonl(events, path)
            parsed = load_jsonl(path)
        finally:
            os.unlink(path)
        assert written == len(events) == len(parsed)
        assert [
            (e.kind, e.at) for e in parsed
        ] == [(e.kind, e.at) for e in events], (
            f"trace smoke: JSONL round-trip mangled the stream ({name})"
        )
        events_per_run[name] = len(events)
    # Guard micro-cost: what a decision site of an unobserved engine
    # executes — its kind tested against the engine's empty route
    # table — net of an empty branch.
    n = 200_000
    bare_engine = workload.engine(zoo["serial"](workload.nest))
    guard = timeit.timeit(
        'if "step.perform" in engine._routes: pass',
        globals={"engine": bare_engine}, number=n,
    )
    empty = timeit.timeit("if (): pass", number=n)
    guard_seconds = max(guard - empty, 0.0) / n
    overhead_pct = {
        name: round(
            100.0 * guard_seconds * events_per_run[name]
            / untraced_seconds[name],
            4,
        )
        for name in zoo
        if untraced_seconds[name] > 0
    }
    worst = max(overhead_pct.values())
    assert worst < TRACE_OVERHEAD_BUDGET_PCT, (
        f"disabled-tracer overhead {worst}% exceeds the "
        f"{TRACE_OVERHEAD_BUDGET_PCT}% budget"
    )
    return {
        "events_per_run": events_per_run,
        "guard_ns": round(guard_seconds * 1e9, 2),
        "disabled_overhead_pct": overhead_pct,
        "disabled_overhead_worst_pct": worst,
        "budget_pct": TRACE_OVERHEAD_BUDGET_PCT,
    }


@contextlib.contextmanager
def _counting_child_writes():
    """Count every write to any registry child while the block runs: a
    child is a bare holder of ``value`` / ``hist`` that only a source's
    assignment changes, and every assignment passes through the child's
    ``__setattr__``."""
    from repro.obs.registry import Counter, Gauge, HistogramChild

    tally = {"writes": 0}

    def counted_setattr(child, name, value):
        tally["writes"] += 1
        object.__setattr__(child, name, value)

    children = (Counter, Gauge, HistogramChild)
    for child_type in children:
        child_type.__setattr__ = counted_setattr
    try:
        yield tally
    finally:
        for child_type in children:
            del child_type.__setattr__


def obs_smoke() -> dict:
    """Metrics-plane smoke: one registry-instrumented, profiled
    banking run per scheduler, asserted behaviour-identical to the bare
    run and asserted *not to touch the registry while it runs*.

    The engine keeps its counts in ``Metrics`` and the registry derives
    its series from them on read, so the deterministic statement of "the
    metrics plane is cheap" is a count, not a timing: zero registry
    child writes between entering and leaving ``Engine.advance``, and
    phase spans per tick bounded by the number of profiler hook sites.
    Both are asserted here and again by the tier-1 smoke test.

    The enabled overhead *percentage* is still reported, as information
    only (every timing in ``BENCH.json`` is warn-only: bare wall times
    are single-digit milliseconds and swing run to run).  It models what
    an instrumented run pays over a bare one: the measured cost of a
    profiler proxy times the spans the run opened, plus one registry
    read.
    """
    import timeit

    from repro.obs import MetricsRegistry, PhaseProfiler, prometheus_text
    from repro.workloads import BankingConfig, BankingWorkload

    workload = BankingWorkload(
        BankingConfig(families=2, transfers=6, bank_audits=1,
                      creditor_audits=1, seed=7)
    )
    work: dict[str, dict[str, int]] = {}
    bare_seconds: dict[str, float] = {}
    read_seconds: dict[str, float] = {}
    for name, factory in _scheduler_zoo().items():
        registry = MetricsRegistry()
        engine = workload.engine(
            factory(workload.nest), seed=7, registry=registry,
        )
        profiler = PhaseProfiler().install(engine)
        with _counting_child_writes() as tally:
            engine.advance()
        instrumented = engine.run()
        # Best-of-3 bare timing: the min is the least noise-inflated
        # estimate of the true cost.
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            bare = workload.engine(factory(workload.nest), seed=7).run()
            samples.append(time.perf_counter() - start)
        bare_seconds[name] = min(samples)
        assert instrumented.commit_order == bare.commit_order, (
            f"obs smoke: commit order diverged under metrics ({name})"
        )
        assert instrumented.metrics.summary() == bare.metrics.summary(), (
            f"obs smoke: metrics diverged under instrumentation ({name})"
        )
        # The registry must agree with the engine's own counters.
        assert registry.value(
            "repro_commits_total", scheduler=name
        ) == bare.metrics.commits, (
            f"obs smoke: registry commit count wrong ({name})"
        )
        assert "repro_commits_total" in prometheus_text(registry)
        work[name] = {
            "registry_writes_in_advance": tally["writes"],
            "phase_spans": int(sum(profiler.calls.values())),
            "ticks": instrumented.metrics.ticks,
        }
        assert tally["writes"] == 0, (
            f"obs smoke: {tally['writes']} registry child writes inside "
            f"Engine.advance ({name}); the series are derived on read"
        )
        assert work[name]["phase_spans"] <= (
            PROFILER_HOOK_SITES * work[name]["ticks"]
        ), f"obs smoke: more phase spans than hook sites allow ({name})"
        read_seconds[name] = min(
            timeit.repeat(registry.families, number=1, repeat=5)
        )
    n = 100_000

    def hook() -> None:
        pass

    proxy = PhaseProfiler()._timed("schedule", hook)
    span_seconds = max(
        timeit.timeit(proxy, number=n) - timeit.timeit(hook, number=n),
        0.0,
    ) / n

    def cost(name: str) -> float:
        return span_seconds * work[name]["phase_spans"] + read_seconds[name]

    overhead_pct = {
        name: round(100.0 * cost(name) / bare_seconds[name], 4)
        for name in work
        if bare_seconds[name] > 0
    }
    aggregate = round(
        100.0 * sum(map(cost, work)) / sum(bare_seconds.values()), 4
    )
    return {
        "instrumented_work": work,
        "span_ns": round(span_seconds * 1e9, 2),
        "read_us": {
            name: round(seconds * 1e6, 2)
            for name, seconds in read_seconds.items()
        },
        "enabled_overhead_pct": overhead_pct,
        "enabled_overhead_aggregate_pct": aggregate,
        "budget_pct": OBS_OVERHEAD_BUDGET_PCT,
    }


def run_quick(
    e1_sizes=(100, 400, 1600), e10_sizes=(40, 120)
) -> dict:
    """Run the reduced E1/E10 workloads, asserting correctness and
    returning timings plus speedups against the seed baselines."""
    for path in (HERE, os.path.join(HERE, os.pardir, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench_e1_checker_scaling as e1
    import bench_e10_closure_ablation as e10
    import bench_e14_fault_sweep as e14
    import bench_e15_soak as e15
    import bench_e16_crash_fuzz as e16
    import bench_e17_exhaustive_audit as e17
    from repro.api import make_scheduler
    from repro.core import check_correctability

    timings: dict[str, dict[str, float]] = {
        key: {} for key in SEED_BASELINES_MS
    }
    for n in e1_sizes:
        spec, pairs = e1.accept_instance(n)
        start = time.perf_counter()
        report = check_correctability(spec, pairs)
        timings["e1_accept"][str(n)] = (time.perf_counter() - start) * 1000
        assert report.correctable, f"E1 accept instance rejected at n={n}"
        spec_r, pairs_r = e1.reject_instance(n)
        start = time.perf_counter()
        report_r = check_correctability(spec_r, pairs_r)
        timings["e1_reject"][str(n)] = (time.perf_counter() - start) * 1000
        assert (
            not report_r.correctable
        ), f"E1 reject instance accepted at n={n}"
    for n in e10_sizes:
        for label, mode, pruning in e10.CONFIGS:
            window = e10.make_window(mode, pruning, n)
            seconds = e10.feed(window, n)
            timings[f"e10_{label}"][str(n)] = seconds * 1000
            assert window.closure_calls >= n, (
                f"E10 {label} skipped closure checks at n={n}"
            )
    # E14 smoke: one faulty run per scheduler (10% drop/dup/reorder plus
    # a node crash); the faulty committed results must equal the
    # zero-fault run's — the fault layer may cost time, never outcomes.
    timings["e14_fault_smoke"] = {}
    for label, programs, accounts, nest, _bank in e14.cases():
        base = e14.run_once(programs, accounts, make_scheduler(label, nest))
        start = time.perf_counter()
        faulty = e14.run_once(
            programs, accounts, make_scheduler(label, nest),
            faults=e14.fault_plan(0.1, 0),
        )
        timings["e14_fault_smoke"][label] = (
            time.perf_counter() - start
        ) * 1000
        assert faulty.commits == len(programs), (
            f"E14 smoke lost commits under faults ({label})"
        )
        assert faulty.results == base.results, (
            f"E14 smoke results diverged under faults ({label})"
        )
    # E15 smoke: a few hundred transactions through a live socket server
    # (admission window, batched ticks, backpressure); ``smoke`` asserts
    # the latency/abort SLOs and that the committed history is
    # bit-identical to the library replay of the recorded arrivals.
    start = time.perf_counter()
    service_summary = e15.smoke()
    timings["e15_service_smoke"] = {
        str(service_summary["transactions"]):
            (time.perf_counter() - start) * 1000,
    }
    # E16 smoke: a seeded crash-point fuzz over the engine WAL (record
    # boundaries + torn tails) — every kill must recover bitwise and
    # continue to the reference history.  Recovery time and the
    # WAL-enabled overhead ratio land in the summary; the overhead is
    # warn-only (fsync cost is hardware, never a CI gate).
    start = time.perf_counter()
    durability_summary = e16.smoke()
    timings["e16_crash_fuzz"] = {
        str(durability_summary["fuzz"]["cuts"]):
            (time.perf_counter() - start) * 1000,
    }
    # E17 smoke: the audit plane — tiny configurations exhaustively
    # proven under every scheduler (the unguarded control caught), the
    # large canned pairs swept under a node cap (completeness warn-only
    # here; the full bench proves it), plus monitor overhead and the
    # capture → import → classify round-trip per scheduler.
    start = time.perf_counter()
    audit_summary = e17.smoke()
    timings["e17_audit_smoke"] = {
        str(len(audit_summary["proofs"]) + len(audit_summary["capped"])):
            (time.perf_counter() - start) * 1000,
    }
    speedups = {
        f"{key}_{size}": round(base / timings[key][size], 2)
        for key, sizes in SEED_BASELINES_MS.items()
        for size, base in sizes.items()
        if key in timings and size in timings[key] and timings[key][size] > 0
    }
    return {
        "mode": "quick",
        "workloads": {
            "e1": "coherent-closure correctability, accept + reject "
                  "instances (steps <= 400)",
            "e10": "closure-window maintenance ablation "
                   "(stream <= 120 steps)",
            "e14": "distributed fault smoke (10% drop/dup/reorder + one "
                   "node crash per control, results vs fault-free)",
            "trace": "flight-recorder smoke (one traced banking run per "
                     "scheduler: behaviour-invariance, JSONL round-trip, "
                     "disabled-guard overhead)",
            "obs": "metrics-plane smoke (one instrumented banking run "
                   "per scheduler: behaviour-invariance, registry "
                   "agreement, enabled-overhead budget)",
            "e15": "service smoke (socket server ingest: SLOs asserted, "
                   "committed history bit-identical to the library "
                   "replay)",
            "e16": "durability smoke (seeded crash-point fuzz incl. torn "
                   "tails: recover-and-continue asserted; recovery time "
                   "and WAL overhead recorded, overhead warn-only)",
            "e17": "audit smoke (tiny configs exhaustively proven under "
                   "every scheduler + unguarded control caught; capped "
                   "sweep of the canned pairs warn-only; monitor "
                   "overhead and capture→import→classify asserted)",
        },
        "trace": trace_smoke(),
        "obs": obs_smoke(),
        "service": service_summary,
        "durability": durability_summary,
        "audit": audit_summary,
        "timings_ms": {
            key: {size: round(ms, 2) for size, ms in sizes.items()}
            for key, sizes in timings.items()
        },
        "seed_baselines_ms": SEED_BASELINES_MS,
        "speedup_vs_seed": speedups,
    }


def _git_sha() -> str:
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _flatten_timings(timings: dict) -> dict[str, float]:
    return {
        f"{key}_{size}": ms
        for key, sizes in timings.items()
        for size, ms in sizes.items()
    }


def write_quick(path: str = QUICK_TARGET) -> dict:
    """Run the quick benchmarks and write ``BENCH.json``: the current
    results, a capped per-run ``history`` (git SHA + date + timings),
    and ``regressions_vs_previous`` comparing against the last run."""
    data = run_quick()
    history: list[dict] = []
    previous: dict | None = None
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                old = json.load(handle)
        except (OSError, ValueError):
            old = None
        if isinstance(old, dict):
            # The full E15 soak (bench_e15_soak.py) writes its section
            # out of band; a quick run must not drop it.
            if "e15_soak" in old:
                data["e15_soak"] = old["e15_soak"]
            # Likewise the full E16 sweep (bench_e16_crash_fuzz.py).
            if "e16_durability" in old:
                data["e16_durability"] = old["e16_durability"]
            # And the full E17 exhaustive-audit sweep
            # (bench_e17_exhaustive_audit.py).
            if "e17_exhaustive" in old:
                data["e17_exhaustive"] = old["e17_exhaustive"]
            history = [
                entry for entry in old.get("history", [])
                if isinstance(entry, dict)
            ]
            if history:
                previous = history[-1]
            elif isinstance(old.get("timings_ms"), dict):
                previous = {"timings_ms": old["timings_ms"]}
    regressions: list[str] = []
    if previous is not None:
        before = _flatten_timings(previous.get("timings_ms", {}))
        now = _flatten_timings(data["timings_ms"])
        for key in sorted(now):
            prev_ms = before.get(key)
            if prev_ms and prev_ms > 0 and now[key] > prev_ms * REGRESSION_FACTOR:
                regressions.append(
                    f"{key}: {now[key]:.2f} ms vs {prev_ms:.2f} ms last "
                    f"run ({now[key] / prev_ms:.1f}x slower)"
                )
    data["regressions_vs_previous"] = regressions
    history.append({
        "sha": _git_sha(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "timings_ms": data["timings_ms"],
    })
    data["history"] = history[-HISTORY_LIMIT:]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for message in regressions:
        print(
            f"WARNING: quick-bench regression vs previous run: {message}",
            file=sys.stderr,
        )
    return data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the reduced smoke benchmarks and write BENCH.json "
             "(appending run history with regression warnings)",
    )
    if parser.parse_args().quick:
        data = write_quick()
        print(f"wrote {os.path.abspath(QUICK_TARGET)}")
        for key, factor in sorted(data["speedup_vs_seed"].items()):
            print(f"  {key}: {factor}x vs seed")
        return
    sections = [HEADER]
    missing = []
    for name in ORDER:
        path = os.path.join(RESULTS, f"{name}.md")
        if not os.path.exists(path):
            missing.append(name)
            continue
        with open(path, encoding="utf-8") as handle:
            sections.append(handle.read().strip() + "\n")
    if missing:
        sections.append(
            "\n*(missing artefacts — run `pytest benchmarks/` first: "
            + ", ".join(missing)
            + ")*\n"
        )
    with open(TARGET, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {os.path.abspath(TARGET)}"
          + (f" ({len(missing)} artefacts missing)" if missing else ""))


if __name__ == "__main__":
    main()
