"""E11 (extension): the [FGL] non-blocking audit.

Claim tested (Section 2's pointer to [FGL]): redesigning the audit so it
counts money in transit — per-transfer transit ledgers posted inside the
withdrawal segment — lets the audit ride the customers' level-2
breakpoints instead of demanding level-1 atomicity, without giving up
exactness.

Expected shape: both audit styles read the exact grand total on every
controlled run; the FGL audit suffers fewer waits/aborts than the
classical audit under the same scheduler, because it no longer conflicts
with entire transfers.
"""

from __future__ import annotations

import pytest

from _harness import record_table
from repro.analysis import mean
from repro.core import check_correctability
from repro.engine import MLADetectScheduler, MLAPreventScheduler
from repro.workloads.fgl_audit import FGLConfig, FGLWorkload

SEEDS = range(8)


def workload(classical: bool) -> FGLWorkload:
    return FGLWorkload(FGLConfig(
        accounts=6, transfers=6, audits=1, classical_audit=classical, seed=7,
    ))


def test_e11_fgl_run_benchmark(benchmark):
    fgl = workload(classical=False)
    benchmark(lambda: fgl.engine(MLADetectScheduler(fgl.nest), seed=0).run())


def test_e11_audit_styles_table():
    rows = []
    for style, classical in (("classical (level 1)", True), ("FGL (level 2)", False)):
        fgl = workload(classical)
        for sched_label, factory in (
            ("mla-detect", lambda: MLADetectScheduler(fgl.nest)),
            ("mla-prevent", lambda: MLAPreventScheduler(fgl.nest)),
        ):
            latencies, aborts, violations, ticks = [], [], 0, []
            for seed in SEEDS:
                engine = fgl.engine(factory(), seed=seed)
                result = engine.run()
                violations += len(fgl.invariant_violations(result))
                latencies.append(engine.commit_of("audit0").latency)
                aborts.append(result.metrics.aborts)
                ticks.append(result.metrics.ticks)
                report = check_correctability(
                    result.spec(fgl.nest),
                    result.execution.dependency_edges(),
                )
                assert report.correctable
            assert violations == 0, (style, sched_label)
            rows.append([
                style,
                sched_label,
                f"{mean(latencies):.0f}",
                f"{mean(ticks):.0f}",
                f"{mean(aborts):.1f}",
                violations,
            ])
    record_table(
        "e11_fgl_audit",
        "E11: classical vs FGL (non-blocking) audit",
        ["audit style", "scheduler", "audit latency", "batch ticks",
         "aborts", "total errors"],
        rows,
        notes=(
            "Same transfer mix; the FGL audit reads accounts *and* the "
            "transit ledgers, so it is exact while interleaving at the "
            f"customers' level-2 breakpoints.  Means over {len(list(SEEDS))} "
            "seeds; zero audit errors in every controlled configuration."
        ),
    )
