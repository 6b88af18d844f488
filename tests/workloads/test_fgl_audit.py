"""Tests for the [FGL] non-blocking audit workload."""

from __future__ import annotations

import pytest

from repro.core import check_correctability
from repro.engine import MLADetectScheduler, MLAPreventScheduler, Scheduler, SerialScheduler
from repro.errors import SpecificationError
from repro.workloads.fgl_audit import FGLConfig, FGLWorkload


class TestGeneration:
    def test_entities(self):
        fgl = FGLWorkload(FGLConfig(accounts=4, transfers=3))
        assert sum(1 for e in fgl.entities if e.startswith("ACC")) == 4
        assert sum(1 for e in fgl.entities if e.startswith("TRANSIT")) == 3
        assert fgl.grand_total == 400

    def test_audit_nest_level_depends_on_style(self):
        fgl = FGLWorkload(FGLConfig(classical_audit=False))
        assert fgl.nest.level("t0", "audit0") == 2
        classical = FGLWorkload(FGLConfig(classical_audit=True))
        assert classical.nest.level("t0", "audit0") == 1

    def test_bad_config(self):
        with pytest.raises(SpecificationError):
            FGLConfig(accounts=1)


class TestInvariant:
    def test_serial_audit_exact(self):
        fgl = FGLWorkload(FGLConfig(seed=2))
        result = fgl.engine(SerialScheduler(), seed=0).run()
        assert fgl.invariant_violations(result) == []

    def test_fgl_audit_exact_under_mla_control(self):
        """The headline: the level-2 audit interleaves with transfers yet
        still reads the exact grand total, because in-transit money is
        visible in the ledgers at every level-2 breakpoint."""
        fgl = FGLWorkload(FGLConfig(seed=2, transfers=6))
        for seed in range(6):
            result = fgl.engine(
                MLADetectScheduler(fgl.nest), seed=seed
            ).run()
            assert fgl.invariant_violations(result) == [], seed
            report = check_correctability(
                result.spec(fgl.nest), result.execution.dependency_edges()
            )
            assert report.correctable

    def test_fgl_audit_under_prevention(self):
        fgl = FGLWorkload(FGLConfig(seed=4, transfers=5))
        for seed in range(4):
            result = fgl.engine(
                MLAPreventScheduler(fgl.nest), seed=seed
            ).run()
            assert fgl.invariant_violations(result) == []

    def test_uncontrolled_breaks_even_the_fgl_audit(self):
        """The ledgers protect breakpoint interleavings, not arbitrary
        ones: without control the audit can still split a withdraw+post
        segment."""
        fgl = FGLWorkload(FGLConfig(seed=2, transfers=8))
        broken = 0
        for seed in range(12):
            result = fgl.engine(Scheduler(), seed=seed).run()
            if fgl.invariant_violations(result):
                broken += 1
        assert broken > 0

    def test_audit_latency_beats_classical(self):
        """What the FGL design buys: the level-2 audit need not wait for
        in-flight transfers, so under prevention its latency is no worse
        than the classical level-1 audit's across seeds."""
        from repro.analysis import mean

        def latencies(classical: bool):
            workload = FGLWorkload(
                FGLConfig(seed=7, transfers=6, classical_audit=classical)
            )
            out = []
            for seed in range(6):
                engine = workload.engine(
                    MLAPreventScheduler(workload.nest), seed=seed
                )
                result = engine.run()
                assert workload.invariant_violations(result) == []
                out.append(engine.commit_of("audit0").latency)
            return mean(out)

        assert latencies(classical=False) <= latencies(classical=True) * 1.5
