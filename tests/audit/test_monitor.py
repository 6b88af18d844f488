"""The online correctability monitor: verdict agreement with the
offline checker, violation witnesses, per-commit checking, observability
surfaces, and the zero-interference guarantee."""

from __future__ import annotations

import pytest

from repro.api import ProgramSpec
from repro.audit import HistorySink, OnlineMonitor
from repro.core import check_correctability
from repro.obs import MetricsRegistry, RingTracer
from tests.audit.conftest import SCHEDULERS, run_specs

#: A flat crossing read/write workload the unguarded engine can commit
#: incorrectably — the monitor's negative-control food.
CROSS = (
    ProgramSpec("reader", (("read", "x"), ("read", "y")), ()),
    ProgramSpec("writer", (("set", "x", 7), ("set", "y", 7)), ()),
    ProgramSpec("adder", (("add", "y", 1),), ()),
)
CROSS_INITIAL = {"x": 0, "y": 0}


def find_unguarded_violation(max_seed: int = 200):
    """A seed where the 'none' scheduler commits a non-correctable run
    (the offline checker is the oracle)."""
    for seed in range(max_seed):
        result, nest = run_specs(CROSS, CROSS_INITIAL, "none", seed=seed)
        outcome = check_correctability(
            result.spec(nest), result.execution.dependency_pairs()
        )
        if not outcome.correctable:
            return seed, nest
    raise AssertionError(
        "no unguarded violation found; the negative control is dead"
    )


class TestAgreement:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_clean_run_matches_offline(self, scheduler, mixed_specs,
                                       mixed_initial):
        nest = None
        from repro.core.nests import KNest

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        monitor = OnlineMonitor(nest)
        result, _ = run_specs(
            mixed_specs, mixed_initial, scheduler, history=monitor
        )
        monitor.close()
        offline = check_correctability(
            result.spec(nest), result.execution.dependency_pairs()
        )
        assert offline.correctable  # every real scheduler is guarded
        assert monitor.correctable == offline.correctable
        assert monitor.checked == len(result.commit_order)
        report = monitor.report()
        assert report["violations"] == 0
        assert report["cycle"] == []

    def test_unguarded_violation_is_flagged(self):
        seed, nest = find_unguarded_violation()
        monitor = OnlineMonitor(nest)
        run_specs(CROSS, CROSS_INITIAL, "none", seed=seed, history=monitor)
        monitor.close()
        assert not monitor.correctable
        assert monitor.violations == 1
        assert monitor.cycle  # the witness cycle is kept
        report = monitor.report()
        assert report["correctable"] is False
        assert all(isinstance(s, str) for s in report["cycle"])

    @pytest.mark.parametrize("seed", range(8))
    def test_verdicts_agree_seed_sweep(self, seed):
        """Online and offline must agree on *every* run, guarded or not."""
        result, nest = run_specs(CROSS, CROSS_INITIAL, "none", seed=seed)
        monitor = OnlineMonitor(nest)
        run_specs(CROSS, CROSS_INITIAL, "none", seed=seed, history=monitor)
        monitor.close()
        offline = check_correctability(
            result.spec(nest), result.execution.dependency_pairs()
        )
        assert monitor.correctable == offline.correctable


class TestInterference:
    def test_monitored_run_is_bit_identical(self, mixed_specs,
                                            mixed_initial):
        from repro.core.nests import KNest

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        bare, _ = run_specs(mixed_specs, mixed_initial, seed=5)
        monitored, _ = run_specs(
            mixed_specs, mixed_initial, seed=5, history=OnlineMonitor(nest)
        )
        assert monitored.history_digest() == bare.history_digest()
        assert monitored.metrics.ticks == bare.metrics.ticks


class TestPerCommit:
    def test_each_commit_is_checked_as_it_arrives(self, mixed_specs,
                                                  mixed_initial):
        from repro.core.nests import KNest

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        registry = MetricsRegistry()
        monitor = OnlineMonitor(nest, registry=registry)
        seen = []

        class Probe(HistorySink):
            """Hands each commit to the monitor, then reads its counts
            as the commit leaves it."""

            enabled = True

            def on_commit(self, *args):
                monitor.on_commit(*args)
                seen.append((
                    monitor.checked,
                    registry.value("repro_audit_checked_commits_total"),
                ))

        result, _ = run_specs(mixed_specs, mixed_initial, history=Probe())
        commits = len(result.commit_order)
        assert seen == [(n, n) for n in range(1, commits + 1)]
        assert monitor.correctable


class TestObservability:
    def test_registry_counters_on_clean_run(self, mixed_specs,
                                            mixed_initial):
        from repro.core.nests import KNest

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        registry = MetricsRegistry()
        monitor = OnlineMonitor(nest, registry=registry)
        result, _ = run_specs(mixed_specs, mixed_initial, history=monitor)
        monitor.close()
        commits = len(result.commit_order)
        assert registry.value("repro_audit_checked_commits_total") == commits
        assert registry.value("repro_audit_violations_total") == 0
        assert registry.value("repro_audit_lag") is None

    def test_registry_counts_violation(self):
        seed, nest = find_unguarded_violation()
        registry = MetricsRegistry()
        monitor = OnlineMonitor(nest, registry=registry)
        run_specs(CROSS, CROSS_INITIAL, "none", seed=seed, history=monitor)
        monitor.close()
        assert registry.value("repro_audit_violations_total") == 1

    def test_tracer_check_events(self, mixed_specs, mixed_initial):
        from repro.core.nests import KNest

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        tracer = RingTracer()
        monitor = OnlineMonitor(nest, tracer=tracer)
        result, _ = run_specs(mixed_specs, mixed_initial, history=monitor)
        monitor.close()
        checks = [e for e in tracer.events() if e.kind == "audit.check"]
        assert len(checks) == len(result.commit_order)
        assert {e.data["txn"] for e in checks} == set(result.commit_order)

    def test_tracer_violation_event_carries_cycle(self):
        seed, nest = find_unguarded_violation()
        tracer = RingTracer()
        monitor = OnlineMonitor(nest, tracer=tracer)
        run_specs(CROSS, CROSS_INITIAL, "none", seed=seed, history=monitor)
        monitor.close()
        bad = [e for e in tracer.events() if e.kind == "audit.violation"]
        assert len(bad) == 1
        assert bad[0].data["cycle"]


class TestFanOut:
    def test_monitor_composes_with_capture(self, mixed_specs,
                                           mixed_initial):
        from repro.core.nests import KNest
        from tests.audit.conftest import captured

        nest = KNest.from_paths({s.name: s.path for s in mixed_specs})
        monitor = OnlineMonitor(nest)
        result, history = captured(
            mixed_specs, mixed_initial, history=monitor
        )
        monitor.close()
        assert monitor.correctable
        assert history.digest() == result.history_digest()
