"""Regression tests for the metrics counters and their summary."""

from __future__ import annotations

import math

from repro.engine.metrics import Metrics


class TestAbortRateTruthfulness:
    def test_zero_commit_zero_abort_is_undefined(self):
        """No commits and no aborts: the rate is undefined, and the
        summary must say so (None / JSON null), not claim 0.0."""
        assert Metrics().summary()["abort_rate"] is None

    def test_zero_commit_with_aborts_is_infinite(self):
        """Regression: a run that aborted without ever committing used
        to report ``abort_rate: 0.0`` — the healthiest possible value
        for the unhealthiest possible run."""
        metrics = Metrics(aborts=7)
        reported = metrics.summary()["abort_rate"]
        assert reported == float("inf")
        assert math.isinf(metrics.abort_rate)

    def test_normal_rate_matches_property(self):
        metrics = Metrics(commits=4, aborts=2)
        assert metrics.summary()["abort_rate"] == 0.5

    def test_summary_reports_all_recovery_counters(self):
        """The counters the recovery experiments read must survive into
        the summary dict (they used to be silently dropped)."""
        metrics = Metrics(
            restarts=3,
            steps_undone=11,
            commit_waits=5,
            partial_rollbacks=2,
        )
        metrics.record_commit(latency=9)
        summary = metrics.summary()
        assert summary["restarts"] == 3
        assert summary["steps_undone"] == 11
        assert summary["commit_waits"] == 5
        assert summary["partial_rollbacks"] == 2
        assert summary["latency_max"] == 9

