"""Engine metrics: the quantities the Section 6 conjectures are about.

The paper argues qualitatively that a multilevel-atomicity concurrency
control should detect *fewer cycles* (hence roll back less) and admit
*more interleavings* (hence wait less) than one enforcing strict
serializability.  These counters are what the benchmark harness reads to
test those conjectures quantitatively.

Latency and per-transaction wait counts are kept in fixed-bucket
histograms (:class:`repro.obs.Histogram`), so ``summary()`` reports
p50/p95/p99 tails rather than only a total and a maximum — tail latency
is where "waits less" actually shows.  The old total/max keys remain for
backward compatibility.

Every field is a deterministic count of the engine's decisions, so two
runs of the same seed — or a run and its recovery — have equal metrics
and byte-equal summaries.  Wall time is not kept here: it is measured
from outside (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.obs.histogram import Histogram

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters accumulated over one engine run.

    Time is the engine's logical tick (one scheduling decision per tick);
    latency of a transaction is commit tick minus first-arrival tick.
    """

    ticks: int = 0
    steps_performed: int = 0
    steps_undone: int = 0
    waits: int = 0
    commits: int = 0
    aborts: int = 0
    restarts: int = 0
    deadlocks: int = 0
    cycles_detected: int = 0
    cascade_aborts: int = 0
    partial_rollbacks: int = 0
    steps_preserved: int = 0
    closure_edges_added: int = 0
    closure_checks: int = 0
    commit_waits: int = 0
    latency_total: int = 0
    latency_max: int = 0
    cascade_chain_max: int = 0
    #: Finer-grained event counts that only registry series report —
    #: lock traffic, conflicts, parks, which layer broke a deadlock —
    #: kept here so snapshots carry them like every other count; not
    #: part of ``summary()``.
    detail: Counter = field(default_factory=Counter)
    latency_histogram: Histogram = field(default_factory=Histogram)
    wait_histogram: Histogram = field(default_factory=Histogram)

    # ------------------------------------------------------------------

    def copy(self) -> "Metrics":
        """A copy sharing no mutable part with this one."""
        return replace(
            self,
            detail=Counter(self.detail),
            latency_histogram=self.latency_histogram.copy(),
            wait_histogram=self.wait_histogram.copy(),
        )

    def record_commit(self, latency: int, waited: int = 0) -> None:
        self.commits += 1
        self.latency_total += latency
        self.latency_max = max(self.latency_max, latency)
        self.latency_histogram.record(latency)
        self.wait_histogram.record(waited)

    def record_cascade(self, size: int) -> None:
        if size > 1:
            self.cascade_aborts += size - 1
        self.cascade_chain_max = max(self.cascade_chain_max, size)

    # ------------------------------------------------------------------

    @property
    def throughput(self) -> float:
        """Committed transactions per tick."""
        return self.commits / self.ticks if self.ticks else 0.0

    @property
    def rollbacks(self) -> int:
        """Rewinds under either unit of recovery: restarts and partial
        rollbacks."""
        return self.aborts + self.partial_rollbacks

    @property
    def mean_latency(self) -> float:
        return self.latency_total / self.commits if self.commits else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborts per commit (restart pressure)."""
        return self.aborts / self.commits if self.commits else float("inf")

    def summary(self) -> dict[str, float | None]:
        # A zero-commit run must not masquerade as healthy: with aborts
        # on record the truthful rate is infinite (matching the
        # ``abort_rate`` property); with neither commits nor aborts the
        # rate is undefined, reported as None (JSON null).
        if self.commits:
            abort_rate: float | None = round(self.abort_rate, 4)
        elif self.aborts:
            abort_rate = float("inf")
        else:
            abort_rate = None
        return {
            "ticks": self.ticks,
            "commits": self.commits,
            "aborts": self.aborts,
            "restarts": self.restarts,
            "waits": self.waits,
            "commit_waits": self.commit_waits,
            "deadlocks": self.deadlocks,
            "cycles_detected": self.cycles_detected,
            "cascade_aborts": self.cascade_aborts,
            "cascade_chain_max": self.cascade_chain_max,
            "partial_rollbacks": self.partial_rollbacks,
            "steps_performed": self.steps_performed,
            "steps_undone": self.steps_undone,
            "steps_preserved": self.steps_preserved,
            "throughput": round(self.throughput, 4),
            "mean_latency": round(self.mean_latency, 2),
            "latency_total": self.latency_total,
            "latency_max": self.latency_max,
            "latency_p50": self.latency_histogram.percentile(0.50),
            "latency_p95": self.latency_histogram.percentile(0.95),
            "latency_p99": self.latency_histogram.percentile(0.99),
            "wait_p50": self.wait_histogram.percentile(0.50),
            "wait_p95": self.wait_histogram.percentile(0.95),
            "wait_p99": self.wait_histogram.percentile(0.99),
            "abort_rate": abort_rate,
            "closure_checks": self.closure_checks,
            "closure_edges_added": self.closure_edges_added,
        }
