"""The online correctability monitor.

An incremental black-box checker that consumes the live history stream
*per commit* (it is a :class:`~repro.audit.history.HistorySink`, so it
plugs straight into the engine's commit seam) and maintains the
coherent-closure state incrementally on the same
:class:`~repro.core.coherence.ClosureEngine` /
:mod:`repro.core.reach` machinery the schedulers use.  By Theorem 2 the
committed history stays correctable exactly while the closure stays
acyclic — so the monitor's verdict after every commit equals what the
offline :func:`repro.core.atomicity.is_correctable` would say about the
committed prefix.

Observability: a registry, when given, reads the checked / violation
counts from the monitor whenever it is read
(``repro_audit_checked_commits_total``, ``repro_audit_violations_total``),
and a tracer, when given, receives ``audit.check``
/ ``audit.violation`` taxonomy events with the witness cycle.  The
monitor never touches the engine rng, so monitored runs are
bit-identical to bare runs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any

from repro.audit.history import HistorySink
from repro.core.coherence import ClosureEngine
from repro.model.steps import StepRecord

__all__ = ["OnlineMonitor"]


class OnlineMonitor(HistorySink):
    """Watch a commit stream and flag the first correctability violation;
    each commit is checked as it arrives.

    Parameters
    ----------
    nest:
        The k-nest placing every transaction that may commit.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        monitor registers as the source of the checked/violation
        counters.
    tracer:
        Optional flight recorder for ``audit.*`` taxonomy events.
    """

    enabled = True

    def __init__(self, nest, registry=None, tracer=None):
        self.nest = nest
        self.tracer = tracer
        self._closure = ClosureEngine(nest)
        #: per entity: committed accesses as a sorted list of
        #: ``(seq, StepId)`` — the dependency chain the closure seeds.
        self._chains: dict[str, list] = {}
        self.checked = 0
        self.violations = 0
        self.cycle: list | None = None
        if registry is not None:
            registry.derive("monitor", self._publish)

    def _publish(self, registry) -> None:
        """Set the audit series from the counts above; the registry
        calls this before every read."""
        registry.put(
            "counter", "repro_audit_checked_commits_total",
            "Commits checked by the online monitor.", self.checked,
        )
        registry.put(
            "counter", "repro_audit_violations_total",
            "Correctability violations the monitor flagged.",
            self.violations,
        )

    # ------------------------------------------------------------------
    # sink interface
    # ------------------------------------------------------------------

    def on_commit(
        self,
        name: str,
        attempt: int,
        tick: int,
        entries: list[tuple[int, StepRecord]],
        cut_levels: dict[int, int],
        result: Any,
    ) -> None:
        """Fold one commit into the closure."""
        self.checked += 1
        if self.cycle is not None:
            # Terminal: the closure engine is pinned on its witness; we
            # keep counting commits but stop paying for closure work.
            return
        closure = self._closure
        k = closure.k
        ok = True
        for seq, record in entries:
            index = record.step.index
            cut = cut_levels.get(index - 1) if index > 0 else None
            if cut is not None and cut > k:
                cut = None  # out-of-depth breakpoints are vacuous
            closure.add_step(name, record.step, cut)
            if closure.cyclic:
                ok = False
                break
            # Seed the dependency chain: this step orders against its
            # committed same-entity neighbours.  Commits may land out of
            # seq order (a later-starting transaction can commit first),
            # so the chain is kept sorted and the step links both ways;
            # the closure's transitivity makes the superset harmless.
            chain = self._chains.setdefault(record.entity, [])
            position = len(chain)
            entry = (seq, record.step)
            if chain and chain[-1][0] > seq:
                position = bisect_left(chain, entry)
            if position > 0 and not closure.add_edge(
                chain[position - 1][1], record.step
            ):
                ok = False
                break
            if position < len(chain) and not closure.add_edge(
                record.step, chain[position][1]
            ):
                ok = False
                break
            insort(chain, entry)
        if ok:
            ok = closure.saturate()
        tracer = self.tracer
        if ok:
            if tracer is not None:
                tracer.emit(
                    "audit.check",
                    tick,
                    txn=name,
                    checked=self.checked,
                    edges=closure.edges_added,
                )
            return
        self.cycle = list(closure.cycle or [])
        self.violations += 1
        if tracer is not None:
            tracer.emit(
                "audit.violation",
                tick,
                txn=name,
                cycle=[repr(step) for step in self.cycle],
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def correctable(self) -> bool:
        return self.violations == 0

    def report(self) -> dict[str, Any]:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "correctable": self.correctable,
            "cycle": [repr(step) for step in (self.cycle or [])],
        }
