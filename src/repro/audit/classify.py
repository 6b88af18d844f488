"""Black-box classification of imported histories.

Given a portable :class:`~repro.audit.history.History` — ours or an
external system's — place every transaction against three criteria:

* **serializable** — classical conflict serializability over the
  serialization graph (:mod:`repro.analysis.checker` machinery), under
  the classical ``"rw"`` conflict model by default (two reads commute;
  updates conflict as writes).
* **multilevel** — Theorem 2 correctability under the history's
  declared k-nest and breakpoint levels (the flat 2-nest when the
  history declares none, where this axis degenerates to
  serializability).  Mixed-level external histories are exactly what
  k-nests model: the nest says which interleavings were *specified*,
  and the closure says whether the observed dependency order respects
  them.
* **snapshot_isolation** — a value-based black-box check: every read
  must see the transaction's start-snapshot (own writes aside), and two
  concurrent transactions must not both write one entity (first
  committer wins).  Update steps participate as writes; their read half
  follows the single-version value chain by construction and is not
  held to the snapshot rule.

Per-transaction verdicts come from iterated witness-cycle removal: the
transactions on a witness cycle are marked violating and removed, and
the remainder is re-checked until it is clean — so a history with one
rogue transaction indicts that transaction, not the whole run.  Every
witness cycle is kept, rendered as human-readable lines for the
``repro audit`` CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.audit.history import History
from repro.core.atomicity import check_correctability
from repro.analysis.checker import serialization_graph
from repro.errors import SpecificationError
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution
from repro.model.steps import StepKind

__all__ = ["AuditReport", "CRITERIA", "audit_history"]

#: The criteria a history can be required to meet (CLI ``--require``).
CRITERIA = ("multilevel", "serializable", "snapshot_isolation")

_MISSING = object()


@dataclass
class AuditReport:
    """Per-transaction verdicts plus the witnesses behind every ``False``."""

    transactions: tuple[str, ...]
    verdicts: dict[str, dict[str, bool]]
    witnesses: dict[str, list[str]] = field(default_factory=dict)
    conflicts: str = "rw"

    def passes(self, criterion: str) -> bool:
        if criterion not in CRITERIA:
            raise SpecificationError(
                f"unknown criterion {criterion!r}; choose from {CRITERIA}"
            )
        return all(v[criterion] for v in self.verdicts.values())

    @property
    def ok(self) -> dict[str, bool]:
        return {criterion: self.passes(criterion) for criterion in CRITERIA}

    def violating(self, criterion: str) -> list[str]:
        return sorted(
            t for t, v in self.verdicts.items() if not v[criterion]
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "transactions": list(self.transactions),
            "conflicts": self.conflicts,
            "ok": self.ok,
            "verdicts": {
                t: dict(v) for t, v in sorted(self.verdicts.items())
            },
            "witnesses": {
                axis: list(lines)
                for axis, lines in sorted(self.witnesses.items())
            },
        }


# ----------------------------------------------------------------------
# witness formatting
# ----------------------------------------------------------------------


def _format_txn_cycle(cycle: list[str]) -> str:
    return " -> ".join(cycle + [cycle[0]])


def _format_step_cycle(cycle: list) -> str:
    steps = [repr(s) for s in cycle]
    if steps and steps[0] != steps[-1]:
        steps.append(steps[0])
    return " -> ".join(steps)


# ----------------------------------------------------------------------
# the three axes
# ----------------------------------------------------------------------


def _serializability_axis(execution: Execution, conflicts: str):
    verdicts = {t: True for t in execution.transactions}
    witnesses: list[str] = []
    current = execution
    while current.records:
        cycle = serialization_graph(current, conflicts).find_cycle()
        if cycle is None:
            break
        for name in cycle:
            verdicts[name] = False
        witnesses.append(_format_txn_cycle(cycle))
        guilty = set(cycle)
        keep = [t for t in current.transactions if t not in guilty]
        if not keep:
            break
        current = current.restrict(keep)
    return verdicts, witnesses


def _multilevel_axis(history: History, execution: Execution, conflicts: str):
    nest = history.nest()
    verdicts = {t: True for t in execution.transactions}
    witnesses: list[str] = []
    current = execution
    while current.records:
        spec = spec_for_execution(current, nest, history.cut_levels)
        report = check_correctability(
            spec, current.dependency_edges(conflicts)
        )
        if report.correctable:
            break
        # The verdict is seed-independent, the witness is not: blame is
        # worded from the cycle over the transitive pair set.
        report = check_correctability(
            spec, current.dependency_pairs(conflicts)
        )
        cycle = report.closure.cycle or []
        guilty = {step.transaction for step in cycle}
        if not guilty:
            break
        for name in guilty:
            verdicts[name] = False
        witnesses.append(_format_step_cycle(cycle))
        keep = [t for t in current.transactions if t not in guilty]
        if not keep:
            break
        current = current.restrict(keep)
    return verdicts, witnesses


def _snapshot_axis(history: History, execution: Execution):
    records = execution.records
    txns = execution.transactions
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    #: per entity: record positions of its writes, ascending.
    writes_at: dict[str, list[int]] = {}
    for position, record in enumerate(records):
        name = record.step.transaction
        first.setdefault(name, position)
        last[name] = position
        if record.kind is not StepKind.READ:
            writes_at.setdefault(record.entity, []).append(position)
    verdicts = {t: True for t in txns}
    witnesses: list[str] = []

    def snapshot_value(entity: str, start: int):
        """The entity value a transaction starting at record ``start``
        snapshots: the latest write by a transaction wholly committed
        before the start, else the initial value."""
        positions = writes_at.get(entity, ())
        i = bisect_left(positions, start)
        while i:
            i -= 1
            record = records[positions[i]]
            if last[record.step.transaction] < start:
                return record.value_after
        return history.initial.get(entity, _MISSING)

    # Snapshot reads: each READ sees start-snapshot or an own write.
    for name in txns:
        own: dict[str, Any] = {}
        for record in execution.records_of(name):
            if record.kind is StepKind.READ:
                if record.entity in own:
                    expected = own[record.entity]
                else:
                    expected = snapshot_value(record.entity, first[name])
                if expected is not _MISSING and record.value_before != expected:
                    if verdicts[name]:
                        verdicts[name] = False
                    witnesses.append(
                        f"{record.step} read {record.entity}="
                        f"{record.value_before!r} but {name}'s snapshot "
                        f"holds {expected!r}"
                    )
            else:
                own[record.entity] = record.value_after
    # First committer wins: concurrent transactions must write disjoint
    # entity sets.  The later committer (greater last record) is the one
    # an SI system would have refused.  ``txns`` is in order of first
    # record, so one sweep keeps the writers still running when each
    # starts; the pairs are then reported in (rank, rank) order.
    writes: dict[str, set[str]] = {
        name: {
            r.entity
            for r in execution.records_of(name)
            if r.kind is not StepKind.READ
        }
        for name in txns
    }
    running: list[int] = []  # ranks of the writers not yet finished
    concurrent: list[tuple[int, int, set[str]]] = []
    for j, b in enumerate(txns):
        if not writes[b]:
            continue
        running = [i for i in running if last[txns[i]] > first[b]]
        for i in running:
            shared = writes[txns[i]] & writes[b]
            if shared:
                concurrent.append((i, j, shared))
        running.append(j)
    concurrent.sort(key=lambda pair: pair[:2])
    for i, j, shared in concurrent:
        a, b = txns[i], txns[j]
        loser = a if last[a] > last[b] else b
        verdicts[loser] = False
        witnesses.append(
            f"{a} and {b} both wrote {sorted(shared)} while "
            f"concurrent; first committer wins rejects {loser}"
        )
    return verdicts, witnesses


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def audit_history(history: History, conflicts: str = "rw") -> AuditReport:
    """Classify every transaction of ``history`` against the three
    criteria; raises :class:`SpecificationError` on a malformed history
    or conflict model (never anything else)."""
    if conflicts not in ("all", "rw"):
        raise SpecificationError(
            f"unknown conflict model {conflicts!r}; choose 'all' or 'rw'"
        )
    execution = history.validate()
    txns = tuple(execution.transactions)
    if not txns:
        return AuditReport(
            transactions=(), verdicts={}, witnesses={}, conflicts=conflicts
        )
    ser_verdicts, ser_witnesses = _serializability_axis(execution, conflicts)
    mla_verdicts, mla_witnesses = _multilevel_axis(
        history, execution, conflicts
    )
    si_verdicts, si_witnesses = _snapshot_axis(history, execution)
    verdicts = {
        name: {
            "serializable": ser_verdicts[name],
            "multilevel": mla_verdicts[name],
            "snapshot_isolation": si_verdicts[name],
        }
        for name in txns
    }
    witnesses = {}
    if ser_witnesses:
        witnesses["serializable"] = ser_witnesses
    if mla_witnesses:
        witnesses["multilevel"] = mla_witnesses
    if si_witnesses:
        witnesses["snapshot_isolation"] = si_witnesses
    return AuditReport(
        transactions=txns,
        verdicts=verdicts,
        witnesses=witnesses,
        conflicts=conflicts,
    )
