"""One seeding convention for Theorem 2, and one dependency pass.

Every verdict is decided from the *generating* edges of ``<=_e``
(:meth:`Execution.dependency_edges`), derived once per audit; only a
history already found in violation is re-checked from the transitive
pair set, because blame is "the transactions on the witness cycle" and
cycles over pairs are shorter.  The closure is a unique fixpoint, so
the seed cannot move a verdict — these tests hold that, and hold every
multilevel output to what the pair-seeded implementation it replaced
produced: the reference copies below are that implementation, kept
verbatim.  The serializability axis is held to a brute-force oracle
(a transaction is non-serializable iff it reaches itself through
another one) and to the iterated removal it replaced.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import History, HistoryStep, audit_history, load_history
from repro.core import check_correctability
from repro.analysis.checker import serialization_graph
from repro.model import Execution, StepKind
from repro.model.breakpoints import spec_for_execution

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
ENTITIES = ["x", "y", "z"]


# ----------------------------------------------------------------------
# reference copies (the implementation this convention replaced)
# ----------------------------------------------------------------------


def reference_dependency_edges(execution: Execution, conflicts: str):
    """``Execution.dependency_edges`` as it was before the conflict fold
    moved into one place."""
    edges = []
    last_of_txn = {}
    last_access = {}
    last_write = {}
    reads_since_write = {}
    for record in execution.records:
        step = record.step
        prev_t = last_of_txn.get(step.transaction)
        if prev_t is not None:
            edges.append((prev_t, step))
        if conflicts == "all":
            prev_e = last_access.get(record.entity)
            if prev_e is not None and prev_e != prev_t:
                edges.append((prev_e, step))
        else:
            if record.kind is StepKind.READ:
                prev_w = last_write.get(record.entity)
                if prev_w is not None and prev_w != prev_t:
                    edges.append((prev_w, step))
                reads_since_write.setdefault(record.entity, []).append(step)
            else:
                prev_w = last_write.get(record.entity)
                if prev_w is not None and prev_w != prev_t:
                    edges.append((prev_w, step))
                for reader in reads_since_write.get(record.entity, []):
                    if reader not in (prev_t, step):
                        edges.append((reader, step))
                last_write[record.entity] = step
                reads_since_write[record.entity] = []
        last_of_txn[step.transaction] = step
        last_access[record.entity] = step
    return edges


def reference_multilevel_axis(history: History, conflicts: str):
    """The multilevel axis seeded from transitive pairs throughout."""
    execution = history.execution()
    nest = history.nest()
    verdicts = {t: True for t in execution.transactions}
    witnesses = []
    current = execution
    while current.records:
        spec = spec_for_execution(current, nest, history.cut_levels)
        report = check_correctability(
            spec, current.dependency_pairs(conflicts)
        )
        if report.correctable:
            break
        cycle = report.closure.cycle or []
        guilty = {step.transaction for step in cycle}
        if not guilty:
            break
        for name in guilty:
            verdicts[name] = False
        steps = [repr(s) for s in cycle]
        if steps and steps[0] != steps[-1]:
            steps.append(steps[0])
        witnesses.append(" -> ".join(steps))
        keep = [t for t in current.transactions if t not in guilty]
        if not keep:
            break
        current = current.restrict(keep)
    return verdicts, witnesses


def reference_serializability_axis(history: History, conflicts: str):
    """Iterated witness-cycle removal: the serializability axis before
    one strongly-connected-component pass replaced it."""
    current = history.execution()
    verdicts = {t: True for t in current.transactions}
    while current.records:
        cycle = serialization_graph(current, conflicts).find_cycle()
        if cycle is None:
            break
        for name in cycle:
            verdicts[name] = False
        keep = [t for t in current.transactions if verdicts[t]]
        if not keep:
            break
        current = current.restrict(keep)
    return verdicts


def conflict_graph(history: History, conflicts: str) -> dict:
    """Brute force, from the definition: ``t -> u`` when a step of ``t``
    precedes a conflicting step of ``u`` on the same entity (under
    ``"rw"`` two reads commute)."""
    execution = history.execution()
    records = execution.records
    succ = {t: set() for t in execution.transactions}
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            both_read = a.kind is StepKind.READ and b.kind is StepKind.READ
            if (a.entity == b.entity
                    and a.step.transaction != b.step.transaction
                    and (conflicts == "all" or not both_read)):
                succ[a.step.transaction].add(b.step.transaction)
    return succ


def reaches(succ: dict, source: str) -> set:
    seen: set = set()
    todo = [source]
    while todo:
        for head in succ[todo.pop()]:
            if head not in seen:
                seen.add(head)
                todo.append(head)
    return seen


# ----------------------------------------------------------------------
# random interleaved histories
# ----------------------------------------------------------------------


@st.composite
def histories(draw):
    """Random reads/updates of a few entities by 3-5 transactions in a
    2-nest (``depth`` 0) or 3-nest (``depth`` 1), random declared cuts
    (one level past the nest depth included: vacuous), performed in a
    random interleaving.  Nothing schedules them, so most violate."""
    depth = draw(st.integers(0, 1))
    names = [f"t{i}" for i in range(draw(st.integers(3, 5)))]
    paths = {
        t: tuple(draw(st.sampled_from(["a", "b"])) for _ in range(depth))
        for t in names
    }
    pending = {}
    cut_levels = {}
    for t in names:
        accesses = draw(st.lists(
            st.tuples(st.sampled_from(ENTITIES),
                      st.sampled_from(["read", "update"])),
            min_size=2, max_size=4,
        ))
        pending[t] = list(enumerate(accesses))
        cuts = {
            gap: draw(st.integers(2, depth + 3))
            for gap in range(len(accesses) - 1)
            if draw(st.booleans())
        }
        if cuts:
            cut_levels[t] = cuts
    values = {e: 0 for e in ENTITIES}
    steps = []
    commit_order = []
    while pending:
        t = draw(st.sampled_from(sorted(pending)))
        index, (entity, kind) = pending[t].pop(0)
        before = values[entity]
        values[entity] = before + (kind == "update")
        steps.append(HistoryStep(
            len(steps), t, index, entity, kind, before, values[entity]
        ))
        if not pending[t]:
            del pending[t]
            commit_order.append(t)
    return History(
        commit_order=tuple(commit_order),
        steps=tuple(steps),
        cut_levels=cut_levels,
        initial={e: 0 for e in ENTITIES},
        depth=depth,
        paths=paths,
    )


@settings(max_examples=150, deadline=None)
@given(history=histories(), conflicts=st.sampled_from(["rw", "all"]))
def test_edges_and_pairs_decide_alike(history, conflicts):
    execution = history.execution()
    assert execution.dependency_edges(conflicts) == \
        reference_dependency_edges(execution, conflicts)
    spec = history.spec()
    from_edges = check_correctability(
        spec, execution.dependency_edges(conflicts)
    )
    from_pairs = check_correctability(
        spec, execution.dependency_pairs(conflicts)
    )
    assert from_edges.correctable == from_pairs.correctable
    if from_edges.correctable:
        assert from_edges.closure.pairs() == from_pairs.closure.pairs()
    report = audit_history(history, conflicts)
    verdicts, witnesses = reference_multilevel_axis(history, conflicts)
    assert {
        t: v["multilevel"] for t, v in report.verdicts.items()
    } == verdicts
    assert report.witnesses.get("multilevel", []) == witnesses


@settings(max_examples=150, deadline=None)
@given(history=histories(), conflicts=st.sampled_from(["rw", "all"]))
def test_serializability_is_lying_on_a_cycle(history, conflicts):
    """A transaction is non-serializable iff it reaches itself through
    another transaction; every witness line is a closed path of the
    conflict graph, and the lines name exactly the violators."""
    succ = conflict_graph(history, conflicts)
    on_cycle = {t for t in succ if t in reaches(succ, t)}
    report = audit_history(history, conflicts)
    assert set(report.violating("serializable")) == on_cycle
    named = set()
    for line in report.witnesses.get("serializable", []):
        cycle = line.split(" -> ")
        assert len(cycle) >= 3 and cycle[0] == cycle[-1], line
        assert all(b in succ[a] for a, b in zip(cycle, cycle[1:])), line
        named.update(cycle)
    assert named == on_cycle
    # Iterated removal blamed a subset: what it cleared was on a cycle.
    removal = reference_serializability_axis(history, conflicts)
    assert {t for t, ok in removal.items() if not ok} <= on_cycle


# ----------------------------------------------------------------------
# goldens and the clean path
# ----------------------------------------------------------------------


with open(os.path.join(HERE, "golden_reports.json"), encoding="utf-8") as _fh:
    #: ``"<fixture>:<conflicts>"`` -> ``AuditReport.to_dict()`` as the
    #: pair-seeded implementation produced it.
    GOLDEN = json.load(_fh)


def test_every_fixture_has_a_golden():
    names = {
        name[:-len(".json")] for name in os.listdir(FIXTURES)
        if name.endswith(".json")
    }
    assert set(GOLDEN) == {
        f"{name}:{conflicts}" for name in names for conflicts in ("rw", "all")
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_fixture_report_matches_golden(key):
    """``AuditReport.to_dict()`` — verdict map and every witness line —
    as the pair-seeded implementation produced it."""
    name, conflicts = key.split(":")
    history = load_history(os.path.join(FIXTURES, f"{name}.json"))
    assert audit_history(history, conflicts).to_dict() == GOLDEN[key]


def test_mixed_level_bad_witness_is_worded_from_pairs():
    """Over generating edges the cycle would read
    ``t1[1] -> t2[0] -> t2[1] -> t1[1]``."""
    history = load_history(os.path.join(FIXTURES, "mixed-level-bad.json"))
    assert audit_history(history).witnesses["multilevel"] == [
        "t1[1] -> t2[0] -> t1[1]"
    ]


@pytest.fixture(scope="module")
def interleaved_capture(tmp_path_factory):
    """200 commits captured from a served ``mla-detect`` run that
    aborted and crossed at level-2 breakpoints: correctable, not
    serializable."""
    from repro.service import ServiceConfig, TransactionService
    from repro.workloads.traffic import TrafficConfig, traffic_submissions

    path = str(tmp_path_factory.mktemp("capture") / "history.jsonl")

    async def capture():
        service = TransactionService(ServiceConfig(
            scheduler="mla-detect", nest_depth=1, history_path=path,
        ))
        submissions = traffic_submissions(
            TrafficConfig(transactions=200, contention=0.3, seed=0)
        )
        for start in range(0, len(submissions), 16):
            responses = await asyncio.gather(*(
                service.submit(s) for s in submissions[start:start + 16]
            ))
            assert all(r["ok"] for r in responses)
        await service.drain()
        service.history.close()
        return service.engine.metrics.aborts

    assert asyncio.run(capture()) > 0  # the run really interleaved
    history = load_history(path)
    assert len(history.commit_order) == 200
    return history


def test_clean_history_never_builds_a_pair(interleaved_capture, monkeypatch):
    """A correctable history — an auditor's common case — is decided
    from generating edges alone."""

    def no_pairs(self, conflicts="all"):
        raise AssertionError("dependency_pairs built on the clean path")

    monkeypatch.setattr(Execution, "dependency_pairs", no_pairs)
    report = audit_history(interleaved_capture)
    assert report.passes("multilevel")
    assert not report.passes("serializable")  # level-2 crossings happened


def test_one_dependency_pass_serves_every_axis(
    interleaved_capture, monkeypatch
):
    """The edges are derived once and no axis restricts the execution,
    though the history is not serializable: no cycle is removed and no
    survivor re-derived."""
    derive = Execution.dependency_edges
    calls = []

    def counted(self, conflicts="all"):
        calls.append(conflicts)
        return derive(self, conflicts)

    def no_restrict(self, transactions):
        raise AssertionError("an axis restricted the execution")

    monkeypatch.setattr(Execution, "dependency_edges", counted)
    monkeypatch.setattr(Execution, "restrict", no_restrict)
    report = audit_history(interleaved_capture)
    assert report.passes("multilevel")
    assert report.violating("serializable")
    assert calls == ["rw"]
