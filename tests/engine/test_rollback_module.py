"""Unit and property tests for the cascade/undo helpers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rollback import cascade_closure, undo_plan
from repro.model import StepId, StepKind, StepRecord


def entry(txn, idx, entity, kind, before, after):
    return (
        (txn, 0),
        StepRecord(StepId(txn, idx), entity, kind, before, after),
    )


class TestCascadeClosure:
    def test_reader_after_write_joins(self):
        log = [
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
            entry("r", 0, "X", StepKind.READ, 1, 1),
        ]
        assert cascade_closure(log, {("w", 0): 0}) == {("w", 0): 0, ("r", 0): 0}

    def test_reader_before_write_stays(self):
        log = [
            entry("r", 0, "X", StepKind.READ, 0, 0),
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
        ]
        assert cascade_closure(log, {("w", 0): 0}) == {("w", 0): 0}

    def test_aborted_read_taints_nothing(self):
        log = [
            entry("victim", 0, "X", StepKind.READ, 0, 0),
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
        ]
        assert cascade_closure(log, {("victim", 0): 0}) == {("victim", 0): 0}

    def test_transitive_chain(self):
        log = [
            entry("a", 0, "X", StepKind.WRITE, 0, 1),
            entry("b", 0, "X", StepKind.READ, 1, 1),
            entry("b", 1, "Y", StepKind.WRITE, 0, 2),
            entry("c", 0, "Y", StepKind.READ, 2, 2),
        ]
        assert cascade_closure(log, {("a", 0): 0}) == {
            ("a", 0): 0, ("b", 0): 0, ("c", 0): 0
        }

    def test_write_write_joins(self):
        log = [
            entry("a", 0, "X", StepKind.WRITE, 0, 1),
            entry("b", 0, "X", StepKind.WRITE, 1, 2),
        ]
        assert cascade_closure(log, {("a", 0): 0}) == {("a", 0): 0, ("b", 0): 0}

    def test_empty_seed(self):
        log = [entry("a", 0, "X", StepKind.WRITE, 0, 1)]
        assert cascade_closure(log, {}) == {}


def segment_starts(**starts):
    """A ``rewind`` for transactions whose segments begin at the given
    step indices (every transaction's first segment begins at 0)."""

    def rewind(key, index):
        return max(
            (b for b in starts.get(key[0], ()) if b <= index), default=0
        )

    return rewind


def joins_of(events):
    return [
        (f["entity"], (f["txn"], f["txn_attempt"]),
         (f["cause"], f["cause_attempt"]))
        for _kind, f in events
    ]


def recording(events):
    return lambda kind, **fields: events.append((kind, fields))


class TestRewind:
    def test_joiner_rewinds_to_its_segment_start(self):
        log = [
            entry("r", 0, "P", StepKind.WRITE, 0, 1),
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
            entry("r", 1, "X", StepKind.READ, 1, 1),
            entry("r", 2, "Q", StepKind.WRITE, 0, 1),
        ]
        points = cascade_closure(
            log, {("w", 0): 0}, rewind=segment_starts(r=(1,))
        )
        assert points == {("w", 0): 0, ("r", 0): 1}

    def test_victim_point_keeps_its_prefix(self):
        log = [
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
            entry("r", 0, "X", StepKind.READ, 1, 1),
            entry("w", 1, "Y", StepKind.WRITE, 0, 1),
        ]
        # Only w's step 1 is undone: r read the kept write and stays.
        points = cascade_closure(
            log, {("w", 0): 1}, rewind=segment_starts(w=(1,))
        )
        assert points == {("w", 0): 1}

    def test_joiner_lowered_twice_is_reported_twice(self):
        log = [
            entry("w", 0, "X", StepKind.WRITE, 0, 1),
            entry("w", 1, "Y", StepKind.WRITE, 0, 1),
            entry("r", 0, "Y", StepKind.READ, 1, 1),
            entry("r", 1, "Z", StepKind.WRITE, 0, 1),
            entry("r", 2, "X", StepKind.READ, 1, 1),
        ]
        events = []
        points = cascade_closure(
            log, {("w", 0): 0}, emit=recording(events),
            rewind=segment_starts(r=(2,)),
        )
        assert points == {("w", 0): 0, ("r", 0): 0}
        # X is visited first and pulls r back to step 2; Y then lowers
        # r to step 0 and reports it again.
        assert joins_of(events) == [
            ("X", ("r", 0), ("w", 0)),
            ("Y", ("r", 0), ("w", 0)),
        ]
        events.clear()
        assert set(cascade_closure(
            log, {("w", 0): 0}, emit=recording(events)
        )) == {("w", 0), ("r", 0)}
        assert joins_of(events) == [("X", ("r", 0), ("w", 0))]


class TestUndoPlan:
    def test_newest_first(self):
        log = [
            entry("a", 0, "X", StepKind.WRITE, 0, 1),
            entry("a", 1, "Y", StepKind.WRITE, 5, 6),
        ]
        plan = undo_plan(log, {("a", 0)})
        assert plan == [("Y", 5), ("X", 0)]

    def test_reads_skipped(self):
        log = [
            entry("a", 0, "X", StepKind.READ, 1, 1),
            entry("a", 1, "X", StepKind.WRITE, 1, 2),
        ]
        assert undo_plan(log, {("a", 0)}) == [("X", 1)]


def _cascade_closure_reference(entries, seeds):
    """The pre-hoist implementation (per-entity index rebuilt inside the
    fixpoint loop): kept as the oracle for the hoisted fast path."""
    cascade = set(seeds)
    changed = True
    while changed:
        changed = False
        per_entity = {}
        for key, record in entries:
            per_entity.setdefault(record.entity, []).append((key, record))
        for sequence in per_entity.values():
            tainted = False
            for key, record in sequence:
                if tainted and key not in cascade:
                    cascade.add(key)
                    changed = True
                if key in cascade and record.kind is not StepKind.READ:
                    tainted = True
    return cascade


@given(seed=st.integers(0, 5_000), n=st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_cascade_closure_matches_pre_hoist_reference(seed, n):
    """Regression for the index hoist: the per-entity index depends only
    on the log, so building it once must not change any closure."""
    rng = random.Random(seed)
    log = []
    counters: dict[str, int] = {}
    for _ in range(n):
        txn = f"t{rng.randrange(6)}"
        idx = counters.get(txn, 0)
        counters[txn] = idx + 1
        kind = rng.choice([StepKind.READ, StepKind.WRITE, StepKind.UPDATE])
        log.append(entry(txn, idx, f"x{rng.randrange(5)}", kind, 0, 1))
    seeds = {
        (f"t{rng.randrange(6)}", 0) for _ in range(rng.randrange(3))
    }
    points = cascade_closure(log, dict.fromkeys(seeds, 0))
    assert set(points) == _cascade_closure_reference(log, seeds)
    assert set(points.values()) <= {0}


def _segment_cascade_reference(entries, seeds, rewind, joins):
    """The segment unit's own fixpoint from before the two recovery
    units shared one (``Engine._abort_segment``, committed entries
    left out): kept as the oracle for ``cascade_closure(rewind=...)``.
    Appends ``(entity, joiner, cause)`` to ``joins`` per report."""
    infinity = 1 << 60
    invalid = dict(seeds)
    changed = True
    while changed:
        changed = False
        per_entity = {}
        for key, record in entries:
            per_entity.setdefault(record.entity, []).append((key, record))
        for entity, sequence in per_entity.items():
            tainted = False
            tainter = None
            for key, record in sequence:
                undone = (
                    key in invalid and record.step.index >= invalid[key]
                )
                if tainted and not undone:
                    point = rewind(key, record.step.index)
                    invalid[key] = min(invalid.get(key, infinity), point)
                    changed = True
                    undone = True
                    if tainter is not None:
                        joins.append((entity, key, tainter))
                if undone and record.kind is not StepKind.READ:
                    tainted = True
                    tainter = key
    return invalid


@given(seed=st.integers(0, 5_000), n=st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_segment_cascade_matches_the_abort_segment_reference(seed, n):
    """Random logs, random segment cuts, random victims cut anywhere:
    the shared fixpoint with ``rewind`` gives the segment unit's
    points and reports the same joins, in the same order."""
    rng = random.Random(seed)
    log = []
    counters: dict[str, int] = {}
    for _ in range(n):
        txn = f"t{rng.randrange(6)}"
        idx = counters.get(txn, 0)
        counters[txn] = idx + 1
        kind = rng.choice([StepKind.READ, StepKind.WRITE, StepKind.UPDATE])
        log.append(entry(txn, idx, f"x{rng.randrange(5)}", kind, 0, 1))
    rewind = segment_starts(**{
        f"t{i}": sorted(rng.sample(range(1, 8), rng.randrange(4)))
        for i in range(6)
    })
    seeds = {}
    for _ in range(rng.randrange(1, 4)):
        key = (f"t{rng.randrange(6)}", 0)
        seeds[key] = rewind(key, rng.randrange(counters.get(key[0], 0) + 1))
    events = []
    points = cascade_closure(
        log, seeds, emit=recording(events), rewind=rewind
    )
    joins = []
    assert points == _segment_cascade_reference(log, seeds, rewind, joins)
    assert joins_of(events) == joins


@given(seed=st.integers(0, 5_000), n=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_undo_restores_exactly_the_pre_cascade_values(seed, n):
    """Replay a random single-attempt-per-transaction log against real
    values; undoing a random victim's cascade must restore every entity
    to the value it had just before the cascade's first write."""
    rng = random.Random(seed)
    entities = {f"x{i}": 0 for i in range(4)}
    values = dict(entities)
    log = []
    counters: dict[str, int] = {}
    for _ in range(n):
        txn = f"t{rng.randrange(5)}"
        idx = counters.get(txn, 0)
        counters[txn] = idx + 1
        name = f"x{rng.randrange(4)}"
        kind = rng.choice([StepKind.READ, StepKind.WRITE, StepKind.UPDATE])
        before = values[name]
        after = before if kind is StepKind.READ else rng.randrange(100)
        values[name] = after
        log.append(entry(txn, idx, name, kind, before, after))

    victim = (f"t{rng.randrange(5)}", 0)
    cascade = set(cascade_closure(log, {victim: 0}))
    # Apply the undo plan to the final values.
    undone = dict(values)
    for name, value in undo_plan(log, cascade):
        undone[name] = value
    # Oracle: replay the log skipping every cascaded record.
    oracle = {f"x{i}": 0 for i in range(4)}
    for key, record in log:
        if key in cascade:
            continue
        if record.kind is not StepKind.READ:
            oracle[record.entity] = record.value_after
    assert undone == oracle
