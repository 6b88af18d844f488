"""The database engine: transaction attempts, undo, cascades, commits.

The engine drives transaction programs under a pluggable scheduler on a
logical clock.  One tick = one scheduling decision for one transaction
(perform a step, wait, commit, or trigger a rollback).  Randomness is a
seeded generator, so runs are fully replayable.

Responsibilities split:

* the **scheduler** decides admission, waiting and victims;
* the **engine** owns values, the undo information, *cascading aborts*
  (any attempt that read — or overwrote — an aborted attempt's write is
  rolled back too) and the commit rule (an attempt may only commit after
  every attempt whose uncommitted writes it consumed has committed).

Rolled-back attempts resume after a randomised backoff.  The paper lets
the *unit of recovery* sit anywhere between a single atomicity segment
and the whole transaction; the engine offers both ends
(``recovery="transaction"``, the default, restarts every affected
attempt from scratch; ``"segment"`` rewinds each to a segment start) as
two settings of one rollback rule.

The run's final, committed-only execution is re-validated against the
Section 3.1 consistency requirements before being returned — undo and
cascade bugs cannot silently corrupt experiment results.
"""

from __future__ import annotations

import copy
import heapq
import io
import math
import pickle
import random
from array import array
from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, NamedTuple

from repro.core.interleaving import InterleavingSpec
from repro.audit.history import NULL_HISTORY
from repro.durability.wal import NULL_WAL
from repro.core.nests import KNest
from repro.engine.cycles import WaitsFor
from repro.engine.metrics import Metrics
from repro.engine.rollback import cascade_closure
from repro.engine.schedulers.base import Action, Decision, Scheduler
from repro.errors import EngineError
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution, canonical_digest
from repro.model.programs import TransactionProgram
from repro.model.steps import StepId, StepKind, StepRecord
from repro.model.system import _LiveTransaction
from repro.model.variables import EntityStore
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Commit", "Engine", "EngineResult", "TxnState", "seq_ordered",
    "unpack_commit",
]

#: The attention pick's order: arrived transactions are kept sorted by it.
_by_name = attrgetter("name")

#: The engine's registry series, set from :class:`Metrics` fields whenever
#: the registry is read: (family kind, series, help, field).
_SERIES = (
    ("counter", "repro_commits_total", "Committed transactions.", "commits"),
    ("counter", "repro_aborts_total", "Aborted attempts (full restarts).",
     "aborts"),
    ("counter", "repro_restarts_total", "Fresh attempts after a rollback.",
     "restarts"),
    ("counter", "repro_waits_total", "WAIT decisions on pending accesses.",
     "waits"),
    ("counter", "repro_commit_waits_total",
     "Finished transactions told to wait before committing.", "commit_waits"),
    ("counter", "repro_steps_total", "Steps performed against the store.",
     "steps_performed"),
    ("counter", "repro_steps_undone_total", "Before-images restored.",
     "steps_undone"),
    ("counter", "repro_partial_rollbacks_total",
     "Segment-unit rollbacks that kept a prefix.", "partial_rollbacks"),
    ("histogram", "repro_commit_latency_ticks",
     "Arrival-to-commit latency in ticks.", "latency_histogram"),
    ("histogram", "repro_commit_wait_count",
     "WAIT decisions absorbed per committed transaction.", "wait_histogram"),
    ("gauge", "repro_ticks", "Engine logical-clock high-water mark.", "ticks"),
)

#: A broken waits-for cycle's cause -> the rollback's reason and the
#: ``Metrics.detail`` count a series reports it under.
_CYCLE_CAUSES = {
    "lock": ("2pl deadlock", "lock_deadlocks"),
    "breakpoint-wait": ("breakpoint-wait cycle", None),
    "retention": ("retention deadlock", None),
    "commit-dependency": ("commit-dependency cycle", "engine_deadlocks"),
}


@dataclass(slots=True)
class TxnState:
    """Engine-side state of one uncommitted transaction across attempts.

    A commit folds what is left worth keeping into the transaction's
    :class:`Commit` record and drops this state.
    """

    name: str
    program: TransactionProgram
    arrival_tick: int
    live: _LiveTransaction
    attempt: int = 0
    # Rewinds under either unit of recovery; ``attempt`` counts the
    # restarts among them.
    rollbacks: int = 0
    attempt_start_tick: int = 0
    wake_tick: int = 0
    deps: set[tuple[str, int]] = field(default_factory=set)
    # WAIT decisions received across all attempts (admission + commit),
    # feeding the per-transaction wait histogram at commit time.
    waits: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.attempt)

    @property
    def priority(self) -> int:
        """Lower = older = higher priority (victims are chosen young)."""
        return self.arrival_tick

    @property
    def finished(self) -> bool:
        return self.live.finished

    @property
    def steps_taken(self) -> int:
        return self.live.steps_taken

    def at_breakpoint(self, level: int) -> bool:
        """Whether the gap right after the last performed step is a
        breakpoint of ``B(level)`` — i.e. whether a transaction related
        at ``level`` may be allowed past this transaction's last step.

        A finished transaction is past all its steps, and a transaction
        that has not taken a step exposes nothing to interrupt; both
        count as 'at a breakpoint'.
        """
        if self.finished or self.live.steps_taken == 0:
            return True
        declared = self.live.cut_levels.get(self.live.steps_taken - 1)
        return declared is not None and declared <= level


@dataclass
class _LogEntry:
    seq: int
    key: tuple[str, int]
    record: StepRecord


class Commit(NamedTuple):
    """What a committed transaction leaves behind, packed into one
    record (see ``_Packer``): its place in history — the attempt that
    committed and that attempt's accesses, each row ``(seq, index,
    entity, kind, before, after)`` with ``kind`` a :class:`StepKind`
    value — and what its envelope reports."""

    name: str
    attempt: int
    rows: list[tuple]
    arrival_tick: int
    commit_tick: int
    rollbacks: int
    waits: int
    result: Any
    cut_levels: dict[int, int]

    @property
    def latency(self) -> int:
        """Arrival-to-commit latency in ticks."""
        return self.commit_tick - self.arrival_tick


class _Packer:
    """Packs a committed transaction's :class:`Commit` fields, as a
    plain tuple, into one immutable ``bytes``.  The pickler's memo is
    off, so the bytes depend only on the values, never on which copy of
    an equal string a row holds: a replayed or restored engine packs the
    same commit to the same bytes, and its snapshot pickles them
    unchanged.  One pickler per engine, reused: building one costs twice
    what a commit's packing does."""

    __slots__ = ("_buffer", "_pickler")

    def __init__(self) -> None:
        self._buffer = io.BytesIO()
        self._pickler = pickle.Pickler(self._buffer, 5)
        self._pickler.fast = True

    def __call__(self, commit: tuple) -> bytes:
        buffer = self._buffer
        buffer.seek(0)
        buffer.truncate()
        self._pickler.dump(commit)
        return buffer.getvalue()


def unpack_commit(packed: bytes) -> Commit:
    """A committed-log record back as its :class:`Commit`."""
    return Commit._make(pickle.loads(packed))


#: How ``_Packer``'s bytes start when the name is shorter than 256
#: bytes: ``PROTO 5``, an 8-byte ``FRAME`` length, the tuple's ``MARK``,
#: and ``SHORT_BINUNICODE`` with the name's 1-byte length.
_NAME_AT = 14


def packed_name(packed) -> str:
    """The transaction name of a packed record (``bytes`` or a
    ``memoryview``), read off its front without unpacking the rest: a
    restart reads one per commit the records file holds."""
    if packed[2] == 0x95 and packed[11] == 0x28 and packed[12] == 0x8C:
        name = packed[_NAME_AT:_NAME_AT + packed[13]]
        return str(name, "utf-8", "surrogatepass")
    return unpack_commit(packed).name


#: Above every step's seq: the floor past the last record.
_NO_SEQ = 1 << 62


def seq_ordered(
    records: Sequence[bytes], groups: Iterable[Iterable[tuple]]
) -> Iterator[tuple]:
    """The rows of ``groups`` in seq order.  There is one group per
    record of ``records``, in the same (commit) order, and each row is
    a tuple led by its step's seq, a group's in seq order.  Commits
    interleave their rows only as far as they overlapped in time, so a
    row is yielded as soon as no later record starts below it (each
    record's first seq is read up front, in one pass over ``records``):
    the merge holds the rows of overlapping commits, not the whole
    history."""
    floors = array("q", (
        rows[0][0] if (rows := unpack_commit(packed).rows) else _NO_SEQ
        for packed in records
    ))
    floors.append(_NO_SEQ)
    for position in range(len(floors) - 2, -1, -1):
        if floors[position + 1] < floors[position]:
            floors[position] = floors[position + 1]
    heap: list[tuple] = []
    for position, group in enumerate(groups):
        for row in group:
            heapq.heappush(heap, row)
        floor = floors[position + 1]
        while heap and heap[0][0] < floor:
            yield heapq.heappop(heap)


class _LogView(Sequence):
    """One column of an engine's committed log, in commit order: the
    packed records (:attr:`Engine.records`) or the names
    (:attr:`Engine.commit_order`).  A live view — do not mutate.  The
    positions :meth:`Engine.retire` handed to a records file are read
    back from it, a frame at a time when iterated, and ``read`` turns
    each packed record into the column's item; the rest are in memory.
    It compares equal to any sequence of the same items, and pickles
    and copies as a list."""

    __slots__ = ("_engine", "_tail", "_read")

    def __init__(self, engine: "Engine", tail: str, read) -> None:
        self._engine = engine
        self._tail = tail  # the engine attribute holding the rest
        self._read = read

    def __len__(self) -> int:
        engine = self._engine
        return engine._retired + len(getattr(engine, self._tail))

    def _range(self, start: int, stop: int) -> Iterator:
        engine = self._engine
        retired = engine._retired
        if start < retired:
            entries = engine._source.entries(start, min(stop, retired))
            yield from map(self._read, entries)
        if stop > retired:
            tail = getattr(engine, self._tail)
            yield from tail[max(start - retired, 0):stop - retired]

    def __iter__(self) -> Iterator:
        return self._range(0, len(self))

    def __getitem__(self, index):
        engine = self._engine
        retired = engine._retired
        if type(index) is int and index >= retired:
            return getattr(engine, self._tail)[index - retired]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return list(self)[index]
            if start >= retired:
                tail = getattr(engine, self._tail)
                return tail[start - retired:stop - retired]
            return list(self._range(start, max(start, stop)))
        position = index + len(self) if index < 0 else index
        if not 0 <= position < len(self):
            raise IndexError("committed log index out of range")
        if position >= retired:
            return getattr(engine, self._tail)[position - retired]
        return self._read(engine._source.entry(position))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (list, (list(self),))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class EngineResult:
    """Outcome of an engine run.

    ``partial`` marks a budgeted (open-system) run stopped before every
    transaction committed: ``execution`` then contains the committed
    records *plus* the live prefixes of still-running attempts — the
    paper's world of "very long, possibly even infinite transactions"
    observed mid-flight.
    """

    execution: Execution
    cut_levels: dict[str, dict[int, int]]
    results: dict[str, Any]
    metrics: Metrics
    commit_order: list[str]
    partial: bool = False

    def spec(self, nest: KNest) -> InterleavingSpec:
        """The interleaving specification of the committed execution."""
        return spec_for_execution(self.execution, nest, self.cut_levels)

    def history_digest(self) -> str:
        """SHA-256 over the canonical committed history.

        Two runs produced the *same execution* exactly when their digests
        agree: the digest covers every performed record in order —
        transaction, step index, entity, access kind and both values —
        so it is the one-line witness the service/library differential
        compares (bit-identical histories, not just equal aggregates).
        """
        return canonical_digest(
            (r.step.transaction, r.step.index, r.entity, r.kind.value,
             r.value_before, r.value_after)
            for r in self.execution.records
        )

    def to_dict(self) -> dict[str, Any]:
        """A stable, JSON-safe serialization of the outcome.

        This is the one encoding shared by ``repro run --json`` and the
        service result envelopes — not an ad-hoc per-caller dict.  Cut
        levels use string gap keys (JSON objects cannot key on ints) and
        non-finite metric values (the zero-commit ``abort_rate``) map to
        ``None`` so the output is strict JSON.
        """
        metrics = {
            key: (
                None
                if isinstance(value, float) and not math.isfinite(value)
                else value
            )
            for key, value in self.metrics.summary().items()
        }
        return {
            "partial": self.partial,
            "commit_order": list(self.commit_order),
            "results": dict(self.results),
            "cut_levels": {
                txn: {str(gap): level for gap, level in sorted(cuts.items())}
                for txn, cuts in sorted(self.cut_levels.items())
            },
            "steps": len(self.execution.records),
            "history_sha256": self.history_digest(),
            "metrics": metrics,
        }


class Engine:
    """Run transaction programs under a concurrency control.

    Parameters
    ----------
    programs:
        The transaction programs (names must be unique).
    initial_values:
        Entity initial values.
    scheduler:
        The concurrency control; see :mod:`repro.engine.schedulers`.
    seed:
        Seed for the fair random pick among runnable transactions.
    arrivals:
        Optional per-transaction arrival ticks (default: all at tick 0).
    max_ticks:
        Safety valve against livelock bugs.
    backoff:
        Base backoff (in ticks) after a rollback; the actual delay is
        uniform in ``[1, backoff * attempts]``.
    history, wal, tracer:
        The sinks of the engine's *decision stream* (DESIGN.md §4e):
        each declares the decision kinds it ``reads`` — a
        :class:`repro.audit.HistorySink` the commits, a
        :class:`repro.durability.EngineWal` the seven kinds its check
        frames hash, a :class:`repro.obs.Tracer` everything — and a
        decision is built once, by :meth:`_emit`, only when some given
        sink reads its kind, and handed to those in this order.  No
        sink consumes ``self.rng``: a run is bit-identical whatever is
        attached.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`.  Never written
        while the engine runs: the ``scheduler=``-labeled series are
        set from :attr:`metrics` whenever the registry is read.

    Where the engine's time goes is measured from outside
    (:mod:`repro.obs.profile`): timing proxies are swapped in, on the
    instances, around the scheduler's hooks, :meth:`_rollback` and the
    closure window's calls, so the engine looks each of them up at
    every call and binds none early.
    """

    def __init__(
        self,
        programs: Iterable[TransactionProgram],
        initial_values: Mapping[str, Any],
        scheduler: Scheduler,
        seed: int = 0,
        arrivals: Mapping[str, int] | None = None,
        max_ticks: int = 2_000_000,
        backoff: int = 4,
        recovery: str = "transaction",
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        wal=None,
        history=None,
    ) -> None:
        if recovery not in ("transaction", "segment"):
            raise EngineError(f"unknown recovery unit {recovery!r}")
        self.store = EntityStore(dict(initial_values))
        self.scheduler = scheduler
        self.seed = seed
        self.rng = random.Random(seed)
        self.metrics = Metrics()
        self.history = history if history is not None else NULL_HISTORY
        self.wal = wal if wal is not None else NULL_WAL
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Decision kind -> the enabled ones of the three above that read
        # it, in that order.  Rebuilt from the attributes on every
        # ``advance``, so a sink assigned between two advances reads the
        # decisions of the second.
        self._routes: dict[str, tuple] = {}
        if registry is not None:
            registry.derive(("scheduler", scheduler.name), self._publish)
        self.max_ticks = max_ticks
        self.backoff = backoff
        self.recovery = recovery
        self.tick = 0
        self._seq = 0
        self._timestamp = 0
        # Transactions refused (a wait or a commit wait) since the last
        # step, commit or rollback; in the snapshot, so a sliced or
        # restored run raises where an uninterrupted one does.
        self._refused: set[str] = set()
        arrivals = dict(arrivals or {})
        # Uncommitted transactions, in registration order: a commit
        # drops its transaction's state, so a long-lived open-system
        # engine pays per-tick cost proportional to the in-flight window,
        # not to every transaction it has ever committed.
        self.txns: dict[str, TxnState] = {}
        # The part of ``txns`` the tick loop scans for candidates:
        # transactions whose arrival tick has been reached.  The rest
        # wait in ``_unarrived``, a heap keyed (arrival tick, filing
        # sequence), so a tick never pays for work that has not arrived
        # — replaying a log registers every program up front.
        self._arrived: dict[str, TxnState] = {}
        self._unarrived: list[tuple[int, int, TxnState]] = []
        self._filed = 0
        # ``_arrived`` again, in name order: the list the attention pick
        # draws from, kept sorted as transactions arrive and commit
        # instead of sorted on every tick.  ``_arrived`` keeps arrival
        # order, which the commit-dependency graph reads.
        self._ranked: list[TxnState] = []
        # The latest wake tick a rollback, restore or arrival has set.
        # Any other wait ends by the next tick, so once the clock passes
        # this mark every entry of ``_ranked`` is awake.
        self._wake_mark = 0
        # Live (not rolled back) performed records, split by commit
        # status.  Uncommitted attempts' records stay in ``_live_log``
        # (global performance order); a committing attempt's records move
        # to ``_committed_log``, where no abort can ever reach them (the
        # recoverability check forbids committed cascade members).  The
        # split is what keeps abort-time cascade work proportional to the
        # in-flight window instead of to the whole history — essential
        # for the open-system service, whose log otherwise grows without
        # bound while aborts scan it end to end.  Each commit is kept as
        # one packed ``bytes`` :class:`Commit` record (see ``_Packer``),
        # the only per-commit state besides its name's place in
        # ``_commit_order`` and ``_positions`` and its attempt in
        # ``_attempts``: one object per commit, which the cyclic GC does
        # not track and which pins no row tuples or integers.  The first
        # ``_retired`` commits are not in those three at all: a records
        # file (``_source``) holds them (:meth:`retire`), and only their
        # names' positions stay in memory.
        self._live_log: list[_LogEntry] = []
        self._committed_log: list[bytes] = []
        self._pack = _Packer()
        self._commit_order: list[str] = []
        # name -> its commit's position in the commit order, retired or
        # not; ``_attempts`` holds each held position's committed
        # attempt, so "did (name, attempt) commit" reads no record.
        self._positions: dict[str, int] = {}
        self._attempts = array("I")
        self._retired = 0
        self._source = None
        self._records = _LogView(self, "_committed_log", bytes)
        self._order = _LogView(self, "_commit_order", packed_name)
        # Per entity: (seq, key) of the latest committed access.  A
        # doomed write older than this watermark means a committed
        # attempt consumed state we are about to roll back — the same
        # recoverability violation the full-log closure used to detect
        # by pulling the committed key into the cascade.
        self._committed_access: dict[str, tuple[int, tuple[str, int]]] = {}
        # Per entity: the lowest seq of a committed access (kept under
        # the segment unit of recovery only).  A segment cascade visits
        # entities in the order the whole log first touches them: this,
        # or an earlier uncommitted touch.
        self._first_committed: dict[str, int] = {}
        # Last uncommitted writer per entity, as (name, attempt).
        self._last_writer: dict[str, tuple[str, int]] = {}
        # The schedulers' grant waits and ``deps``.
        self.waits = WaitsFor(
            self._dependencies,
            lambda name: self.txns[name].finished,
            lambda name: (self.txns[name].priority, name),
        )
        for program in programs:
            self._register(program, arrivals.get(program.name, 0))

    def _emit(self, kind: str, /, **fields: Any) -> None:
        """The one emission point: hand a decision, stamped with the
        tick, to every sink that reads its kind — the same dict to
        each.  Sinks' workers are looked up by the sinks, never
        pre-bound: callers wrap ``wal.append`` and ``history.on_commit``
        on the instance after construction.  ``kind`` is positional-only
        because ``step.perform`` has a field of that name.  Sites guard
        with ``if kind in self._routes:`` so a decision nobody reads is
        never built."""
        tick = self.tick
        for sink in self._routes.get(kind, ()):
            sink.on_decision(kind, tick, fields)

    def _route(self) -> None:
        """Rebuild :attr:`_routes` from the enabled sinks' read sets,
        keeping the history -> WAL -> tracer order within each kind."""
        routes: dict[str, tuple] = {}
        for sink in (self.history, self.wal, self.tracer):
            if sink.enabled:
                for kind in sink.reads:
                    routes[kind] = routes.get(kind, ()) + (sink,)
        self._routes = routes

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set this engine's series from :attr:`metrics`; the registry
        calls this before every read (``MetricsRegistry.derive``)."""
        metrics = self.metrics
        rows = [
            (kind, name, help, getattr(metrics, field))
            for kind, name, help, field in _SERIES
        ]
        rows.append((
            "counter", "repro_deadlocks_total",
            "Waits-for / commit-dependency cycles broken.",
            metrics.detail["engine_deadlocks"],
        ))
        rows.extend(
            ("counter", *row) for row in self.scheduler.counters(metrics)
        )
        label = self.scheduler.name
        for kind, name, help, value in rows:
            registry.put(kind, name, help, value, scheduler=label)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, until_tick: int | None = None) -> EngineResult:
        """Drive all transactions to commitment and return the committed
        execution plus metrics.

        With ``until_tick`` the run stops at the tick budget instead,
        returning a *partial* result that includes the live prefixes of
        uncommitted attempts — the open-system mode for the paper's
        arbitrarily long (even infinite) transactions.
        """
        quiesced = self.advance(until_tick)
        return self._result(partial=not quiesced)

    def add_program(
        self,
        program: TransactionProgram,
        arrival_tick: int | None = None,
    ) -> TxnState:
        """Register a transaction on a live engine (open-system ingest).

        The arrival defaults to ``tick + 1``: the first tick the loop has
        not yet processed.  That makes dynamic admission *equivalent to
        up-front construction* with the same ``arrivals`` mapping — a
        transaction whose wake tick lies in the future is never a
        scheduling candidate, so it cannot perturb the seeded rng stream
        before it arrives, and ticks already processed are identical in
        both runs.  The service/library bit-identical differential rests
        on exactly this property.
        """
        arrival = self.tick + 1 if arrival_tick is None else arrival_tick
        if arrival <= self.tick:
            raise EngineError(
                f"arrival tick {arrival} already processed (now {self.tick})"
            )
        return self._register(program, arrival)

    def _register(self, program: TransactionProgram, arrival: int) -> TxnState:
        if program.name in self:
            raise EngineError(f"duplicate transaction {program.name!r}")
        state = TxnState(
            name=program.name,
            program=program,
            arrival_tick=arrival,
            live=_LiveTransaction(program),
            attempt_start_tick=arrival,
            wake_tick=arrival,
        )
        self.txns[program.name] = state
        self._file(state)
        return state

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is registered, committed or not."""
        return name in self.txns or name in self._positions

    def retire(
        self, count: int, source, names: Sequence[str] = ()
    ) -> None:
        """Hand the first ``count`` commit records to ``source``, a
        records file holding them, and drop them from memory: from now
        on they are read back from it (``entries(start, stop)`` yields
        their packed records in order, ``entry(position)`` one), and a
        retired commit keeps only its name's position here.  Its attempt
        goes too: a dependency names either an uncommitted attempt or
        one that committed (undoing an attempt's writes rolls back every
        attempt that read them), so :meth:`_committed` answers a retired
        name by position alone.

        An engine that has made fewer than ``count`` commits (one built
        by recovery, before :meth:`restore_state`) takes the rest as its
        own: ``names`` names them, in commit order (the records file's
        scan read them), so none is read back.  With no records file
        nothing is retired, and every record stays in memory."""
        held = len(self._records)
        if count < self._retired:
            raise EngineError(
                f"{self._retired} commits are retired; cannot retire {count}"
            )
        if len(names) != max(count - held, 0):
            raise EngineError(
                f"{len(names)} names for the {count - held} commits "
                f"{held}..{count} this engine takes from its records file"
            )
        self._positions.update(zip(names, range(held, count)))
        drop = min(count, held) - self._retired
        del self._committed_log[:drop]
        del self._commit_order[:drop]
        del self._attempts[:drop]
        self._retired = count
        self._source = source

    def _file(self, state: TxnState) -> None:
        """Enter an uncommitted transaction into the scanned set or the
        arrival queue.  A rolled-back attempt
        counts as arrived whatever its arrival tick: a scheduler's
        fallback victim may be a transaction that has not arrived, and
        its backoff can end before its arrival does."""
        if state.arrival_tick <= self.tick or state.rollbacks:
            self._arrive(state)
        else:
            heapq.heappush(
                self._unarrived, (state.arrival_tick, self._filed, state)
            )
            self._filed += 1

    def _arrive(self, state: TxnState) -> None:
        """Enter ``state`` into the scanned set (a no-op when it is
        there), keeping ``_ranked`` in name order."""
        if state.name in self._arrived:
            return
        self._arrived[state.name] = state
        insort(self._ranked, state, key=_by_name)
        if state.wake_tick > self._wake_mark:
            self._wake_mark = state.wake_tick

    def advance(self, until_tick: int | None = None) -> bool:
        """Run the tick loop; True when the engine quiesced (every
        registered transaction committed), False when the budget ran out.

        This is :meth:`run` without result assembly: a pump slicing a
        long run into many small advances (``repro top``, the service
        batcher) calls this per slice and pays for the full Execution
        rebuild + re-validation only once, when it finally wants the
        :class:`EngineResult`.
        """
        self._route()
        self.scheduler.attach(self)
        while self.txns:
            if until_tick is not None and self.tick >= until_tick:
                self.metrics.ticks = self.tick
                return False
            self.tick += 1
            if self.tick > self.max_ticks:
                raise EngineError(
                    f"engine exceeded {self.max_ticks} ticks; livelock?"
                )
            candidates = self._candidates()
            if not candidates:
                continue
            # Already in name order: the same list, and so the same
            # draw, as sorting the candidates by name.
            txn = self.rng.choice(candidates)
            if self._attend(txn):
                self._refused.clear()
                continue
            refused = self._refused
            refused.add(txn.name)
            if len(refused) == len(self.txns):
                # No cycle: each is broken when it closes.  Every one has
                # arrived, so ``_ranked`` lists them all, in name order.
                waits = self.waits.waits
                rows = {t.name: waits.get(t.name, []) for t in self._ranked}
                raise EngineError(
                    f"no progress at tick {self.tick}: every transaction "
                    f"was refused since the last step, commit or rollback, "
                    f"in no waits-for cycle: waiter -> blockers {rows}"
                )
        self.metrics.ticks = self.tick
        return True

    def _candidates(self) -> list[TxnState]:
        """The transactions that may be attended this tick: arrived and
        awake, in name order — the list the attention pick draws from.
        While no backoff reaches past this tick that is ``_ranked``
        itself (callers must not mutate it); otherwise its awake
        entries, still in order."""
        tick = self.tick
        unarrived = self._unarrived
        while unarrived and unarrived[0][0] <= tick:
            state = heapq.heappop(unarrived)[2]
            if state.name in self.txns:  # a rollback victim may commit first
                self._arrive(state)
        if self._wake_mark <= tick:
            return self._ranked
        return [t for t in self._ranked if t.wake_tick <= tick]

    def next_timestamp(self) -> int:
        self._timestamp += 1
        return self._timestamp

    @property
    def commit_order(self) -> Sequence[str]:
        """Commit order so far (live view — do not mutate).  A pump polls
        ``len(commit_order)`` between slices to learn which transactions
        newly committed without assembling a full result."""
        return self._order

    @property
    def records(self) -> Sequence[bytes]:
        """The committed log: one packed :class:`Commit` record per
        commit, in commit order (live view — do not mutate; retired
        records are read back from their records file).  It only ever
        grows, so any prefix of it is the committed log of the moment it
        was that long; :func:`unpack_commit` reads a record."""
        return self._records

    def history_digest(self) -> str:
        """The digest :meth:`EngineResult.history_digest` gives this
        engine's committed execution: its committed records merged into
        performance order, without assembling a result."""
        records = self._records
        rows = seq_ordered(records, (
            [(row[0], commit.name, *row[1:]) for row in commit.rows]
            for commit in map(unpack_commit, records)
        ))
        return canonical_digest(row[1:] for row in rows)

    def position_of(self, name: str) -> int | None:
        """``name``'s position in the commit order, or ``None`` while it
        has not committed."""
        return self._positions.get(name)

    def commit_of(self, name: str) -> Commit:
        """``name``'s :class:`Commit` record (EngineError if
        uncommitted)."""
        position = self._positions.get(name)
        if position is None:
            raise EngineError(f"transaction {name!r} has not committed")
        return unpack_commit(self._records[position])

    def result_of(self, name: str) -> Any:
        """The committed result of ``name`` (EngineError if uncommitted)."""
        return self.commit_of(name).result

    @property
    def log(self) -> list[_LogEntry]:
        """The live access log in global performance order (committed
        and in-flight attempts merged — materialised on demand, with
        fresh entries and records unpacked from the committed log)."""
        return self._merged(map(unpack_commit, self._records))

    def _merged(
        self, commits: Iterable[Commit], live: bool = True
    ) -> list[_LogEntry]:
        """The entries of ``commits`` and, with ``live``, of the
        uncommitted attempts, in global performance order."""
        entries = list(self._live_log) if live else []
        for commit in commits:
            name, key = commit.name, (commit.name, commit.attempt)
            entries.extend(
                _LogEntry(seq, key, StepRecord(
                    StepId(name, index), entity, StepKind(kind), before, after
                ))
                for seq, index, entity, kind, before, after in commit.rows
            )
        entries.sort(key=attrgetter("seq"))
        return entries

    def active_states(self) -> list[TxnState]:
        return list(self.txns.values())

    def active_count(self) -> int:
        """How many registered transactions have not committed."""
        return len(self.txns)

    def arrived_states(self) -> list[TxnState]:
        """The active transactions the tick loop scans — every one that
        has performed a step, holds a lock or awaits commit is here."""
        return list(self._arrived.values())

    # ------------------------------------------------------------------
    # the per-tick step
    # ------------------------------------------------------------------

    def _attend(self, txn: TxnState) -> bool:
        """Handle one transaction for one tick; True if progress."""
        if txn.finished:
            return self._try_commit(txn)
        access = txn.live.pending
        assert access is not None
        decision = self.scheduler.on_request(txn, access)
        if decision.action is Action.PERFORM:
            self.waits.done(txn.name)
            record = self._perform(txn)
            veto = self.scheduler.after_performed(txn, record)
            if veto is not None and veto.action is Action.ABORT:
                self._rollback(
                    veto.victims, veto.reason, dict(veto.victim_points)
                )
            return True
        if decision.action is Action.ABORT:
            self._rollback(
                decision.victims or (txn.name,),
                decision.reason,
                dict(decision.victim_points),
            )
            return True
        self.metrics.waits += 1
        txn.waits += 1
        if "txn.wait" in self._routes:
            self._emit("txn.wait", txn=txn.name, reason=decision.reason)
        txn.wake_tick = self.tick + 1
        return False

    def _perform(self, txn: TxnState) -> StepRecord:
        access = txn.live.pending
        assert access is not None
        writer = self._last_writer.get(access.entity)
        if writer is not None and writer != txn.key:
            txn.deps.add(writer)
        record = txn.live.perform(self.store)
        self._seq += 1
        self._live_log.append(_LogEntry(self._seq, txn.key, record))
        if record.kind is not StepKind.READ:
            self._last_writer[access.entity] = txn.key
        self.metrics.steps_performed += 1
        if "step.perform" in self._routes:
            self._emit(
                "step.perform",
                txn=txn.name,
                attempt=txn.attempt,
                step=record.step.index,
                entity=record.entity,
                kind=record.kind.value,
                before=record.value_before,
                after=record.value_after,
            )
        return record

    def _committed(self, key: tuple[str, int]) -> bool:
        """Whether attempt ``key`` = (name, attempt) has committed: a
        transaction commits once, in its last attempt (a retired one is
        asked only about that attempt; see :meth:`retire`)."""
        position = self._positions.get(key[0])
        if position is None:
            return False
        position -= self._retired
        return position < 0 or self._attempts[position] == key[1]

    def _try_commit(self, txn: TxnState) -> bool:
        pending_deps = {dep for dep in txn.deps if not self._committed(dep)}
        if pending_deps:
            cycle = self.waits.dependency_cycle(txn.name)
            if cycle:
                decision = self.break_cycle(cycle, "commit-dependency")
                self._rollback(decision.victims, decision.reason)
                return True
            return self._commit_wait(
                txn, pending=sorted(d[0] for d in pending_deps)
            )
        decision = self.scheduler.may_commit(txn)
        if decision.action is Action.PERFORM:
            name = txn.name
            del self.txns[name]
            if self._arrived.pop(name, None) is not None:
                ranked = self._ranked
                del ranked[bisect_left(ranked, name, key=_by_name)]
            key = txn.key
            self.waits.done(name)
            # Retire the attempt's records out of the abort-scannable
            # window (entries are in seq order, so the last touch per
            # entity wins the watermark).
            mine = [e for e in self._live_log if e.key == key]
            if mine:
                self._live_log = [e for e in self._live_log if e.key != key]
            rows = []
            for entry in mine:
                record = entry.record
                rows.append((
                    entry.seq, record.step.index, record.entity,
                    record.kind.value, record.value_before, record.value_after,
                ))
                self._committed_access[record.entity] = (entry.seq, key)
            if self.recovery == "segment":
                first_committed = self._first_committed
                for entry in mine:
                    entity = entry.record.entity
                    if entry.seq < first_committed.get(entity, _NO_SEQ):
                        first_committed[entity] = entry.seq
            live = txn.live
            self._positions[name] = self._retired + len(self._commit_order)
            self._commit_order.append(name)
            self._attempts.append(txn.attempt)
            self._committed_log.append(self._pack((
                name, txn.attempt, rows, txn.arrival_tick, self.tick,
                txn.rollbacks, txn.waits, live.result, live.cut_levels,
            )))
            latency = self.tick - txn.arrival_tick
            self.metrics.record_commit(latency, waited=txn.waits)
            # Commit identity lives in the log: the commit record lands
            # before ``on_commit`` so any prune it triggers follows it.
            if "txn.commit" in self._routes:
                self._emit(
                    "txn.commit",
                    txn=name,
                    attempt=txn.attempt,
                    latency=latency,
                    waits=txn.waits,
                    result=live.result,
                    cut_levels=live.cut_levels,
                    steps=[(e.seq, e.record) for e in mine],
                )
            self.scheduler.on_commit(txn)
            return True
        if decision.action is Action.ABORT:
            self._rollback(
                decision.victims or (txn.name,),
                decision.reason,
                dict(decision.victim_points),
            )
            return True
        return self._commit_wait(txn, reason=decision.reason)

    def _commit_wait(self, txn: TxnState, **why: Any) -> bool:
        """A finished transaction must wait a tick: on uncommitted
        ``pending`` dependencies, or for the scheduler's ``reason``."""
        self.metrics.commit_waits += 1
        txn.waits += 1
        if "txn.commit-wait" in self._routes:
            self._emit("txn.commit-wait", txn=txn.name, **why)
        txn.wake_tick = self.tick + 1
        return False

    def _dependencies(self, name: str) -> set[str]:
        """The uncommitted attempts whose writes ``name`` consumed: it
        cannot commit before they do.  (Only an arrived transaction has
        any: one that has not arrived has taken no step, and a commit
        drops them.)"""
        txns = self.txns
        return {
            dep_name
            for dep_name, dep_attempt in txns[name].deps
            if (other := txns.get(dep_name)) is not None
            and other.attempt == dep_attempt
        }

    def break_cycle(self, cycle: list[str], cause: str) -> Decision:
        """Roll back the youngest member of a waits-for ``cycle``: the
        one place the engine counts and reports a deadlock."""
        victim = self.waits.victim(cycle)
        reason, count = _CYCLE_CAUSES[cause]
        self.metrics.deadlocks += 1
        if count is not None:
            self.metrics.detail[count] += 1
        if "deadlock" in self._routes:
            self._emit(
                "deadlock", cycle=list(cycle), victim=victim, cause=cause
            )
        return Decision.abort([victim], reason)

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------

    def _rollback(
        self,
        victim_names: Iterable[str],
        reason: str,
        points: dict[str, int] | None = None,
    ) -> None:
        """Roll back ``victim_names`` and every attempt their undone
        writes reach, in the engine's unit of recovery.

        Under ``recovery="transaction"`` every affected attempt restarts.
        Under ``"segment"`` a victim rolls back to the start of the
        segment holding its step ``points[name]`` (default 0), and an
        attempt the cascade reaches to the start of the segment that
        made its tainted access; one that keeps nothing restarts.
        """
        segment = self.recovery == "segment"
        given = points or {}
        seeds: dict[tuple[str, int], int] = {}
        for name in victim_names:
            txn = self.txns.get(name)
            if txn is None:
                raise EngineError(
                    f"scheduler tried to abort committed transaction {name!r}"
                )
            point = 0
            # Chronic partial-rollback victims escalate to a full
            # restart: rolling back to the same segment start over and
            # over cannot make progress if the conflict pattern is stable.
            if segment and not (txn.rollbacks and txn.rollbacks % 8 == 0):
                point = self._safe_point(txn, given.get(name, 0))
            seeds[txn.key] = min(seeds.get(txn.key, point), point)

        def rewind(key: tuple[str, int], index: int) -> int:
            if self._committed(key):
                raise EngineError(
                    f"recoverability violated: committed attempt {key} "
                    f"consumed an undone write ({reason})"
                )
            return self._safe_point(self.txns[key[0]], index)

        # A cascade reads only the uncommitted window: a committed entry
        # never taints (it could only join the cascade, the
        # recoverability violation the watermark below detects).  A
        # segment-unit cascade's per-entity pass visits entities in the
        # order the whole log first touches them — that order decides
        # which ``cascade.join`` events it reports — so the window is
        # handed over sorted (stably) into that order: by each entity's
        # first committed seq, or its first touch in the window if
        # earlier.
        log = self._live_log
        if segment:
            first = dict(self._first_committed)
            for entry in log:
                entity = entry.record.entity
                if entry.seq < first.get(entity, _NO_SEQ):
                    first[entity] = entry.seq
            log = sorted(log, key=lambda entry: first[entry.record.entity])
        points = cascade_closure(
            [(entry.key, entry.record) for entry in log],
            seeds,
            emit=self._emit if "cascade.join" in self._routes else None,
            rewind=rewind if segment else None,
        )
        doomed: list[_LogEntry] = []
        kept: list[_LogEntry] = []
        for entry in self._live_log:
            point = points.get(entry.key)
            if point is None or entry.record.step.index < point:
                kept.append(entry)
                continue
            doomed.append(entry)
            # Recoverability: a committed access sequenced after a doomed
            # write would have joined the full-log closure; the watermark
            # detects exactly that case without scanning committed history.
            if entry.record.kind is not StepKind.READ:
                stamp = self._committed_access.get(entry.record.entity)
                if stamp is not None and stamp[0] > entry.seq:
                    raise EngineError(
                        f"recoverability violated: committed attempt "
                        f"{stamp[1]} is in the cascade of {sorted(seeds)} "
                        f"({reason})"
                    )
        self.metrics.record_cascade(len(points))
        if "txn.abort" in self._routes:
            self._emit(
                "txn.abort",
                victims=sorted(name for name, _ in seeds),
                cascade=sorted(
                    name for name, _ in points.keys() - seeds.keys()
                ),
                reason=reason,
                chain=len(points),
                unit=self.recovery,
            )
        # Undo every doomed write, newest first (cascade members are all
        # uncommitted, so the live log holds every affected record).
        for entry in reversed(doomed):
            if entry.record.kind is not StepKind.READ:
                self._undo(entry)
        self._live_log = kept
        # One pass over the surviving window: the last uncommitted writer
        # per entity, and the commit dependencies of every attempt that
        # keeps a prefix (restarted attempts start with none, and no
        # survivor depends on an undone write: it would have cascaded).
        rewound = {key for key, keep in points.items() if keep}
        for name, _attempt in rewound:
            self.txns[name].deps = set()
        last_writer: dict[str, tuple[str, int]] = {}
        for entry in kept:
            record = entry.record
            if entry.key in rewound:
                writer = last_writer.get(record.entity)
                if writer is not None and writer != entry.key:
                    self.txns[entry.key[0]].deps.add(writer)
            if record.kind is not StepKind.READ:
                last_writer[record.entity] = entry.key
        self._last_writer = last_writer
        # Rewind the affected attempts (sorted: deterministic across
        # processes regardless of hash randomisation).
        for (name, _attempt), keep in sorted(points.items()):
            txn = self.txns[name]
            self._arrive(txn)  # a victim need not have arrived
            txn.rollbacks += 1
            if keep == 0:
                self.scheduler.on_abort(txn)
                self.waits.done(name)
                txn.attempt += 1
                txn.live = _LiveTransaction(txn.program)
                txn.deps = set()
                txn.attempt_start_tick = self.tick
                self.metrics.aborts += 1
                self.metrics.restarts += 1
            else:
                self.scheduler.on_rollback(txn, keep)
                fresh = _LiveTransaction(txn.program)
                fresh.fast_forward(txn.live.results_log[:keep])
                txn.live = fresh
                self.metrics.partial_rollbacks += 1
                self.metrics.steps_preserved += keep
            self._back_off(txn, txn.rollbacks)
            # After the rng draw: the wake tick is the decision being
            # made durable (and verified on replay).
            if keep == 0:
                if "txn.restart" in self._routes:
                    self._emit(
                        "txn.restart",
                        txn=name,
                        attempt=txn.attempt,
                        wake=txn.wake_tick,
                    )
            elif "txn.partial-rollback" in self._routes:
                self._emit(
                    "txn.partial-rollback",
                    txn=name,
                    keep=keep,
                    wake=txn.wake_tick,
                )

    def _back_off(self, txn: TxnState, rollbacks: int) -> None:
        """Put a rolled-back ``txn`` to sleep for a random backoff that
        grows with ``rollbacks``, raising the wake mark."""
        txn.wake_tick = wake = self.tick + self.rng.randint(
            1, self.backoff * min(rollbacks, 64)
        )
        if wake > self._wake_mark:
            self._wake_mark = wake

    def _undo(self, entry: _LogEntry) -> None:
        """Restore one rolled-back write's before-image."""
        record = entry.record
        self.store.restore(record.entity, record.value_before)
        self.metrics.steps_undone += 1
        if "step.undo" in self._routes:
            self._emit(
                "step.undo",
                txn=entry.key[0],
                attempt=entry.key[1],
                step=record.step.index,
                entity=record.entity,
                restored=record.value_before,
            )

    def _safe_point(self, txn: TxnState, index: int) -> int:
        """The latest declared breakpoint boundary at or before ``index``
        in the transaction's current attempt: the start of the atomicity
        segment containing step ``index``."""
        index = max(0, min(index, txn.live.steps_taken))
        boundaries = [
            gap + 1
            for gap in txn.live.cut_levels
            if gap + 1 <= index
        ]
        return max(boundaries, default=0)

    # ------------------------------------------------------------------
    # durability snapshots
    # ------------------------------------------------------------------

    def snapshot_state(self, deep: bool = True) -> dict[str, Any]:
        """A picklable copy of the live dynamic state.

        Restoring it, with the committed log it names, onto a freshly
        constructed engine with the *same* configuration (programs,
        scheduler kind, seed, limits) yields an engine that continues
        bit-identically to this one — including the rng stream, dict
        iteration orders that feed deterministic decisions, and the
        scheduler/closure-window internals.  Programs themselves
        (generator functions) are not serialised: an uncommitted attempt
        is rebuilt on restore from its ``results_log`` replay tape.
        Committed transactions are not in it at all: it holds only
        ``commits``, how many records of :attr:`records` it covers, so
        its size follows the in-flight window, not the history.

        ``deep=False`` skips the final defensive deep copy.  Every
        container in the dict is freshly built and step records are
        immutable, so the only live object a shallow snapshot would
        alias is ``metrics`` — which is copied one level regardless.
        Nested metrics structures may still alias the engine's; callers
        that pickle the state at once (a durability snapshot) or never
        read its telemetry (the audit explorer forks thousands of times
        per second) opt in for speed.
        """
        txns = [
            {
                "name": txn.name,
                "arrival_tick": txn.arrival_tick,
                "attempt": txn.attempt,
                "rollbacks": txn.rollbacks,
                "attempt_start_tick": txn.attempt_start_tick,
                "wake_tick": txn.wake_tick,
                "deps": sorted(txn.deps),
                "waits": txn.waits,
                "results_log": list(txn.live.results_log),
            }
            for txn in self.txns.values()
        ]
        state = {
            "tick": self.tick,
            "seq": self._seq,
            "timestamp": self._timestamp,
            "refused": sorted(self._refused),
            "rng": self.rng.getstate(),
            "metrics": self.metrics,
            "store": self.store.snapshot_state(),
            "txns": txns,
            "live_log": [
                (e.seq, e.key, e.record) for e in self._live_log
            ],
            "commits": len(self._records),
            "committed_access": dict(self._committed_access),
            "first_committed": dict(self._first_committed),
            "last_writer": list(self._last_writer.items()),
            "waits": list(self.waits.waits.items()),
            "scheduler": self.scheduler.snapshot_state(),
        }
        # Deep-copied so the snapshot cannot alias state the engine will
        # keep mutating (records are shared immutably within the copy).
        if deep:
            return copy.deepcopy(state)
        state["metrics"] = copy.copy(self.metrics)
        return state

    def restore_state(
        self,
        state: dict[str, Any],
        records: Sequence[bytes],
        deep: bool = True,
        programs: Mapping[str, TransactionProgram] | None = None,
    ) -> None:
        """Restore a :meth:`snapshot_state` dict onto this freshly
        constructed engine (same programs and configuration).

        ``records`` is a committed log (:attr:`records`) of the run the
        snapshot was taken from, at least as long as the ``commits`` it
        covers; the commit order, the positions and the committed
        attempts are read back from that prefix.  This engine's own
        :attr:`records` is cut back to it instead, its retired part
        staying in its records file (recovery retires what the records
        file holds, then restores onto it).

        ``deep=False`` installs from ``state`` without the defensive
        deep copy; every field is rebuilt into fresh containers below
        (``metrics`` is copied one level), so the caller's dict is never
        mutated through the engine — the symmetric fast path to
        ``snapshot_state(deep=False)``.

        A commit drops its transaction's program.  Restoring an engine
        that has committed past the snapshot (the audit explorer reuses
        its engines) therefore needs the programs of the transactions it
        committed since: they come from ``programs`` (name -> program),
        and a missing one is an :class:`EngineError` raised before
        anything is restored.
        """
        if deep:
            state = copy.deepcopy(state)
        count = state["commits"]
        if len(records) < count:
            raise EngineError(
                f"the snapshot covers {count} commits, and the committed "
                f"log given holds {len(records)}"
            )
        if records is self._records and count < self._retired:
            raise EngineError(
                f"the snapshot covers {count} commits, and this engine "
                f"has retired {self._retired}"
            )
        known = self.txns
        txns: dict[str, TxnState] = {}
        for saved in state["txns"]:
            name = saved["name"]
            base = known.get(name)
            program = base.program if base is not None else (
                programs or {}
            ).get(name)
            if program is None:
                raise EngineError(
                    f"cannot restore transaction {name!r}: it is "
                    f"uncommitted in the snapshot, and this engine holds "
                    f"no program for it (pass the programs of what it "
                    f"committed since in programs=)"
                )
            live = _LiveTransaction(program)
            if saved["results_log"]:
                live.fast_forward(saved["results_log"])
            txns[name] = TxnState(
                name=name,
                program=program,
                arrival_tick=saved["arrival_tick"],
                live=live,
                attempt=saved["attempt"],
                rollbacks=saved["rollbacks"],
                attempt_start_tick=saved["attempt_start_tick"],
                wake_tick=saved["wake_tick"],
                deps=set(map(tuple, saved["deps"])),
                waits=saved["waits"],
            )
        self.tick = state["tick"]
        self._seq = state["seq"]
        self._timestamp = state["timestamp"]
        self._refused = set(state["refused"])
        self.rng.setstate(state["rng"])
        self.metrics = (
            state["metrics"] if deep else copy.copy(state["metrics"])
        )
        self.store.restore_state(state["store"])
        if records is self._records:
            keep = count - self._retired
            if keep < len(self._commit_order):
                del self._committed_log[keep:]
                del self._commit_order[keep:]
                del self._attempts[keep:]
                self._positions = {
                    name: position
                    for name, position in self._positions.items()
                    if position < count
                }
        else:
            self._committed_log = list(records[:count])
            self._commit_order, self._attempts = [], array("I")
            for packed in self._committed_log:
                commit = unpack_commit(packed)
                self._commit_order.append(commit.name)
                self._attempts.append(commit.attempt)
            self._positions = {
                name: position
                for position, name in enumerate(self._commit_order)
            }
            self._retired, self._source = 0, None
        self.txns = txns
        self._arrived, self._unarrived = {}, []
        self._ranked, self._wake_mark = [], 0
        for txn in txns.values():
            self._file(txn)
        # Programs registered after the snapshot was taken (open-system
        # ingest) keep their fresh construction-time state, appended in
        # registration order — exactly where a live engine would hold
        # them.
        for name, base in known.items():
            if name not in self:
                txns[name] = base
                self._file(base)
        self._live_log = [
            _LogEntry(seq, tuple(key), record)
            for seq, key, record in state["live_log"]
        ]
        self._committed_access = {
            entity: (seq, tuple(key))
            for entity, (seq, key) in state["committed_access"].items()
        }
        self._first_committed = dict(state["first_committed"])
        self._last_writer = {
            entity: tuple(key) for entity, key in state["last_writer"]
        }
        self.waits.waits = dict(state["waits"])
        self.scheduler.restore_state(state["scheduler"])

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _result(self, partial: bool = False) -> EngineResult:
        commits = [unpack_commit(packed) for packed in self._records]
        records = [
            entry.record for entry in self._merged(commits, live=partial)
        ]
        execution = Execution(records, self.store.initial_snapshot())
        execution.validate()  # undo/cascade bugs cannot pass silently
        cut_levels = {commit.name: commit.cut_levels for commit in commits}
        if partial:
            for txn in self.txns.values():
                if txn.steps_taken:
                    cut_levels[txn.name] = dict(txn.live.cut_levels)
        return EngineResult(
            execution=execution,
            cut_levels=cut_levels,
            results={commit.name: commit.result for commit in commits},
            metrics=self.metrics,
            commit_order=list(self._order),
            partial=partial,
        )
