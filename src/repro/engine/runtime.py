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
from bisect import bisect_left, insort
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

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

__all__ = ["Engine", "EngineResult", "TxnState", "unpack_commit"]

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
    """Engine-side state of one transaction across attempts.

    A committed transaction keeps only what envelopes and schedulers
    read after its commit: ``program`` and ``live`` are ``None`` (the
    compiled program, the finished generator and its replay tape are
    released) and ``deps`` is empty.
    """

    name: str
    program: TransactionProgram | None
    arrival_tick: int
    live: _LiveTransaction | None
    attempt: int = 0
    # Rewinds under either unit of recovery; ``attempt`` counts the
    # restarts among them.
    rollbacks: int = 0
    attempt_start_tick: int = 0
    wake_tick: int = 0
    committed: bool = False
    commit_tick: int | None = None
    deps: set[tuple[str, int]] | frozenset = field(default_factory=set)
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
        return self.live is None or self.live.finished

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


#: A committed transaction's ``deps``: one shared empty set, not one each.
_NO_DEPS: frozenset = frozenset()

class _Packer:
    """Packs a committed attempt ``(name, attempt, rows)`` into one
    immutable ``bytes``.  The pickler's memo is off, so the bytes depend
    only on the values, never on which copy of an equal string a row
    holds: a replayed or restored engine packs the same commit to the
    same bytes, and its snapshot pickles them unchanged.  One pickler
    per engine, reused: building one costs twice what a commit's
    packing does."""

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


def unpack_commit(packed: bytes) -> tuple[str, int, list[tuple]]:
    """A committed-log record back as ``(name, attempt, rows)``, each
    row ``(seq, index, entity, kind, before, after)`` with ``kind`` a
    :class:`StepKind` value."""
    return pickle.loads(packed)


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
    stall_limit:
        Ticks without any performed step or commit before the engine asks
        the scheduler to resolve a stall by rollback.
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
        stall_limit: int = 500,
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
        # ``advance`` because the service hands a recovered engine its
        # history sink only after replay.
        self._routes: dict[str, tuple] = {}
        if registry is not None:
            registry.derive(("scheduler", scheduler.name), self._publish)
        self.max_ticks = max_ticks
        self.stall_limit = stall_limit
        self.backoff = backoff
        self.recovery = recovery
        self.tick = 0
        self._seq = 0
        self._timestamp = 0
        # Tick of the last perform/commit.  Held on the instance so a run
        # resumed across ``until_tick`` slices (the ``repro top`` pump)
        # sees exactly the stall pattern of one uninterrupted run.
        self._last_progress = 0
        arrivals = dict(arrivals or {})
        self.txns: dict[str, TxnState] = {}
        # Uncommitted transactions, in registration order.  The tick loop
        # iterates this instead of ``txns`` so a long-lived open-system
        # engine pays per-tick cost proportional to the in-flight window,
        # not to every transaction it has ever committed.
        self._active: dict[str, TxnState] = {}
        # The part of ``_active`` the tick loop scans for candidates:
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
        for program in programs:
            if program.name in self.txns:
                raise EngineError(f"duplicate transaction {program.name!r}")
            arrival = arrivals.get(program.name, 0)
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
        # Live (not rolled back) performed records, split by commit
        # status.  Uncommitted attempts' records stay in ``_live_log``
        # (global performance order); a committing attempt's records move
        # to ``_committed_log``, where no abort can ever reach them (the
        # recoverability check forbids committed cascade members).  The
        # split is what keeps abort-time cascade work proportional to the
        # in-flight window instead of to the whole history — essential
        # for the open-system service, whose log otherwise grows without
        # bound while aborts scan it end to end.  Each committed attempt
        # is kept as one packed ``bytes`` record (see ``_Packer``): one
        # object per commit, which the cyclic GC does not track and
        # which pins no row tuples or integers.
        self._live_log: list[_LogEntry] = []
        self._committed_log: list[bytes] = []
        self._pack = _Packer()
        # Per entity: (seq, key) of the latest committed access.  A
        # doomed write older than this watermark means a committed
        # attempt consumed state we are about to roll back — the same
        # recoverability violation the full-log closure used to detect
        # by pulling the committed key into the cascade.
        self._committed_access: dict[str, tuple[int, tuple[str, int]]] = {}
        # Last uncommitted writer per entity, as (name, attempt).
        self._last_writer: dict[str, tuple[str, int]] = {}
        # The schedulers' grant waits and ``deps``.
        self.waits = WaitsFor(
            self._dependencies,
            lambda name: self.txns[name].finished,
            lambda name: (self.txns[name].priority, name),
        )
        self._commit_order: list[str] = []
        self._results: dict[str, Any] = {}
        # name -> the cut levels its committed attempt declared.  Commits
        # share one dict per distinct shape (see ``_shared_cuts``): a
        # workload declares a handful of shapes over any number of
        # commits.
        self._cut_levels: dict[str, dict[int, int]] = {}
        self._cut_shapes: dict[tuple, dict[int, int]] = {}

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
        if program.name in self.txns:
            raise EngineError(f"duplicate transaction {program.name!r}")
        arrival = self.tick + 1 if arrival_tick is None else arrival_tick
        if arrival <= self.tick:
            raise EngineError(
                f"arrival tick {arrival} already processed (now {self.tick})"
            )
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

    def _file(self, state: TxnState) -> None:
        """Enter an uncommitted transaction into ``_active`` and into
        the scanned set or the arrival queue.  A rolled-back attempt
        counts as arrived whatever its arrival tick: a scheduler's
        fallback victim may be a transaction that has not arrived, and
        its backoff can end before its arrival does."""
        self._active[state.name] = state
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
        wal = self.wal
        while self._active:
            if until_tick is not None and self.tick >= until_tick:
                self.metrics.ticks = self.tick
                return False
            # Snapshot between ticks: the state of tick T is fully
            # settled (including ``_last_progress``) and no decision of
            # tick T+1 has been taken yet.
            if wal.enabled:
                wal.maybe_snapshot(self)
            self.tick += 1
            if self.tick > self.max_ticks:
                raise EngineError(
                    f"engine exceeded {self.max_ticks} ticks; livelock?"
                )
            candidates = self._candidates()
            if not candidates:
                continue
            if self.tick - self._last_progress > self.stall_limit:
                # A copy: ``candidates`` may be ``_ranked`` itself.
                stalled = list(candidates)
                decision = self.scheduler.on_stall(stalled)
                if decision.action is Action.ABORT and decision.victims:
                    self.metrics.deadlocks += 1
                    self.metrics.detail["engine_deadlocks"] += 1
                    if "engine.stall" in self._routes:
                        self._emit(
                            "engine.stall",
                            victims=list(decision.victims),
                            reason=decision.reason or "stall",
                        )
                    self._rollback(
                        decision.victims,
                        decision.reason or "stall",
                        dict(decision.victim_points),
                    )
                self._last_progress = self.tick
                continue
            # Already in name order: the same list, and so the same
            # draw, as sorting the candidates by name.
            txn = self.rng.choice(candidates)
            progressed = self._attend(txn)
            if progressed:
                self._last_progress = self.tick
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
            if not state.committed:
                self._arrive(state)
        if self._wake_mark <= tick:
            return self._ranked
        return [t for t in self._ranked if t.wake_tick <= tick]

    def next_timestamp(self) -> int:
        self._timestamp += 1
        return self._timestamp

    @property
    def commit_order(self) -> list[str]:
        """Commit order so far (live view — do not mutate).  A pump polls
        ``len(commit_order)`` between slices to learn which transactions
        newly committed without assembling a full result."""
        return self._commit_order

    def result_of(self, name: str) -> Any:
        """The committed result of ``name`` (EngineError if uncommitted)."""
        if name not in self._results:
            raise EngineError(f"transaction {name!r} has not committed")
        return self._results[name]

    @property
    def log(self) -> list[_LogEntry]:
        """The live access log in global performance order (committed
        and in-flight attempts merged — materialised on demand, with
        fresh entries and records unpacked from the committed log)."""
        entries = list(self._live_log)
        for packed in self._committed_log:
            name, attempt, rows = unpack_commit(packed)
            key = (name, attempt)
            entries.extend(
                _LogEntry(seq, key, StepRecord(
                    StepId(name, index), entity, StepKind(kind), before, after
                ))
                for seq, index, entity, kind, before, after in rows
            )
        entries.sort(key=attrgetter("seq"))
        return entries

    def active_states(self) -> list[TxnState]:
        return list(self._active.values())

    def active_count(self) -> int:
        """How many registered transactions have not committed."""
        return len(self._active)

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
        transaction commits once, in its last attempt."""
        txn = self.txns[key[0]]
        return txn.committed and txn.attempt == key[1]

    def _shared_cuts(self, cuts: dict[int, int]) -> dict[int, int]:
        """The engine's one copy of a cut-level dict equal to ``cuts``,
        items in the same order.  Shared by every commit of that shape,
        so it is never mutated."""
        shape = tuple(cuts.items())
        shared = self._cut_shapes.get(shape)
        if shared is None:
            shared = self._cut_shapes[shape] = dict(shape)
        return shared

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
            txn.committed = True
            txn.commit_tick = self.tick
            self._active.pop(txn.name, None)
            if self._arrived.pop(txn.name, None) is not None:
                ranked = self._ranked
                del ranked[bisect_left(ranked, txn.name, key=_by_name)]
            key = txn.key
            self.waits.done(txn.name)
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
            self._committed_log.append(
                self._pack((txn.name, txn.attempt, rows))
            )
            live = txn.live
            self._commit_order.append(txn.name)
            self._results[txn.name] = live.result
            self._cut_levels[txn.name] = cut_levels = self._shared_cuts(
                live.cut_levels
            )
            self.metrics.record_commit(
                txn.name, self.tick - txn.arrival_tick, waited=txn.waits
            )
            # Commit identity lives in the log: the commit record lands
            # before ``on_commit`` so any prune it triggers follows it.
            if "txn.commit" in self._routes:
                self._emit(
                    "txn.commit",
                    txn=txn.name,
                    attempt=txn.attempt,
                    latency=self.tick - txn.arrival_tick,
                    waits=txn.waits,
                    result=live.result,
                    cut_levels=cut_levels,
                    steps=[(e.seq, e.record) for e in mine],
                )
            self.scheduler.on_commit(txn)
            # Nothing reads a committed attempt's program, generator,
            # replay tape or commit dependencies again.
            txn.program = None
            txn.live = None
            txn.deps = _NO_DEPS
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
            if not (other := txns[dep_name]).committed
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
            txn = self.txns[name]
            if txn.committed:
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

        # A transaction-unit cascade reads only the uncommitted window: a
        # committed entry never taints (it could only join the cascade,
        # the recoverability violation the watermark below detects).  A
        # segment-unit cascade reads the whole log: its per-entity pass
        # visits entities in the order the whole log first touches them,
        # and that order decides which ``cascade.join`` events it reports.
        log = self.log if segment else self._live_log
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
        """A picklable deep copy of the full dynamic state.

        Restoring it onto a freshly constructed engine with the *same*
        configuration (programs, scheduler kind, seed, limits) yields an
        engine that continues bit-identically to this one — including
        the rng stream, dict iteration orders that feed deterministic
        decisions, and the scheduler/closure-window internals.  Programs
        themselves (generator functions) are not serialised: an
        uncommitted attempt is rebuilt on restore from its
        ``results_log`` replay tape, and a committed transaction carries
        no tape (``None``) because nothing runs its program again.  The
        committed log is carried as the engine holds it, one packed
        record per commit (:func:`unpack_commit` reads one).

        ``deep=False`` skips the final defensive deep copy.  Every
        container in the dict is freshly built and step records and
        committed records are immutable, so the only live object a shallow
        snapshot would alias is ``metrics`` — which is copied one level
        regardless.  Nested metrics structures may still alias the
        engine's; callers that never read snapshot telemetry (the audit
        explorer forks thousands of times per second) opt in for speed.
        """
        txns = [
            {
                "name": txn.name,
                "arrival_tick": txn.arrival_tick,
                "attempt": txn.attempt,
                "rollbacks": txn.rollbacks,
                "attempt_start_tick": txn.attempt_start_tick,
                "wake_tick": txn.wake_tick,
                "committed": txn.committed,
                "commit_tick": txn.commit_tick,
                "deps": sorted(txn.deps),
                "waits": txn.waits,
                "results_log": (
                    None if txn.live is None else list(txn.live.results_log)
                ),
            }
            for txn in self.txns.values()
        ]
        state = {
            "tick": self.tick,
            "seq": self._seq,
            "timestamp": self._timestamp,
            "last_progress": self._last_progress,
            "rng": self.rng.getstate(),
            "metrics": self.metrics,
            "store": self.store.snapshot_state(),
            "txns": txns,
            "active": list(self._active),
            "live_log": [
                (e.seq, e.key, e.record) for e in self._live_log
            ],
            "committed_log": list(self._committed_log),
            "committed_access": dict(self._committed_access),
            "last_writer": list(self._last_writer.items()),
            "commit_order": list(self._commit_order),
            "results": dict(self._results),
            "cut_levels": {
                name: dict(cuts) for name, cuts in self._cut_levels.items()
            },
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
        deep: bool = True,
        programs: Mapping[str, TransactionProgram] | None = None,
    ) -> None:
        """Restore a :meth:`snapshot_state` dict onto this freshly
        constructed engine (same programs and configuration).

        ``deep=False`` installs from ``state`` without the defensive
        deep copy; every field is rebuilt into fresh containers below
        (``metrics`` is copied one level), so the caller's dict is never
        mutated through the engine — the symmetric fast path to
        ``snapshot_state(deep=False)``.

        An engine releases a program when its transaction commits.
        Restoring an engine that has committed past the snapshot (the
        audit explorer reuses its engines) therefore needs the programs
        of the transactions it committed since: they come from
        ``programs`` (name -> program), and a missing one is an
        :class:`EngineError` raised before anything is restored.
        """
        if deep:
            state = copy.deepcopy(state)
        known = self.txns
        txns: dict[str, TxnState] = {}
        for saved in state["txns"]:
            name = saved["name"]
            base = known.get(name)
            if base is None:
                raise EngineError(
                    f"snapshot names unknown transaction {name!r}"
                )
            tape = saved["results_log"]
            if tape is None:  # committed: its program never runs again
                program, live, deps = None, None, _NO_DEPS
            else:
                program = base.program
                if program is None and programs is not None:
                    program = programs.get(name)
                if program is None:
                    raise EngineError(
                        f"cannot restore transaction {name!r}: it is "
                        f"uncommitted in the snapshot, but this engine "
                        f"committed it and released its program "
                        f"(pass it in programs=)"
                    )
                live = _LiveTransaction(program)
                if tape:
                    live.fast_forward(tape)
                deps = set(map(tuple, saved["deps"]))
            txns[name] = TxnState(
                name=name,
                program=program,
                arrival_tick=saved["arrival_tick"],
                live=live,
                attempt=saved["attempt"],
                rollbacks=saved["rollbacks"],
                attempt_start_tick=saved["attempt_start_tick"],
                wake_tick=saved["wake_tick"],
                committed=saved["committed"],
                commit_tick=saved["commit_tick"],
                deps=deps,
                waits=saved["waits"],
            )
        self.tick = state["tick"]
        self._seq = state["seq"]
        self._timestamp = state["timestamp"]
        self._last_progress = state["last_progress"]
        self.rng.setstate(state["rng"])
        self.metrics = (
            state["metrics"] if deep else copy.copy(state["metrics"])
        )
        self.store.restore_state(state["store"])
        self.txns = txns
        self._active, self._arrived, self._unarrived = {}, {}, []
        self._ranked, self._wake_mark = [], 0
        for name in state["active"]:
            self._file(self.txns[name])
        # Programs registered after the snapshot was taken (open-system
        # ingest) keep their fresh construction-time state, appended in
        # registration order — exactly where a live engine would hold
        # them.
        for name, base in known.items():
            if name not in self.txns:
                self.txns[name] = base
                self._file(base)
        self._live_log = [
            _LogEntry(seq, tuple(key), record)
            for seq, key, record in state["live_log"]
        ]
        self._committed_log = list(state["committed_log"])
        self._committed_access = {
            entity: (seq, tuple(key))
            for entity, (seq, key) in state["committed_access"].items()
        }
        self._last_writer = {
            entity: tuple(key) for entity, key in state["last_writer"]
        }
        self._commit_order = list(state["commit_order"])
        self._results = dict(state["results"])
        self._cut_levels = {
            name: self._shared_cuts(cuts)
            for name, cuts in state["cut_levels"].items()
        }
        self.waits.waits = dict(state["waits"])
        self.scheduler.restore_state(state["scheduler"])

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _result(self, partial: bool = False) -> EngineResult:
        live_keys = {txn.key for txn in self._active.values()}
        records = [
            entry.record
            for entry in self.log
            if self._committed(entry.key)
            or (partial and entry.key in live_keys)
        ]
        execution = Execution(records, self.store.initial_snapshot())
        execution.validate()  # undo/cascade bugs cannot pass silently
        cut_levels = dict(self._cut_levels)
        if partial:
            for txn in self._active.values():
                if txn.steps_taken:
                    cut_levels[txn.name] = dict(txn.live.cut_levels)
        return EngineResult(
            execution=execution,
            cut_levels=cut_levels,
            results=dict(self._results),
            metrics=self.metrics,
            commit_order=list(self._commit_order),
            partial=partial,
        )
