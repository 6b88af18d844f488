"""Systems of transactions over entities, and their interleaved runs.

A :class:`System` bundles transaction programs with entity initial values
(Section 3.2's application-database substrate: transactions are processes,
entities are internal variables).  Running a system under an explicit or
random interleaving produces a :class:`SystemRun`: the resulting
:class:`~repro.model.execution.Execution` plus each transaction's declared
breakpoint levels — everything needed to derive the k-level interleaving
specification of Section 4.3 for that particular execution.

The runner is entirely deterministic given the schedule (or the seeded
random generator), which keeps every experiment replayable.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineError, ExecutionError, SpecificationError
from repro.model.execution import Execution
from repro.model.programs import Access, Breakpoint, TransactionProgram
from repro.model.steps import StepId, StepKind, StepRecord
from repro.model.variables import EntityStore

__all__ = ["System", "SystemRun"]


@dataclass
class SystemRun:
    """The outcome of one interleaved run of a system."""

    execution: Execution
    cut_levels: dict[str, dict[int, int]]
    results: dict[str, Any] = field(default_factory=dict)
    finished: set[str] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return set(self.cut_levels) <= self.finished


class _LiveTransaction:
    """Book-keeping for one running program."""

    def __init__(self, program: TransactionProgram) -> None:
        self.program = program
        self.generator = program.start()
        self.pending: Access | None = None
        self.steps_taken = 0
        self.cut_levels: dict[int, int] = {}
        # Access results in step order: the replay tape for partial
        # rollback (the paper's flexible *unit of recovery*).
        self.results_log: list[Any] = []
        self.result: Any = None
        self.finished = False
        self._advance(None)

    def _advance(self, sent: Any) -> None:
        """Pull effects until the next Access (recording breakpoints) or
        the end of the program."""
        send = getattr(self.generator, "send", None)
        while True:
            try:
                # send(None) on a fresh generator is equivalent to next(),
                # so the same call shape serves the first pull and the rest.
                # Plain iterators (no send) cannot receive results; their
                # effects simply ignore them.
                effect = send(sent) if send else next(self.generator)
            except StopIteration as stop:
                self.result = stop.value
                self.finished = True
                self.pending = None
                return
            sent = None
            if isinstance(effect, Breakpoint):
                if self.steps_taken > 0:
                    gap = self.steps_taken - 1
                    level = self.cut_levels.get(gap, effect.level)
                    self.cut_levels[gap] = min(level, effect.level)
                # A breakpoint before the first step is vacuous: there is
                # no gap for it to cut.
                continue
            if isinstance(effect, Access):
                self.pending = effect
                return
            raise SpecificationError(
                f"program {self.program.name!r} yielded {effect!r}; expected "
                "Access or Breakpoint"
            )

    def perform(self, store: EntityStore) -> StepRecord:
        if self.pending is None:
            raise EngineError(
                f"transaction {self.program.name!r} has no pending access"
            )
        access = self.pending
        step = StepId(self.program.name, self.steps_taken)
        before, after, result = store.apply(access.entity, access.fn)
        if access.kind is StepKind.READ and after != before:
            raise SpecificationError(
                f"{step}: access declared READ changed "
                f"{access.entity!r} from {before!r} to {after!r}"
            )
        self.steps_taken += 1
        self.results_log.append(result)
        record = StepRecord(step, access.entity, access.kind, before, after)
        self._advance(result)
        return record

    def fast_forward(self, results: list[Any]) -> None:
        """Replay a prefix of recorded access results without touching any
        store: after a partial rollback, the program is re-driven through
        its surviving prefix (deterministic programs reproduce the same
        accesses — the Section 6 compatibility condition).

        Must be called on a freshly constructed instance.
        """
        if self.steps_taken:
            raise EngineError("fast_forward requires a fresh transaction")
        for value in results:
            if self.pending is None:
                raise EngineError(
                    f"replay of {self.program.name!r} ran out of accesses"
                )
            self.steps_taken += 1
            self.results_log.append(value)
            self._advance(value)


class System:
    """A finite set of transaction programs over shared entities."""

    def __init__(
        self,
        programs: Iterable[TransactionProgram],
        initial_values: dict[str, Any],
    ) -> None:
        self._programs: dict[str, TransactionProgram] = {}
        for program in programs:
            if program.name in self._programs:
                raise SpecificationError(
                    f"duplicate transaction name {program.name!r}"
                )
            self._programs[program.name] = program
        self._initial_values = dict(initial_values)

    @property
    def transactions(self) -> tuple[str, ...]:
        return tuple(self._programs)

    @property
    def initial_values(self) -> dict[str, Any]:
        return dict(self._initial_values)

    def program(self, name: str) -> TransactionProgram:
        try:
            return self._programs[name]
        except KeyError:
            raise SpecificationError(f"unknown transaction {name!r}") from None

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def run(
        self,
        schedule: Sequence[str] | None = None,
        rng: random.Random | None = None,
        allow_partial: bool = False,
    ) -> SystemRun:
        """Run the system to completion under an interleaving.

        ``schedule`` names, per performed step, which transaction takes
        it; when omitted, a seeded ``rng`` draws uniformly among the
        transactions that still have pending accesses (the paper drops
        fairness, but a uniform draw is fair in practice).  Unless
        ``allow_partial``, every transaction must run to completion.
        """
        store = EntityStore(self._initial_values)
        live = {
            name: _LiveTransaction(program)
            for name, program in self._programs.items()
        }
        records: list[StepRecord] = []

        if schedule is not None:
            for name in schedule:
                if name not in live:
                    raise SpecificationError(f"unknown transaction {name!r}")
                txn = live[name]
                if txn.finished:
                    raise ExecutionError(
                        f"schedule steps finished transaction {name!r}"
                    )
                records.append(txn.perform(store))
        else:
            rng = rng or random.Random(0)
            while True:
                runnable = sorted(
                    name for name, txn in live.items() if not txn.finished
                )
                if not runnable:
                    break
                name = rng.choice(runnable)
                records.append(live[name].perform(store))

        unfinished = sorted(
            name for name, txn in live.items() if not txn.finished
        )
        if unfinished and not allow_partial:
            raise ExecutionError(
                f"transactions did not finish: {unfinished}; pass "
                "allow_partial=True to accept a partial execution"
            )
        execution = Execution(records, dict(self._initial_values))
        return SystemRun(
            execution=execution,
            cut_levels={
                name: dict(txn.cut_levels) for name, txn in live.items()
            },
            results={
                name: txn.result for name, txn in live.items() if txn.finished
            },
            finished={name for name, txn in live.items() if txn.finished},
        )

    def serial_run(self, order: Sequence[str] | None = None) -> SystemRun:
        """Run the transactions one after another (ground truth)."""
        order = list(order) if order is not None else sorted(self._programs)
        store = EntityStore(self._initial_values)
        live: dict[str, _LiveTransaction] = {}
        records: list[StepRecord] = []
        for name in order:
            txn = _LiveTransaction(self.program(name))
            live[name] = txn
            while not txn.finished:
                records.append(txn.perform(store))
        execution = Execution(records, dict(self._initial_values))
        return SystemRun(
            execution=execution,
            cut_levels={n: dict(t.cut_levels) for n, t in live.items()},
            results={n: t.result for n, t in live.items()},
            finished=set(live),
        )

    def __repr__(self) -> str:
        return (
            f"System({len(self._programs)} transactions, "
            f"{len(self._initial_values)} entities)"
        )
