"""Migrating transactions ([RSL], as used in Section 6).

A transaction originates at a processor and migrates from entity to
entity: conceptually the message ``(p, t, s)`` carries the transaction's
origin and automaton state to the processor owning the next entity.  In
this simulation the "state" is the live program generator, carried inside
message payloads — the honest simulation shortcut for state migration.
"""

from __future__ import annotations

from typing import Any

from repro.model.programs import TransactionProgram
from repro.model.steps import StepRecord
from repro.model.system import _LiveTransaction
from repro.model.variables import EntityStore

__all__ = ["MigratingTransaction"]


class MigratingTransaction:
    """One attempt of a transaction travelling through the network."""

    def __init__(
        self, program: TransactionProgram, origin: str, attempt: int
    ) -> None:
        self.program = program
        self.origin = origin
        self.attempt = attempt
        self.live = _LiveTransaction(program)

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def finished(self) -> bool:
        return self.live.finished

    @property
    def result(self) -> Any:
        return self.live.result

    @property
    def pending_entity(self) -> str | None:
        return self.live.pending.entity if self.live.pending else None

    @property
    def steps_taken(self) -> int:
        return self.live.steps_taken

    @property
    def cut_levels(self) -> dict[int, int]:
        return dict(self.live.cut_levels)

    def perform(self, store: EntityStore) -> StepRecord:
        return self.live.perform(store)

    def __repr__(self) -> str:
        return (
            f"MigratingTransaction({self.name!r}@{self.attempt}, "
            f"origin={self.origin!r}, steps={self.steps_taken})"
        )
