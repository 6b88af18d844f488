"""Step identities and step records (Section 3.1).

An atomic execution step of a transaction "involves accessing one variable
and possibly changing the process' state or the variable's value or both".
We identify the ``i``-th step of a transaction by a :class:`StepId` — the
paper's formal device of taking the elements of the ordered step set to be
pairs ``(i, a_i)`` — and record what the step did in a :class:`StepRecord`.

Both are :class:`~typing.NamedTuple`\\ s, as is
:class:`repro.model.programs.Access`: every performed step builds one of
each, and every closure-window lookup hashes a ``StepId``; a tuple does
both in C.  They hash as the frozen dataclasses they replaced did
(``hash((field, ...))``), so no set or dict iteration order moved.  They
also compare equal to plain tuples — ``StepId("t", 0) == ("t", 0)`` — so
never key one container by both step ids and ``(name, attempt)`` pairs.
Derive a changed copy with ``_replace``, not ``dataclasses.replace``;
``StepId.index`` is the field, shadowing ``tuple.index``.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple

__all__ = ["StepId", "StepKind", "StepRecord"]


class StepId(NamedTuple):
    """The identity of one step: ``index``-th step of ``transaction``."""

    transaction: str
    index: int

    def __repr__(self) -> str:
        return f"{self.transaction}[{self.index}]"


class StepKind(str, Enum):
    """How a step used its entity.

    The paper's model makes every step a general access; reads and blind
    writes are the two permissible special cases, and schedulers exploit
    the distinction (read locks are shared).
    """

    READ = "read"
    WRITE = "write"
    UPDATE = "update"


class StepRecord(NamedTuple):
    """One performed step: which entity was accessed and how its value
    changed.  ``value_before == value_after`` for pure reads."""

    step: StepId
    entity: str
    kind: StepKind
    value_before: Any
    value_after: Any

    @property
    def is_read_only(self) -> bool:
        return self.kind is StepKind.READ

    def __repr__(self) -> str:
        if self.is_read_only:
            return f"<{self.step} R {self.entity}={self.value_before!r}>"
        return (
            f"<{self.step} {self.kind.value[0].upper()} {self.entity}: "
            f"{self.value_before!r}->{self.value_after!r}>"
        )
