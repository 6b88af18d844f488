"""Transaction programs: generators of accesses and breakpoints.

The paper's transactions are nondeterministic automata whose steps access
one entity each and whose later behaviour may depend on the values seen
earlier (the Section 4.3 transfer reads balances and decides which
accounts to touch next).  We realise them as Python generator functions
that *yield effects*:

* :class:`Access` — touch one entity with an access function
  ``old value -> (new value, result)``; the generator receives ``result``
  back.  :func:`read`, :func:`write` and :func:`update` build the common
  shapes.
* :class:`Breakpoint` — declare that the point between the previous and
  the next access is a breakpoint at the given level *and every finer
  level* (breakpoint descriptions are nested, so a level-``i`` cut is
  automatically a cut in ``B(j)`` for all ``j >= i``).

Because breakpoints are emitted inline by the program, the Section 6
*compatibility condition* — two executions sharing a prefix agree on the
breakpoint immediately after it — holds by construction for deterministic
programs: the generator's state after a prefix of results determines the
next effect.  :mod:`repro.model.breakpoints` can still check externally
supplied specifications.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.errors import SpecificationError
from repro.model.steps import StepKind

__all__ = [
    "Access",
    "Breakpoint",
    "read",
    "write",
    "update",
    "TransactionProgram",
    "straight_line_program",
]


class Access(NamedTuple):
    """Yielded by a program to atomically access one entity.

    ``fn`` maps the entity's old value to ``(new value, result)``; the
    result is sent back into the generator.  ``kind`` is a scheduling
    hint (read locks are shared); it must be honest — a ``READ`` access
    must not change the value, which the runtime asserts.  A
    :class:`~typing.NamedTuple`, like the step types
    (:mod:`repro.model.steps`).
    """

    entity: str
    fn: Callable[[Any], tuple[Any, Any]]
    kind: StepKind = StepKind.UPDATE


@dataclass(frozen=True)
class Breakpoint:
    """Yielded by a program to declare a breakpoint at ``level`` (and all
    finer levels) between the previous and the next access."""

    level: int


def read(entity: str) -> Access:
    """Read an entity's value (the value is sent back to the program)."""
    return Access(entity, lambda v: (v, v), StepKind.READ)


def write(entity: str, value: Any) -> Access:
    """Blindly overwrite an entity's value."""
    return Access(entity, lambda v: (value, None), StepKind.WRITE)


def update(entity: str, fn: Callable[[Any], Any]) -> Access:
    """Read-modify-write: the new value is ``fn(old)``; the old value is
    sent back to the program."""
    return Access(entity, lambda v: (fn(v), v), StepKind.UPDATE)


ProgramBody = Callable[..., Generator[Access | Breakpoint, Any, Any]]


@dataclass(frozen=True)
class TransactionProgram:
    """A named, re-runnable transaction program.

    ``body`` is a generator function; ``args``/``kwargs`` are passed on
    each (re)start, so a program can be retried from scratch after a
    rollback.  The paper's three units — logical, atomicity, recovery —
    map onto: the whole program (logical unit), the segments between its
    declared breakpoints (atomicity units), and whatever the engine's
    scheduler chooses to roll back (recovery unit; our engine restarts
    whole programs, a documented design choice).
    """

    name: str
    body: ProgramBody
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def start(self) -> Generator[Access | Breakpoint, Any, Any]:
        """A fresh generator for one execution attempt."""
        return self.body(*self.args, **dict(self.kwargs))

    def __repr__(self) -> str:
        return f"TransactionProgram({self.name!r})"


def straight_line_program(
    name: str,
    effects: Iterable[Access | Breakpoint],
) -> TransactionProgram:
    """A program that performs a fixed effect list (no branching).

    Handy for tests and workload generators; results of accesses are
    ignored.
    """
    effects = list(effects)
    for effect in effects:
        if not isinstance(effect, (Access, Breakpoint)):
            raise SpecificationError(
                f"effect {effect!r} is neither an Access nor a Breakpoint"
            )

    def body():
        for effect in effects:
            yield effect

    return TransactionProgram(name, body)
