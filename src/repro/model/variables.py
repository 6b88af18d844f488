"""Entities (the paper's *variables*) and the entity store.

Entities are internal variables of the application database: they start
from declared initial values and are accessed only through transaction
steps (Section 3.2).  The store keeps initial and current values only;
what each step did is the engine's log, and the Section 3.1 consistency
requirements are checked over it by :meth:`Execution.validate`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import EngineError

__all__ = ["EntityStore"]


class EntityStore:
    """A mapping of entity names to values.

    The store is deliberately dumb: all concurrency decisions live in the
    schedulers.  It only enforces that entities exist and faithfully
    applies access functions.
    """

    def __init__(self, initial: dict[str, Any]) -> None:
        self._initial = dict(initial)
        self._values = dict(initial)

    # ------------------------------------------------------------------

    @property
    def entities(self) -> tuple[str, ...]:
        return tuple(self._values)

    def initial_value(self, entity: str) -> Any:
        self._require(entity)
        return self._initial[entity]

    def initial_snapshot(self) -> dict[str, Any]:
        return dict(self._initial)

    def value(self, entity: str) -> Any:
        self._require(entity)
        return self._values[entity]

    def snapshot(self) -> dict[str, Any]:
        return dict(self._values)

    # ------------------------------------------------------------------

    def apply(self, entity: str, fn) -> tuple[Any, Any, Any]:
        """Apply access function ``fn`` (old value -> (new value, result))
        to ``entity``.  Returns ``(value_before, value_after, result)``."""
        self._require(entity)
        before = self._values[entity]
        after, result = fn(before)
        self._values[entity] = after
        return before, after, result

    def declare(self, entity: str, value: Any) -> None:
        """Register a new entity with its initial value (open-system
        ingest).  Idempotent when the entity already exists with the same
        *initial* value; redeclaring with a different one is an error —
        an entity's starting point is part of the application database.

        Declaring an entity nobody has accessed yet is equivalent to
        having constructed the store with it up-front, which is what the
        service/library differential relies on.
        """
        if entity in self._values:
            if self._initial[entity] != value:
                raise EngineError(
                    f"entity {entity!r} already declared with initial "
                    f"value {self._initial[entity]!r}, not {value!r}"
                )
            return
        self._initial[entity] = value
        self._values[entity] = value

    def restore(self, entity: str, value: Any) -> None:
        """Force an entity back to ``value`` (rollback support)."""
        self._require(entity)
        self._values[entity] = value

    def snapshot_state(self) -> dict:
        """Picklable initial and current values for durability
        snapshots; insertion order is preserved."""
        return {"initial": dict(self._initial), "values": dict(self._values)}

    def restore_state(self, state: dict) -> None:
        self._initial = dict(state["initial"])
        self._values = dict(state["values"])

    # ------------------------------------------------------------------

    def _require(self, entity: str) -> None:
        if entity not in self._values:
            raise EngineError(f"unknown entity {entity!r}")

    def __contains__(self, entity: str) -> bool:
        return entity in self._values

    def __repr__(self) -> str:
        return f"EntityStore({len(self._values)} entities)"
