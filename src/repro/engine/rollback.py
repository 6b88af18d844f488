"""Cascading-rollback computation, shared by the engine and the
distributed sequencer.

The recovery rule: once an attempt's *write* is rolled back, every
attempt that subsequently accessed that entity (it read the dirty value,
or overwrote it and undoing by before-images would clobber it) must roll
back too, recursively — from its first step, or, when the unit of
recovery is the atomicity segment, from the start of the segment that
made the access.  The closure of that rule over a sequenced access log
is what :func:`cascade_closure` computes; undoing then proceeds by
restoring before-images newest-first, which is exactly correct because
the cascade guarantees every suffix of an affected entity's history is
wholly rolled back.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import TypeVar

from repro.model.steps import StepKind, StepRecord

K = TypeVar("K", bound=Hashable)

__all__ = ["cascade_closure", "undo_plan"]


def _key_fields(prefix: str, key: object) -> dict[str, object]:
    """Trace-payload fields for an attempt key (engine and sequencer both
    use ``(name, attempt)`` tuples; anything else degrades to a string)."""
    if isinstance(key, tuple) and len(key) == 2:
        return {prefix: key[0], f"{prefix}_attempt": key[1]}
    return {prefix: str(key)}


def cascade_closure(
    entries: Sequence[tuple[K, StepRecord]],
    points: Mapping[K, int],
    emit=None,
    rewind: Callable[[K, int], int] | None = None,
) -> dict[K, int]:
    """Every attempt that rolls back with ``points``, mapped to the
    index of its first undone step.

    ``entries`` is the access log in global performance order, as
    ``(attempt key, record)`` pairs; ``points`` maps each victim attempt
    to the index of its first step to undo (0 undoes the whole attempt).
    An access sequenced after an undone write to its entity is undone
    too, and so is the rest of its attempt from a point of its own:
    step 0 (the transaction unit of recovery), or with ``rewind``,
    ``rewind(key, index)`` for the access at step ``index`` — the start
    of its atomicity segment (the segment unit).  An attempt already
    rolling back from a later step has its point lowered the same way.

    With ``emit`` (a caller's ``emit(kind, /, **fields)``, passed only
    when one of its sinks reads ``cascade.join``), every attempt the
    rule pulls in — and every later lowering of its point — is reported
    as a ``cascade.join`` naming the entity and the attempt whose undone
    write tainted it: the link the abort explainer follows back to the
    seed victim.
    """
    points = dict(points)
    # The per-entity index depends only on ``entries``; building it once
    # (not per fixpoint round) keeps long-log cascades linear per round.
    per_entity: dict[str, list[tuple[K, StepRecord]]] = {}
    for key, record in entries:
        per_entity.setdefault(record.entity, []).append((key, record))
    changed = True
    while changed:
        changed = False
        for entity, sequence in per_entity.items():
            tainted = False
            tainter: K | None = None
            for key, record in sequence:
                point = points.get(key)
                undone = point is not None and record.step.index >= point
                if tainted and not undone:
                    points[key] = (
                        0 if rewind is None
                        else rewind(key, record.step.index)
                    )
                    changed = undone = True
                    if emit is not None:
                        emit(
                            "cascade.join",
                            entity=entity,
                            **_key_fields("txn", key),
                            **_key_fields("cause", tainter),
                        )
                if undone and record.kind is not StepKind.READ:
                    tainted = True
                    tainter = key
    return points


def undo_plan(
    entries: Sequence[tuple[K, StepRecord]],
    cascade: set[K],
) -> list[tuple[str, object]]:
    """The ``(entity, value)`` restorations to apply, in order (newest
    write first)."""
    plan: list[tuple[str, object]] = []
    for key, record in reversed(entries):
        if key in cascade and record.kind is not StepKind.READ:
            plan.append((record.entity, record.value_before))
    return plan
