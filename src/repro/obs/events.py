"""The flight recorder's event taxonomy and JSONL wire format.

Every observable state change in the engine and the distributed runtime
is one :class:`Event`: a ``kind`` from the closed vocabulary below, a
timestamp ``at`` (engine tick or network simulation time, depending on
the emitting layer), and a flat ``data`` dict of primitives.  The closed
vocabulary is the schema: sinks validate against it, and the analysis
helpers (:mod:`repro.obs.explain`) key off it.

Serialisation is line-delimited JSON (one event per line), chosen so a
recording can be streamed, truncated, grepped, and parsed back without
a footer or index.  Values that are not JSON-native are degraded to
``repr`` strings at *dump* time, never at emit time — the hot path must
not pay for serialisation it may never need.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecificationError

__all__ = [
    "EVENT_KINDS",
    "EVENT_TAXONOMY",
    "Event",
    "dump_jsonl",
    "event_from_dict",
    "event_to_dict",
    "load_jsonl",
]


#: The taxonomy, grouped by emitting layer.  Keep DESIGN.md §4e in sync.
EVENT_TAXONOMY: dict[str, tuple[str, ...]] = {
    "engine": (
        "step.perform",        # a step executed against the store
        "step.undo",           # a before-image was restored
        "txn.wait",            # a pending access was told to wait
        "txn.commit-wait",     # a finished txn waits on uncommitted deps
        "txn.commit",          # a transaction committed
        "txn.abort",           # a rollback claimed one or more victims
        "txn.restart",         # a victim was rescheduled (fresh attempt)
        "txn.partial-rollback",  # segment recovery kept a prefix
        "cascade.join",        # the cascade rule pulled in another attempt
    ),
    "schedulers": (
        "lock.acquire",
        "lock.wait",
        "lock.release",
        "deadlock",            # a waits-for / dependency cycle, with victim
        "ts.conflict",         # timestamp-order violation (aborts requester)
        "closure.check",       # a closure query ran (observe/hypothetical)
        "cycle.detect",        # the closure acquired a cycle, with witness
        "breakpoint.wait",     # prevention: waiting for blockers' breakpoints
        "retention.wait",      # nested-lock: entity retained across a segment
        "certify.fail",        # commit-time certification rejected a commit
        "park",                # detect: victim parked behind cycle peers
    ),
    "closure-window": (
        "closure.rebuild",     # live engine rebuilt from the surviving window
        "closure.prune",       # committed history pruned behind shortcuts
    ),
    "audit": (
        "audit.check",         # the online monitor folded in a commit
        "audit.violation",     # correctability lost, with the witness cycle
    ),
    "distributed": (
        "msg.send",
        "msg.recv",
        "msg.drop",            # link fault ate the message
        "msg.dup",             # link fault duplicated it
        "msg.reorder",         # relaxed-FIFO escape
        "msg.sever",           # partition severed the link
        "msg.lost-down",       # delivery/timer died at a crashed node
        "node.crash",
        "node.recover",
        "node.park",           # a migrating txn parked at its entity's owner
        "seq.grant",
        "seq.deny",
        "seq.commit",
        "seq.abort",
        "seq.recover",         # sequencer reconciled a rebooted node
    ),
}

EVENT_KINDS: frozenset[str] = frozenset(
    kind for kinds in EVENT_TAXONOMY.values() for kind in kinds
)


@dataclass(frozen=True)
class Event:
    """One recorded occurrence.  ``at`` is the emitting layer's clock:
    the engine's logical tick, or the network's simulation time."""

    kind: str
    at: float
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SpecificationError(f"unknown event kind {self.kind!r}")


def _jsonify(value: Any) -> Any:
    """Degrade a payload value to JSON-native types (repr as last resort)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonify(v) for v in items]
    return repr(value)


def event_to_dict(event: Event) -> dict[str, Any]:
    return {
        "kind": event.kind,
        "at": event.at,
        "data": _jsonify(event.data),
    }


def event_from_dict(payload: Mapping[str, Any]) -> Event:
    return Event(
        kind=payload["kind"],
        at=payload["at"],
        data=dict(payload.get("data", {})),
    )


def dump_jsonl(events: Iterable[Event], path: str) -> int:
    """Write events one-per-line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_jsonl(path: str) -> list[Event]:
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events
