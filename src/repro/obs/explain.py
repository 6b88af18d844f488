"""Turn a recorded event stream back into a story.

Two renderings:

* :func:`format_timeline` — a per-tick textual timeline of a run, the
  flight recorder's flat playback;
* :func:`explain_abort` — the causal chain behind one transaction's
  abort, reconstructed from the event stream alone: which cycle (with
  its witness) or deadlock started the rollback, and — for cascade
  victims — which dirty entity access pulled them in, link by link,
  back to the seed victim.

Both work on ``list[Event]`` only (no live objects), so they apply
equally to an in-memory ring and a parsed JSONL recording — and to the
handful of events :class:`AbortCauses` keeps of a live stream for a
consumer that will only ever ask :func:`explain_abort`.
"""

from __future__ import annotations

from repro.obs.events import Event
from repro.obs.tracer import Tracer

__all__ = [
    "AbortCauses",
    "aborted_transactions",
    "explain_abort",
    "format_timeline",
]

#: Everything :func:`explain_abort` reads of a stream: the rollbacks,
#: what can set one off, and the links of its cascade.
_ABORTS = ("txn.abort", "seq.abort")
_TRIGGERS = (
    "cycle.detect",
    "deadlock",
    "ts.conflict",
    "certify.fail",
)
_LINK = "cascade.join"
_READ = frozenset((*_ABORTS, *_TRIGGERS, _LINK))


def _fields(data: dict) -> str:
    return " ".join(
        f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}"
        for key, value in data.items()
    )


def format_timeline(
    events: list[Event], limit: int | None = None
) -> list[str]:
    """One line per event, grouped under per-tick headers.

    With ``limit``, only the last ``limit`` *event lines* are kept (the
    tail of a run is usually where the question is).
    """
    if limit is not None and limit >= 0:
        events = events[len(events) - min(limit, len(events)):]
    lines: list[str] = []
    current: float | None = None
    for event in events:
        if event.at != current:
            current = event.at
            tick = int(current) if float(current).is_integer() else current
            lines.append(f"t={tick}")
        lines.append(f"  {event.kind:<18} {_fields(event.data)}")
    return lines


# ---------------------------------------------------------------------------
# abort explanation
# ---------------------------------------------------------------------------


def aborted_transactions(events: list[Event]) -> list[str]:
    """Names that appear as abort victims (seed or cascade), in first-
    abort order."""
    names: list[str] = []
    for event in events:
        if event.kind in _ABORTS:
            for name in _rolled_back(event):
                if name not in names:
                    names.append(name)
    return names


def _rolled_back(abort: Event) -> list[str]:
    return [*abort.data.get("victims", ()), *abort.data.get("cascade", ())]


def _abort_events_for(events: list[Event], name: str) -> list[Event]:
    return [
        e for e in events if e.kind in _ABORTS and name in _rolled_back(e)
    ]


def _root_cause(events: list[Event], abort: Event) -> Event | None:
    """The cycle/deadlock/conflict event that triggered ``abort``: the
    latest trigger-kind event at or before the abort's timestamp."""
    best: Event | None = None
    for event in events:
        if event.at > abort.at:
            break
        if event.kind in _TRIGGERS:
            best = event
    return best


def _cascade_link(
    events: list[Event], name: str, abort_at: float
) -> Event | None:
    """The ``cascade.join`` event that pulled ``name`` into the rollback
    closest to ``abort_at``."""
    best: Event | None = None
    for event in events:
        if event.kind == _LINK and event.data.get("txn") == name:
            if event.at <= abort_at and (best is None or event.at >= best.at):
                best = event
    return best


def explain_abort(
    events: list[Event], name: str, which: int = 0
) -> list[str]:
    """Why did ``name`` abort?  Returns human-readable lines tracing the
    cause chain; empty when the stream shows no abort of ``name``.

    ``which`` selects among multiple aborts of the same transaction
    (0 = first).
    """
    aborts = _abort_events_for(events, name)
    if not aborts or which >= len(aborts):
        return []
    abort = aborts[which]
    lines: list[str] = []
    seen: set[str] = set()
    current = name
    indent = ""
    while current not in seen:
        seen.add(current)
        direct = current in abort.data.get("victims", ())
        if direct:
            reason = abort.data.get("reason", "")
            lines.append(
                f"{indent}{current} aborted at t={abort.at}: {reason}"
            )
            trigger = _root_cause(events, abort)
            if trigger is not None:
                witness = trigger.data.get("witness") or trigger.data.get(
                    "cycle"
                )
                detail = f"{indent}  trigger: {trigger.kind}"
                if witness:
                    detail += " witness " + " -> ".join(
                        str(step) for step in witness
                    )
                victim = trigger.data.get("victim")
                if victim:
                    detail += f" (victim {victim})"
                lines.append(detail)
            break
        link = _cascade_link(events, current, abort.at)
        if link is None:
            lines.append(
                f"{indent}{current} rolled back at t={abort.at} in the "
                f"cascade of {sorted(abort.data.get('victims', ()))} "
                f"({abort.data.get('reason', '')})"
            )
            break
        cause = link.data.get("cause")
        entity = link.data.get("entity")
        lines.append(
            f"{indent}{current} cascaded at t={link.at}: accessed "
            f"{entity!r} after a rolled-back write by {cause}"
        )
        if cause is None or cause == current:
            break
        current = cause
        indent += "  "
    return lines


class AbortCauses(Tracer):
    """The tracer of a consumer that only ever asks :func:`explain_abort`
    about a transaction's *first* abort, once (the service, building an
    envelope): of the whole stream it keeps, per rollback, the trigger,
    the ``cascade.join`` links and the abort itself — grouped, indexed
    by victim, and handed over by :meth:`take`.  ``explain_abort(take(
    name), name)`` equals ``explain_abort(complete recording, name)``.
    Memory is bounded by the rolled-back transactions not yet asked
    about.  It reads the kinds in :data:`_READ` and is handed no other,
    so ``dropped``, the count of events declined, stays 0."""

    reads = _READ

    def __init__(self) -> None:
        self.dropped = 0
        self._trigger: Event | None = None  # the latest one, any rollback's
        self._links: list[Event] = []  # of the rollback being decided
        self._first: dict[str, list[Event]] = {}

    def on_decision(self, kind: str, tick: float, fields: dict) -> None:
        event = Event(kind, tick, fields)
        if kind in _TRIGGERS:
            self._trigger = event
        elif kind == _LINK:
            self._links.append(event)
        else:
            trigger = [] if self._trigger is None else [self._trigger]
            group = [*trigger, *self._links, event]
            self._links = []
            for name in _rolled_back(event):
                self._first.setdefault(name, group)

    def emit(self, kind: str, at: float, /, **data) -> None:
        self.on_decision(kind, at, data)

    def snapshot_state(self) -> tuple:
        """The events held for transactions not yet asked about, and the
        latest trigger: a restart from an engine snapshot explains their
        aborts as a replay from genesis would."""
        return self._trigger, list(self._links), dict(self._first)

    def restore_state(self, state: tuple | None) -> None:
        if state is not None:
            trigger, links, first = state
            self._trigger, self._links, self._first = (
                trigger, list(links), dict(first)
            )

    def take(self, name: str) -> list[Event]:
        """The events behind ``name``'s first abort (none if it never
        aborted), released from the tracer."""
        return self._first.pop(name, [])

    def events(self) -> list[Event]:
        held = {
            id(event): event
            for group in self._first.values()
            for event in group
        }
        return list(held.values())
