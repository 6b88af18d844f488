"""Tracers: where flight-recorder events go.

No instrumented site talks to a tracer.  Each producer reports through
its owner's one emission point, and first asks whether any sink reads
the kind it is about to report::

    if "lock.wait" in self.reads:
        self.emit("lock.wait", txn=name, entity=entity)

The test is the whole cost of a decision nobody reads: no kwargs dict,
no :class:`~repro.obs.events.Event` and no string formatting is ever
built.  Every sink declares the kinds it reads as a class attribute,
``reads``; a tracer reads every kind of the taxonomy.  There are four
owners — the engine (``Engine._emit``, which stamps the tick and hands
each record to the history, WAL and tracer that read its kind, through
:meth:`Tracer.on_decision`), the scheduler and its closure window (both
handed the engine's), and the network (``Network.emit``, which stamps
simulation time for the sequencer, the nodes and itself) — and they are
the only code that reads a tracer's ``reads`` (DESIGN.md §4e).
:data:`NULL_TRACER`, the default everywhere, reads nothing.

Sinks:

* :class:`RingTracer` — bounded in-memory ring (``collections.deque``);
  the default for interactive use and tests.  ``capacity=None`` keeps
  everything.
* :class:`StreamTracer` — append-only JSONL stream for recordings that
  outlive the process (or exceed memory).
* :class:`repro.obs.explain.AbortCauses` — reads only what
  ``explain_abort`` will; the service's.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any

from repro.obs.events import EVENT_KINDS, Event, event_to_dict

__all__ = ["NULL_TRACER", "NullTracer", "RingTracer", "StreamTracer", "Tracer"]


class Tracer:
    """Interface: ``enabled`` gates emission; ``emit`` records one event
    of a kind in ``reads``."""

    enabled: bool = True
    #: The kinds this sink reads; an owner hands it no other.
    reads: frozenset[str] = EVENT_KINDS

    def emit(self, kind: str, at: float, /, **data: Any) -> None:
        raise NotImplementedError

    def on_decision(self, kind: str, tick: int, fields: dict) -> None:
        """The engine's sink interface: the tracer keeps everything but
        a commit's ``steps`` — the history sinks' ``(seq, StepRecord)``
        list, passed by reference; ``Event.data`` stays flat."""
        if kind == "txn.commit":
            fields = {k: v for k, v in fields.items() if k != "steps"}
        self.emit(kind, tick, **fields)

    def events(self) -> list[Event]:
        """Recorded events, oldest first (empty for write-only sinks)."""
        return []

    def snapshot_state(self) -> Any:
        """What a restart from an engine snapshot needs of this tracer
        (None: a recording is not restored, it starts afresh)."""
        return None

    def restore_state(self, state: Any) -> None:
        """Reinstate what :meth:`snapshot_state` returned."""

    def close(self) -> None:
        pass


class NullTracer(Tracer):
    """The disabled tracer: never records, never allocates."""

    __slots__ = ()
    enabled = False
    reads = frozenset()

    def emit(self, kind: str, at: float, /, **data: Any) -> None:
        pass


#: Shared disabled tracer — the default for every instrumented component.
NULL_TRACER = NullTracer()


class RingTracer(Tracer):
    """Keep the last ``capacity`` events in memory (all, when ``None``)."""

    __slots__ = ("_events", "dropped")
    enabled = True

    def __init__(self, capacity: int | None = 65536) -> None:
        self._events: deque[Event] = deque(maxlen=capacity)
        #: Events evicted by the ring bound (recordings must not silently
        #: truncate: analysis checks this before claiming completeness).
        self.dropped = 0

    def emit(self, kind: str, at: float, /, **data: Any) -> None:
        ring = self._events
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(Event(kind, at, data))

    def events(self) -> list[Event]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


class StreamTracer(Tracer):
    """Write each event as one JSONL line the moment it is emitted."""

    __slots__ = ("_handle", "_owns", "written")
    enabled = True

    def __init__(self, sink: str | IO[str]) -> None:
        if isinstance(sink, str):
            self._handle: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns = True
        else:
            self._handle = sink
            self._owns = False
        self.written = 0

    def emit(self, kind: str, at: float, /, **data: Any) -> None:
        payload = event_to_dict(Event(kind, at, data))
        self._handle.write(json.dumps(payload, sort_keys=True))
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()
