"""Fold the flight-recorder event stream into causal spans.

The tracer records *points* (:class:`repro.obs.events.Event`); a human
staring at a long run wants *intervals*: how long did attempt 3 of
``audit0`` live before the cascade killed it, where inside that lifetime
did it sit waiting, which abort seeded which cascade victim, and how
long did each sequencer message spend on the wire.  This module derives
those intervals from the event stream alone — no engine state needed, so
it works on a loaded ``trace.jsonl`` as well as a live recording — and
exports them as **Chrome trace-event JSON** (the `Trace Event Format`_),
which Perfetto and ``chrome://tracing`` render directly.

Mapping from the event taxonomy:

* **Transaction attempt spans** — one complete (``ph="X"``) slice per
  (transaction, attempt), opened at the attempt's first sighting (or its
  ``txn.restart`` wake) and closed by ``txn.commit`` / membership in a
  ``txn.abort`` victim or cascade list / ``txn.partial-rollback``.
  One thread track per transaction, under the "transactions" process.
* **Wait intervals** — consecutive ``txn.wait`` / ``txn.commit-wait``
  ticks merge into one nested "wait" slice on the same track.
* **Cascade parent links** — each ``cascade.join`` becomes a flow arrow
  (``ph="s"`` at the cause's track → ``ph="f"`` at the victim's).
* **Network message spans** — ``msg.send`` → ``msg.recv`` matched FIFO
  per (kind, target) channel, honouring the fault taxonomy: ``msg.drop``
  / ``msg.sever`` cancel the just-sent message, ``msg.dup`` enqueues an
  extra expected delivery, ``msg.lost-down`` consumes the in-flight
  head.  One thread track per receiving node, under the "network"
  process.  Unmatched sends degrade to instants, never vanish.
* **Point events** — deadlocks, cycle detections, certification
  failures, node crash/recover and closure rebuild/prune become instant
  markers on the relevant track.

Timestamps: the recorder's clock (engine tick / network sim-time) maps
to trace microseconds at ×1000, so one tick renders as one millisecond
(``displayTimeUnit: "ms"``).

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import SpecificationError
from repro.obs.events import Event

__all__ = [
    "build_spans",
    "chrome_trace",
    "validate_trace",
]

#: tick → trace microseconds (one tick renders as one millisecond).
TICK_US = 1000

_TXN_PID = 1
_NET_PID = 2

#: Point events rendered as instant markers: kind → short marker name.
_INSTANTS = {
    "deadlock": "deadlock",
    "cycle.detect": "cycle",
    "ts.conflict": "ts-conflict",
    "certify.fail": "certify-fail",
    "closure.rebuild": "closure-rebuild",
    "closure.prune": "closure-prune",
    "node.crash": "crash",
    "node.recover": "recover",
}

#: ``txn.wait``-family kinds that accumulate into wait slices.
_WAITS = ("txn.wait", "txn.commit-wait")


class _TrackAllocator:
    """Stable integer thread ids per track name, plus metadata events."""

    def __init__(self, pid: int, process_name: str) -> None:
        self.pid = pid
        self.process_name = process_name
        self._tids: dict[str, int] = {}

    def tid(self, name: str) -> int:
        tid = self._tids.get(name)
        if tid is None:
            tid = self._tids[name] = len(self._tids) + 1
        return tid

    def metadata(self) -> list[dict]:
        events = [
            {
                "ph": "M", "name": "process_name", "pid": self.pid,
                "tid": 0, "ts": 0, "args": {"name": self.process_name},
            }
        ]
        for name, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": self.pid,
                    "tid": tid, "ts": 0, "args": {"name": name},
                }
            )
        return events


class _Attempt:
    """One open transaction attempt being tracked."""

    __slots__ = ("start", "attempt", "waits", "wait_start", "wait_last")

    def __init__(self, start: float, attempt: int) -> None:
        self.start = start
        self.attempt = attempt
        self.waits: list[tuple[float, float]] = []
        self.wait_start: float | None = None
        self.wait_last = 0.0

    def note_wait(self, at: float) -> None:
        if self.wait_start is not None and at <= self.wait_last + 1:
            self.wait_last = at
            return
        self.flush_wait()
        self.wait_start = at
        self.wait_last = at

    def flush_wait(self) -> None:
        if self.wait_start is not None:
            # A wait tick covers the whole tick: [start, last + 1).
            self.waits.append((self.wait_start, self.wait_last + 1))
            self.wait_start = None


def build_spans(events: Iterable[Event]) -> list[dict]:
    """Derive the raw trace-event dicts (unsorted, no container)."""
    txn_tracks = _TrackAllocator(_TXN_PID, "transactions")
    net_tracks = _TrackAllocator(_NET_PID, "network")
    out: list[dict] = []

    open_attempts: dict[str, _Attempt] = {}
    last_at = 0.0
    flow_id = 0

    # In-flight network messages per (kind, target) FIFO channel; each
    # entry is the send timestamp.
    in_flight: dict[tuple[str, str], list[float]] = {}

    def attempt_for(txn: str, at: float, attempt_hint: int | None) -> _Attempt:
        state = open_attempts.get(txn)
        if state is None:
            state = open_attempts[txn] = _Attempt(
                at, attempt_hint if attempt_hint is not None else 0
            )
        elif attempt_hint is not None and attempt_hint > state.attempt:
            state.attempt = attempt_hint
        return state

    def close_attempt(txn: str, at: float, outcome: str) -> None:
        state = open_attempts.pop(txn, None)
        if state is None:
            # A victim we never saw act (e.g. a trace slice): point marker.
            out.append(
                {
                    "ph": "i", "name": outcome, "cat": "txn", "s": "t",
                    "pid": _TXN_PID, "tid": txn_tracks.tid(txn),
                    "ts": int(at * TICK_US), "args": {"txn": txn},
                }
            )
            return
        state.flush_wait()
        tid = txn_tracks.tid(txn)
        end = max(at, state.start)
        out.append(
            {
                "ph": "X",
                "name": f"{txn}#{state.attempt} ({outcome})",
                "cat": "txn",
                "pid": _TXN_PID, "tid": tid,
                "ts": int(state.start * TICK_US),
                "dur": int((end - state.start) * TICK_US),
                "args": {"txn": txn, "attempt": state.attempt,
                         "outcome": outcome},
            }
        )
        for wait_start, wait_end in state.waits:
            out.append(
                {
                    "ph": "X", "name": "wait", "cat": "wait",
                    "pid": _TXN_PID, "tid": tid,
                    "ts": int(wait_start * TICK_US),
                    "dur": int((min(wait_end, end) - wait_start) * TICK_US),
                    "args": {"txn": txn},
                }
            )

    for event in events:
        kind, at, data = event.kind, event.at, event.data
        last_at = max(last_at, at)

        if kind == "step.perform":
            state = attempt_for(data["txn"], at, data.get("attempt"))
            state.flush_wait()
        elif kind in _WAITS:
            attempt_for(data["txn"], at, data.get("attempt")).note_wait(at)
        elif kind == "txn.commit":
            attempt_for(data["txn"], at, data.get("attempt"))
            close_attempt(data["txn"], at, "commit")
        elif kind == "txn.abort":
            for name in data.get("victims", ()):
                close_attempt(name, at, "abort")
            for name in data.get("cascade", ()):
                close_attempt(name, at, "cascade-abort")
        elif kind == "txn.partial-rollback":
            close_attempt(data["txn"], at, "partial-rollback")
        elif kind == "txn.restart":
            # The new attempt starts life asleep until its wake tick.
            start = data.get("wake", at)
            open_attempts[data["txn"]] = _Attempt(
                start, data.get("attempt", 0)
            )
        elif kind == "cascade.join":
            flow_id += 1
            cause = str(data.get("cause", "?"))
            victim = str(data.get("txn", "?"))
            ts = int(at * TICK_US)
            out.append(
                {
                    "ph": "s", "name": "cascade", "cat": "cascade",
                    "id": flow_id, "pid": _TXN_PID,
                    "tid": txn_tracks.tid(cause), "ts": ts,
                    "args": {"entity": data.get("entity")},
                }
            )
            out.append(
                {
                    "ph": "f", "bp": "e", "name": "cascade",
                    "cat": "cascade", "id": flow_id, "pid": _TXN_PID,
                    "tid": txn_tracks.tid(victim), "ts": ts,
                    "args": {"entity": data.get("entity")},
                }
            )
        elif kind == "msg.send":
            in_flight.setdefault(
                (data["kind"], data["target"]), []
            ).append(at)
        elif kind in ("msg.drop", "msg.sever"):
            # Emitted at send time: cancel the most recent matching send.
            pending = in_flight.get((data["kind"], data["target"]))
            if pending:
                pending.pop()
        elif kind == "msg.dup":
            # The duplicate is a second expected delivery of the same send.
            in_flight.setdefault(
                (data["kind"], data["target"]), []
            ).append(at)
        elif kind in ("msg.recv", "msg.lost-down"):
            pending = in_flight.get((data["kind"], data["target"]))
            tid = net_tracks.tid(str(data["target"]))
            if pending:
                sent = pending.pop(0)
                outcome = "recv" if kind == "msg.recv" else "lost-down"
                out.append(
                    {
                        "ph": "X",
                        "name": f"{data['kind']} ({outcome})"
                        if outcome != "recv" else data["kind"],
                        "cat": "msg",
                        "pid": _NET_PID, "tid": tid,
                        "ts": int(sent * TICK_US),
                        "dur": int((at - sent) * TICK_US),
                        "args": {"kind": data["kind"],
                                 "target": data["target"]},
                    }
                )
            else:
                out.append(
                    {
                        "ph": "i", "name": data["kind"], "cat": "msg",
                        "s": "t", "pid": _NET_PID, "tid": tid,
                        "ts": int(at * TICK_US),
                        "args": {"kind": data["kind"]},
                    }
                )
        elif kind in _INSTANTS:
            txn = data.get("txn") or data.get("victim")
            node = data.get("node")
            if node is not None:
                pid, tid = _NET_PID, net_tracks.tid(str(node))
            elif txn is not None:
                pid, tid = _TXN_PID, txn_tracks.tid(str(txn))
            else:
                pid, tid = _TXN_PID, txn_tracks.tid("engine")
            out.append(
                {
                    "ph": "i", "name": _INSTANTS[kind], "cat": "mark",
                    "s": "t", "pid": pid, "tid": tid,
                    "ts": int(at * TICK_US),
                    "args": {
                        k: v for k, v in data.items()
                        if isinstance(v, (str, int, float, bool))
                    },
                }
            )

    # Close anything still open at the end of the recording (a run cut
    # off by until_tick, or an infinite open-system transaction).
    for txn in sorted(open_attempts):
        close_attempt(txn, last_at, "open")
    # Surface sends that never delivered (dropped after the recording
    # window, or eaten without a fault event) as instants.
    for (msg_kind, target), pending in sorted(in_flight.items()):
        for sent in pending:
            out.append(
                {
                    "ph": "i", "name": f"{msg_kind} (in flight)",
                    "cat": "msg", "s": "t", "pid": _NET_PID,
                    "tid": net_tracks.tid(str(target)),
                    "ts": int(sent * TICK_US),
                    "args": {"kind": msg_kind, "target": target},
                }
            )

    return txn_tracks.metadata() + net_tracks.metadata() + out


def chrome_trace(events: Iterable[Event]) -> dict:
    """The full Chrome trace-event JSON container, sorted by ``ts``."""
    spans = build_spans(events)
    # Longer slices first on ts ties, so nested waits sit inside their
    # enclosing attempt slice when both start on the same tick.
    spans.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], -e.get("dur", 0))
    )
    return {"traceEvents": spans, "displayTimeUnit": "ms"}


def validate_trace(trace: dict) -> None:
    """Check a trace against the Chrome trace-event schema (the subset
    we emit): the container shape, per-event required keys, monotone
    ``ts``, non-negative ``X`` durations, matched ``B``/``E`` pairs per
    (pid, tid), and paired flow ``s``/``f`` ids.  Raises
    :class:`SpecificationError` on the first violation.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise SpecificationError("trace must be a dict with 'traceEvents'")
    events: Sequence[dict] = trace["traceEvents"]
    last_ts = None
    begin_stacks: dict[tuple[int, int], int] = {}
    flows: dict[int, int] = {}
    for index, event in enumerate(events):
        for key in ("ph", "pid", "tid", "ts"):
            if key not in event:
                raise SpecificationError(
                    f"event {index} missing required key {key!r}"
                )
        ph = event["ph"]
        if not isinstance(event["ts"], int) or event["ts"] < 0:
            raise SpecificationError(f"event {index}: bad ts {event['ts']!r}")
        if last_ts is not None and event["ts"] < last_ts:
            raise SpecificationError(
                f"event {index}: ts {event['ts']} < previous {last_ts}"
            )
        last_ts = event["ts"]
        track = (event["pid"], event["tid"])
        if ph == "X":
            if not isinstance(event.get("dur"), int) or event["dur"] < 0:
                raise SpecificationError(
                    f"event {index}: X needs integer dur >= 0"
                )
        elif ph == "B":
            begin_stacks[track] = begin_stacks.get(track, 0) + 1
        elif ph == "E":
            depth = begin_stacks.get(track, 0)
            if depth <= 0:
                raise SpecificationError(
                    f"event {index}: E without matching B on {track}"
                )
            begin_stacks[track] = depth - 1
        elif ph in ("s", "f"):
            if "id" not in event:
                raise SpecificationError(f"event {index}: flow needs an id")
            flows[event["id"]] = flows.get(event["id"], 0) + (
                1 if ph == "s" else -1
            )
        elif ph in ("i", "M"):
            pass
        else:
            raise SpecificationError(f"event {index}: unknown phase {ph!r}")
    unmatched = [track for track, depth in begin_stacks.items() if depth]
    if unmatched:
        raise SpecificationError(f"unclosed B events on tracks {unmatched}")
    bad_flows = [fid for fid, balance in flows.items() if balance != 0]
    if bad_flows:
        raise SpecificationError(f"unpaired flow ids {bad_flows}")
