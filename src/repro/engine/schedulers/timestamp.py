"""Basic timestamp ordering ([L]) — the second serializability baseline.

Each attempt draws a fresh timestamp; an access out of timestamp order
(reading an entity already written by a younger timestamp, or writing one
already read/written by a younger timestamp) aborts the requesting
attempt, which restarts with a new timestamp.  Timestamp ordering permits
dirty reads, so recoverability rides on the engine's commit-dependency
rule and cascade machinery — exercised deliberately here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.schedulers.base import Decision, Scheduler
from repro.model.steps import StepKind

__all__ = ["TimestampScheduler"]


@dataclass
class _Marks:
    read_ts: int = 0
    write_ts: int = 0


class TimestampScheduler(Scheduler):
    """Every access is treated as a read-modify-write, so even two reads
    of one entity are forced into timestamp order, matching the paper's
    dependency relation."""

    name = "timestamp"

    def __init__(self) -> None:
        super().__init__()
        self._marks: dict[str, _Marks] = {}
        self._ts: dict[str, int] = {}

    def counters(self, metrics):
        return ((
            "repro_ts_conflicts_total",
            "Timestamp-order violations (requester aborted).",
            metrics.detail["ts_conflicts"],
        ),)

    def _timestamp(self, txn) -> int:
        assert self.engine is not None
        key = f"{txn.name}#{txn.attempt}"
        if key not in self._ts:
            self._ts[key] = self.engine.next_timestamp()
        return self._ts[key]

    def _conflict(self, txn, access, ts: int, marks: _Marks) -> None:
        self.engine.metrics.detail["ts_conflicts"] += 1
        if "ts.conflict" in self.reads:
            self.emit(
                "ts.conflict",
                txn=txn.name,
                entity=access.entity,
                ts=ts,
                read_ts=marks.read_ts,
                write_ts=marks.write_ts,
                victim=txn.name,
            )

    def on_request(self, txn, access) -> Decision:
        ts = self._timestamp(txn)
        marks = self._marks.setdefault(access.entity, _Marks())
        if ts < marks.read_ts or ts < marks.write_ts:
            self._conflict(txn, access, ts, marks)
            return Decision.abort(
                [txn.name], f"write of {access.entity!r} too late"
            )
        marks.write_ts = ts
        if access.kind is not StepKind.WRITE:
            # UPDATE always reads, and a READ is treated as a
            # read-modify-write: both mark both timestamps.
            marks.read_ts = max(marks.read_ts, ts)
        return Decision.perform()

    def may_commit(self, txn) -> Decision:
        return Decision.perform()

    def snapshot_state(self) -> dict:
        return {
            "marks": [
                (entity, m.read_ts, m.write_ts)
                for entity, m in self._marks.items()
            ],
            "ts": dict(self._ts),
        }

    def restore_state(self, state: dict) -> None:
        self._marks = {
            entity: _Marks(read_ts, write_ts)
            for entity, read_ts, write_ts in state["marks"]
        }
        self._ts = dict(state["ts"])
