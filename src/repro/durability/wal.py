"""Framed, checksummed, append-only write-ahead log.

Record format (shared by the engine WAL and the distributed node WALs):

    file   := MAGIC (8 bytes) frame*
    frame  := u32 payload_length | u32 crc32(payload) | payload

Both integers are little-endian.  A *torn tail* — a frame whose length
prefix, checksum, or payload bytes are incomplete or corrupt — marks the
durable end of the log: everything before it is replayed, everything
from the first bad byte on is truncated.  This is safe because callers
only acknowledge work the log has already handed to the OS: the service
flushes once per pump slice, before that slice's replies, and fsyncs
only on ``drain`` and ``shutdown`` (DESIGN.md §4h).  A torn tail left by
a killed process can therefore only cover unacknowledged work; an
acknowledged frame that was flushed but never fsynced survives
``SIGKILL``, not power loss.

The :class:`EngineWal` layered on top logs the engine's *inputs*, not
its decisions — command logging (Malviya et al., "Rethinking Main
Memory OLTP Recovery", ICDE 2014): the ``genesis`` record, each ``add``
with its arrival tick, and one *check frame* per flush,
``{"t": "check", "tick", "commits", "digest"}``.  The engine re-derives
every decision from its inputs, so a check frame holds only what replay
must reproduce: ``digest`` hashes the decisions made since the previous
check frame (the kinds and fields :data:`WAL_RECORDS` names), ``tick``
is the tick of the last of them, and ``commits`` counts every commit so
far.  Recovery (:mod:`repro.durability.recovery`) re-runs the engine to
each check frame's tick and compares the two.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Iterator

from repro.errors import RecoveryError
from repro.model.execution import RowDigest

__all__ = [
    "CHECK_FIELDS",
    "EngineWal",
    "LOG_FORMAT",
    "LOG_NAME",
    "LogFile",
    "NULL_WAL",
    "WAL_RECORDS",
    "frame_record",
    "scan_frames",
]

MAGIC = b"REPROWAL"
#: The engine log's file name inside its directory.
LOG_NAME = "engine.wal"
#: The engine log's format, written into its genesis record.  Format 2
#: logs inputs and check frames; a log without the field is format 1,
#: which logged every decision.
LOG_FORMAT = 2
_HEADER = struct.Struct("<II")  # payload length, crc32

#: What a check frame's digest covers: decision kind -> the fields of
#: it hashed, in this order, after the kind and the tick.  Whatever
#: else a decision carries (latency, cascade chain length, the
#: committed steps) is for the other sinks.
WAL_RECORDS = {
    "step.perform": (
        "txn", "attempt", "step", "entity", "kind", "before", "after",
    ),
    "txn.commit": ("txn", "attempt", "result"),
    "txn.abort": ("victims", "cascade", "reason", "unit"),
    "step.undo": ("txn", "attempt", "step", "entity", "restored"),
    "txn.restart": ("txn", "attempt", "wake"),
    "txn.partial-rollback": ("txn", "keep", "wake"),
    "closure.prune": ("pruned", "shortcuts", "size"),
}
#: A check frame's fields after ``t``, with the type each must have.
CHECK_FIELDS = {"tick": int, "commits": int, "digest": str}


def frame_record(payload: bytes) -> bytes:
    """Length-prefix and checksum one payload."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(buf: bytes) -> tuple[list[bytes], list[int], int, bool]:
    """Walk ``buf`` (which must start with MAGIC) frame by frame.

    Returns ``(payloads, offsets, valid_end, clean)`` where ``offsets[i]``
    is the byte offset of frame ``i``'s header, ``valid_end`` is the
    offset just past the last intact frame, and ``clean`` is False when a
    torn/corrupt tail was found (and stopped at).
    """
    if buf[: len(MAGIC)] != MAGIC:
        raise RecoveryError("write-ahead log has a bad magic header")
    payloads: list[bytes] = []
    offsets: list[int] = []
    pos = len(MAGIC)
    end = len(buf)
    while pos < end:
        if pos + _HEADER.size > end:
            return payloads, offsets, pos, False
        length, crc = _HEADER.unpack_from(buf, pos)
        start = pos + _HEADER.size
        if start + length > end:
            return payloads, offsets, pos, False
        payload = buf[start : start + length]
        if zlib.crc32(payload) != crc:
            return payloads, offsets, pos, False
        payloads.append(payload)
        offsets.append(pos)
        pos = start + length
    return payloads, offsets, pos, True


class LogFile:
    """One append-only framed log file.

    Opening an existing file scans it, truncates any torn tail, and
    positions the write cursor at the durable end.  ``append`` returns
    the offset at which the frame was written, usable as a snapshot's
    covered-WAL position.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.payloads: list[bytes] = []
        self.offsets: list[int] = []
        self.truncated = False
        existing = os.path.exists(path) and os.path.getsize(path) > 0
        if existing:
            with open(path, "rb") as fh:
                buf = fh.read()
            self.payloads, self.offsets, valid_end, clean = scan_frames(buf)
            self.truncated = not clean
            self._fh = open(path, "r+b")
            if not clean:
                self._fh.truncate(valid_end)
            self._fh.seek(valid_end)
            self._end = valid_end
        else:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._fh = open(path, "w+b")
            self._fh.write(MAGIC)
            self._fh.flush()
            self._end = len(MAGIC)

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def tell(self) -> int:
        """Current write offset; after ``close`` the final durable one
        (the health endpoint reads this during a post-shutdown report)."""
        return self._end

    def append(self, payload: bytes) -> int:
        offset = self._end
        frame = frame_record(payload)
        self._fh.write(frame)
        self._end = offset + len(frame)
        return offset

    def flush(self) -> None:
        self._fh.flush()

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def records(self) -> Iterator[Any]:
        """Decode the payloads scanned at open time."""
        for payload in self.payloads:
            yield decode_record(payload)

    def take(self) -> tuple[list[bytes], list[int]]:
        """Hand over the frames scanned at open time and forget them:
        a log that lives as long as its server keeps only its write
        cursor, not a copy of the file."""
        scanned = self.payloads, self.offsets
        self.payloads, self.offsets = [], []
        return scanned


def encode_record(record: dict) -> bytes:
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


def decode_record(payload: bytes) -> dict:
    return pickle.loads(payload)


class _NullWal:
    """Disabled WAL: never wired into an engine's sinks; what callers
    do unguarded at shutdown (flush, sync, close) is a no-op."""

    enabled = False

    def flush(self) -> None:  # pragma: no cover
        pass

    def sync(self) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


NULL_WAL = _NullWal()


class EngineWal:
    """Input log + snapshot trigger for one :class:`Engine`.

    Inputs are framed as they are appended.  Every decision of a kind
    :data:`WAL_RECORDS` names is folded into a running digest, and
    :meth:`flush` frames the check frame of those folded since the last
    one before handing the log to the OS.  Recovery attaches the same
    object to the engine it replays and compares :meth:`check` with each
    logged check frame; afterwards the engine extends the same log.
    """

    enabled = True
    #: The decision kinds the digest covers; the engine hands it no other.
    reads = frozenset(WAL_RECORDS)

    def __init__(
        self,
        directory: str,
        *,
        snapshot_every: int = 0,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.log = LogFile(os.path.join(directory, LOG_NAME))
        #: Commits the engine has made, counted from the decisions (set
        #: by recovery to the restored engine's count).
        self.commits = 0
        self._digest = RowDigest()
        self._tick = 0  # the tick of the last decision folded in
        self._last_snap_tick = 0

    def log_genesis(self, **fields) -> None:
        """Write the genesis record on a *fresh* log; no-op when the log
        already has history (a restarted service extends its old log)."""
        if self.log.tell() > len(MAGIC):
            return
        self.append({"t": "genesis", "format": LOG_FORMAT, **fields})
        self.sync()

    # -- the seam -------------------------------------------------------

    def on_decision(self, kind: str, tick: int, fields: dict) -> None:
        """The engine's sink interface: fold a decision of a kind
        :data:`WAL_RECORDS` names (the only kinds it reads) into the
        digest of the next check frame."""
        logged = map(fields.__getitem__, WAL_RECORDS[kind])
        self._digest.add((kind, tick, *logged))
        self._tick = tick
        if kind == "txn.commit":
            self.commits += 1

    def append(self, record: dict) -> None:
        """Frame one record ``{"t": type, ...}`` onto the log."""
        self.log.append(encode_record(record))

    def check(self) -> tuple[int, int, str] | None:
        """``(tick, commits, digest)`` of the decisions folded in since
        the last call, which starts a fresh digest; None when there were
        none."""
        if not self._digest.rows:
            return None
        return self._tick, self.commits, self._digest.take()

    def maybe_snapshot(self, engine) -> None:
        """Write a snapshot when the cadence is due.  The log is flushed
        first, so the offset it covers ends with a check frame and the
        next one starts a fresh digest."""
        if not self.snapshot_every:
            return
        if engine.tick - self._last_snap_tick < self.snapshot_every:
            return
        from repro.durability.snapshot import write_snapshot

        self.flush()
        write_snapshot(
            self.directory,
            tick=engine.tick,
            wal_offset=self.log.tell(),
            state=engine.snapshot_state(),
        )
        self._last_snap_tick = engine.tick

    def note_snapshot_tick(self, tick: int) -> None:
        """Restart the snapshot cadence at ``tick``.  Recovery passes
        the tick its replay ends at, so no replayed tick is snapshotted
        (or checked) again."""
        self._last_snap_tick = tick

    def flush(self) -> None:
        """Frame the pending check frame, if any, and hand the log to
        the OS."""
        check = self.check()
        if check is not None:
            self.append({"t": "check", **dict(zip(CHECK_FIELDS, check))})
        self.log.flush()

    def sync(self) -> None:
        self.flush()
        self.log.sync()

    def close(self) -> None:
        self.log.close()
