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

The :class:`EngineWal` layered on top records *decisions* (perform,
commit, abort, undo, restart, rewind, prune) in commit-identity order.
Because the engine is deterministic, recovery re-executes from genesis
(or a snapshot) with the WAL in *verify* mode: each decision the engine
re-derives is checked against the next logged one, and a mismatch is a
:class:`repro.errors.RecoveryError` rather than a silent fork.  Once the
logged suffix is consumed the WAL flips to append mode and the engine
continues writing new history to the same file.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from collections import deque
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.errors import RecoveryError

__all__ = [
    "DECISION_TYPES",
    "EngineWal",
    "LOG_NAME",
    "LogFile",
    "NULL_WAL",
    "WAL_RECORDS",
    "decision_row",
    "frame_record",
    "scan_frames",
]

MAGIC = b"REPROWAL"
#: The engine log's file name inside its directory.
LOG_NAME = "engine.wal"
_HEADER = struct.Struct("<II")  # payload length, crc32

#: The durable encoding of the engine's decision stream, and with it the
#: on-disk format: decision kind -> (record type, logged fields).  A
#: frame is the pickled dict ``{"t": type, "tick": tick, **logged}`` in
#: exactly this field order; whatever else a decision carries (latency,
#: cascade chain length, the committed steps) is for the other sinks.
WAL_RECORDS = {
    "step.perform": (
        "perform",
        ("txn", "attempt", "step", "entity", "kind", "before", "after"),
    ),
    "txn.commit": ("commit", ("txn", "attempt", "result")),
    "txn.abort": ("abort", ("victims", "cascade", "reason", "unit")),
    "step.undo": ("undo", ("txn", "attempt", "step", "entity", "restored")),
    "txn.restart": ("restart", ("txn", "attempt", "wake")),
    "txn.partial-rollback": ("rewind", ("txn", "keep", "wake")),
    "closure.prune": ("prune", ("pruned", "shortcuts", "size")),
}
#: Record types that are engine *decisions* — re-derived on replay and
#: verified against the log.  ``genesis`` and ``add`` are inputs, not
#: decisions: they are consumed up-front by recovery to reconstruct the
#: workload and are skipped by verify mode.
DECISION_TYPES = frozenset(rtype for rtype, _ in WAL_RECORDS.values())
INPUT_TYPES = frozenset({"genesis", "add"})
#: Record type -> the fields its frame logs after ``t`` and ``tick``.
_LOGGED = {rtype: logged for rtype, logged in WAL_RECORDS.values()}
#: Record type -> what reads its row's values out of a record by name.
_ROW_OF = {
    rtype: itemgetter("t", "tick", *logged)
    for rtype, logged in _LOGGED.items()
}


def decision_row(record: dict, strings: dict | None = None) -> tuple:
    """A logged decision as verify mode holds and compares it: the row
    ``(type, tick, *fields)`` in :data:`WAL_RECORDS` order, read from
    the record by field name.  A record whose keys are not exactly its
    type's is a :class:`RecoveryError`, so two rows are equal exactly
    when their records are.  ``strings`` maps each string seen so far
    to one shared copy, so rows held together repeat no name."""
    rtype = record.get("t")
    row_of = _ROW_OF.get(rtype)
    if row_of is None:
        raise RecoveryError(f"{rtype!r} is not a decision type")
    try:
        row = row_of(record)
    except KeyError:
        row = ()
    if len(row) != len(record):  # a field missing, or one unknown
        raise RecoveryError(
            f"a {rtype!r} decision logs {['t', 'tick', *_LOGGED[rtype]]}, "
            f"not {list(record)}"
        )
    if strings is None:
        return row
    share = strings.setdefault
    return tuple([
        share(value, value) if type(value) is str else value for value in row
    ])


def _as_record(row: tuple) -> dict:
    """A row read back as the record it was logged as (for messages)."""
    return {"t": row[0], "tick": row[1], **dict(zip(_LOGGED[row[0]], row[2:]))}


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
    """Decision log + snapshot trigger for one :class:`Engine`.

    In *append* mode every decision record is framed and written.  In
    *verify* mode (recovery) the pending logged decisions are held in a
    deque as the positional rows :func:`decision_row` builds, and each
    is dropped once it has matched.  Every decision the re-executing
    engine reports is built into the same row form, never a dict, and
    compared with the next logged row; the WAL flips to append mode
    when the deque drains, so post-recovery execution seamlessly
    extends the same log.
    """

    enabled = True
    #: The decision kinds the log holds; the engine hands it no other.
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
        self._pending: deque[tuple] = deque()
        self.verifying = False
        self.verified = 0
        self._last_snap_tick = 0

    # -- recovery-side setup -------------------------------------------

    def begin_verify(self, rows: Iterable[tuple]) -> None:
        """Arm verify mode with the logged decisions to replay, as
        :func:`decision_row` rows in log order."""
        self._pending = deque(rows)
        self.verifying = bool(self._pending)

    def finish_verify(self) -> None:
        if self._pending:
            rtype, tick = self._pending[0][:2]
            raise RecoveryError(
                f"replay ended with {len(self._pending)} logged decision(s) "
                f"unconsumed; next is {rtype!r} at tick {tick!r}"
            )
        self.verifying = False

    def log_genesis(self, **fields) -> None:
        """Write the genesis record on a *fresh* log; no-op when the log
        already has history (a restarted service extends its old log)."""
        if self.log.tell() > len(MAGIC):
            return
        self.append({"t": "genesis", **fields})
        self.sync()

    # -- the seam -------------------------------------------------------

    def on_decision(self, kind: str, tick: int, fields: dict) -> None:
        """The engine's sink interface: log a decision of a kind
        :data:`WAL_RECORDS` names (the only kinds it reads).  The
        frame's dict is built here, once, in the on-disk field order;
        in verify mode its row is built instead and checked."""
        rtype, logged = WAL_RECORDS[kind]
        if self.verifying:
            self._verify((rtype, tick, *map(fields.__getitem__, logged)))
            return
        record = {"t": rtype, "tick": tick}
        for name in logged:
            record[name] = fields[name]
        self.append(record)

    def append(self, record: dict) -> None:
        """Frame one record ``{"t": type, ...}`` onto the log, or in
        verify mode check a decision against the next logged one."""
        if self.verifying:
            if record["t"] not in INPUT_TYPES:
                self._verify(decision_row(record))
            return
        self.log.append(encode_record(record))

    def _verify(self, row: tuple) -> None:
        """Match one re-derived decision row against the next logged
        one, and flip to append mode once the logged ones are used up."""
        if not self._pending:
            raise RecoveryError(
                f"replay produced an extra {row[0]!r} decision at tick "
                f"{row[1]!r} beyond the logged history"
            )
        logged = self._pending.popleft()
        if logged != row:
            raise RecoveryError(
                "replay diverged from the write-ahead log:\n"
                f"  logged:   {_as_record(logged)!r}\n"
                f"  replayed: {_as_record(row)!r}"
            )
        self.verified += 1
        if not self._pending:
            self.verifying = False

    def maybe_snapshot(self, engine) -> None:
        """Write a snapshot when the cadence is due (append mode only)."""
        if self.verifying or not self.snapshot_every:
            return
        if engine.tick - self._last_snap_tick < self.snapshot_every:
            return
        from repro.durability.snapshot import write_snapshot

        self.log.flush()
        write_snapshot(
            self.directory,
            tick=engine.tick,
            wal_offset=self.log.tell(),
            state=engine.snapshot_state(),
        )
        self._last_snap_tick = engine.tick

    def note_snapshot_tick(self, tick: int) -> None:
        """After restoring from a snapshot, restart the cadence there."""
        self._last_snap_tick = tick

    def flush(self) -> None:
        self.log.flush()

    def sync(self) -> None:
        self.log.sync()

    def close(self) -> None:
        self.log.close()
