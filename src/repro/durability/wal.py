"""Framed, checksummed, append-only write-ahead log.

Record format (shared by the engine WAL, the distributed node WALs and
the checkpoints' records file, :class:`RecordsFile`):

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

import io
import os
import pickle
import struct
import zlib
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from typing import Any, BinaryIO, NamedTuple

from repro.durability.snapshot import RECORDS_NAME, write_snapshot
from repro.errors import RecoveryError
from repro.model.execution import RowDigest

__all__ = [
    "CHECK_FIELDS",
    "EngineWal",
    "LOG_FORMAT",
    "LOG_NAME",
    "LogFile",
    "NULL_WAL",
    "RecordsFile",
    "RecordsFrame",
    "WAL_RECORDS",
    "frame_record",
    "read_frames",
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


def read_frames(fh: BinaryIO, what: str) -> Iterator[tuple[int, bytes]]:
    """Walk the framed file ``fh`` (``what`` it is, for the error a bad
    magic header raises) from its start, frame by frame: yield each
    intact frame's offset and payload, and stop at the end of the file
    or at the first torn or corrupt frame.  The durable end is the end
    of the last frame yielded."""
    end = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    if fh.read(len(MAGIC)) != MAGIC:
        raise RecoveryError(f"{what} has a bad magic header")
    pos = len(MAGIC)
    while pos + _HEADER.size <= end:
        length, crc = _HEADER.unpack(fh.read(_HEADER.size))
        if pos + _HEADER.size + length > end:
            return
        payload = fh.read(length)
        if zlib.crc32(payload) != crc:
            return
        yield pos, payload
        pos += _HEADER.size + length


def scan_frames(buf: bytes) -> tuple[list[bytes], list[int], int, bool]:
    """Walk ``buf`` (which must start with MAGIC) frame by frame.

    Returns ``(payloads, offsets, valid_end, clean)`` where ``offsets[i]``
    is the byte offset of frame ``i``'s header, ``valid_end`` is the
    offset just past the last intact frame, and ``clean`` is False when a
    torn/corrupt tail was found (and stopped at).
    """
    return _scan_file(io.BytesIO(buf))


def _scan_file(fh: BinaryIO) -> tuple[list[bytes], list[int], int, bool]:
    """:func:`scan_frames` of the framed file ``fh``."""
    payloads: list[bytes] = []
    offsets: list[int] = []
    valid_end = len(MAGIC)
    for offset, payload in read_frames(fh, "write-ahead log"):
        payloads.append(payload)
        offsets.append(offset)
        valid_end = offset + _HEADER.size + len(payload)
    return payloads, offsets, valid_end, valid_end == fh.seek(0, os.SEEK_END)


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
                scanned = _scan_file(fh)
            self.payloads, self.offsets, valid_end, clean = scanned
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


#: A records frame's payload starts with the length of its head.
_HEAD = struct.Struct("<I")


class RecordsFrame(NamedTuple):
    """One records-file frame as :class:`RecordsFile` scanned it:
    ``count`` records up to and including it, the byte offset ``stop``
    it ends at, and per record its transaction's name (read off the
    packed record), idempotency key and the engine-log offset of its
    ``add`` frame (``None`` for a genesis program)."""

    count: int
    stop: int
    names: list
    keys: list
    adds: list


def _decode_head(payload: bytes) -> tuple | None:
    """A records frame's head, or None when ``payload`` is not a frame
    of this layout (one older builds wrote, say)."""
    if len(payload) < _HEAD.size:
        return None
    (length,) = _HEAD.unpack_from(payload)
    if _HEAD.size + length > len(payload):
        return None
    try:
        head = pickle.loads(
            zlib.decompress(payload[_HEAD.size:_HEAD.size + length])
        )
    except Exception:  # unpickling can raise almost any type
        return None
    if not isinstance(head, tuple) or len(head) != 6:
        return None
    first, keys, paths, adds, lengths, causes = head
    count = len(keys)
    if (
        type(first) is not int
        or not all(
            isinstance(column, list) and len(column) == count
            for column in (paths, adds, lengths)
        )
        or not isinstance(causes, dict)
        or _HEAD.size + length + sum(lengths) != len(payload)
    ):
        return None
    return head


class RecordsFile:
    """The records file: the WAL's framing (magic, then ``u32 length |
    u32 crc32 | payload`` per frame), one frame per checkpoint::

        payload := u32 head_length | head | packed records, back to back
        head    := zlib(pickle((first, keys, paths, adds, lengths,
                                causes)))

    ``first`` is the commit position of the frame's first record;
    ``keys``, ``paths`` and ``adds`` give, per record, its transaction's
    idempotency key, nest path and the engine-log offset of its ``add``
    frame; ``lengths`` the size of each packed record; ``causes`` the
    abort causes explained for those that have some, by place in the
    frame.  A record's transaction name is its packed record's first
    field, so the head does not repeat it.

    Opening scans the file a frame at a time, keeping each intact
    frame's :class:`RecordsFrame` (:attr:`frames`, until :meth:`take`)
    and none of its records.  The scan stops at the first frame that
    does not continue the one before it (a torn tail, or a frame of
    another layout) and writes nothing: :meth:`keep` names how many
    records a restored snapshot covers, and the file is cut back to
    them before the next :meth:`append`.  Records are read back by
    position through an index of their offsets, 8 B each, by opening the
    file: they stay readable after :meth:`close`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.frames: list[RecordsFrame] = []
        # Where each indexed record's packed bytes start; per indexed
        # frame, its first position and its head's offset and length.
        self._starts = array("q")
        self._firsts: list[int] = []
        self._heads: list[tuple[int, int]] = []
        self._cached: tuple[int, tuple] | None = None
        #: Where the file is cut back to before the next append, when
        #: it holds more than is indexed.
        self._cut: int | None = None
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._end = self._scan()
            self._fh = open(path, "r+b")
        else:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._fh = open(path, "w+b")
            self._fh.write(MAGIC)
            self._fh.flush()
            self._end = len(MAGIC)

    def _scan(self) -> int:
        """Index every intact frame that continues the one before it;
        returns the offset the last of them ends at."""
        from repro.engine.runtime import packed_name

        pos = len(MAGIC)
        with open(self.path, "rb") as fh:
            frames = read_frames(fh, f"records file {self.path!r}")
            for at, payload in frames:
                head = _decode_head(payload)
                if head is None or head[0] != len(self._starts):
                    break
                first, keys, _, adds, lengths, _ = head
                self._index(first, at + _HEADER.size, payload, lengths)
                view = memoryview(payload)
                offset = _HEAD.size + _HEAD.unpack_from(payload)[0]
                names = []
                for size in lengths:
                    names.append(packed_name(view[offset:offset + size]))
                    offset += size
                pos = at + _HEADER.size + len(payload)
                self.frames.append(RecordsFrame(
                    first + len(keys), pos, names, keys, adds
                ))
            end = fh.seek(0, os.SEEK_END)
        if pos != end:
            self._cut = pos
        return pos

    def _index(
        self, first: int, at: int, payload: bytes, lengths: list[int]
    ) -> None:
        """Index the frame whose ``payload`` starts at file offset
        ``at``, its records of ``lengths`` from position ``first`` on."""
        (length,) = _HEAD.unpack_from(payload)
        head_at = at + _HEAD.size
        self._firsts.append(first)
        self._heads.append((head_at, length))
        offset = head_at + length
        for size in lengths:
            self._starts.append(offset)
            offset += size

    def take(self) -> list[RecordsFrame]:
        """Hand over the frames scanned at open time and forget them."""
        frames, self.frames = self.frames, []
        return frames

    def keep(self, count: int) -> None:
        """Index only the first ``count`` records (0, or a frame's
        ``count``), and cut the file back to them before the next
        append."""
        kept = bisect_right(self._firsts, count - 1) if count else 0
        if kept < len(self._firsts):
            cut = self._heads[kept][0] - _HEAD.size - _HEADER.size
            del self._firsts[kept:], self._heads[kept:], self._starts[count:]
            del self.frames[kept:]
            self._cut = self._end = cut
            self._cached = None
        if count != len(self._starts):
            raise ValueError(f"{count} records is not a frame boundary")

    def append(
        self,
        first: int,
        records: Sequence[bytes],
        keys: Sequence[str | None],
        paths: Sequence[tuple | None],
        adds: Sequence[int | None],
        causes: Mapping[int, tuple],
    ) -> None:
        """Frame the packed ``records`` from commit position ``first``
        on, with their columns and abort causes (by place among
        ``records``), and hand it to the OS."""
        if first != len(self._starts):
            raise ValueError(
                f"records from position {first} do not continue the "
                f"{len(self._starts)} the file holds"
            )
        if self._cut is not None:
            self._fh.truncate(self._cut)
            self._cut = None
        lengths = [len(packed) for packed in records]
        head = zlib.compress(pickle.dumps(
            (first, list(keys), list(paths), list(adds), lengths,
             dict(causes)),
            protocol=pickle.HIGHEST_PROTOCOL,
        ), 1)
        payload = _HEAD.pack(len(head)) + head + b"".join(records)
        pos = self._end
        self._fh.seek(pos)
        self._fh.write(frame_record(payload))
        self._fh.flush()
        self._index(first, pos + _HEADER.size, payload, lengths)
        self._end = pos + _HEADER.size + len(payload)

    def _head(self, index: int, fh) -> tuple:
        """Frame ``index``'s head (the last one read is kept)."""
        cached = self._cached
        if cached is not None and cached[0] == index:
            return cached[1]
        offset, length = self._heads[index]
        fh.seek(offset)
        head = pickle.loads(zlib.decompress(fh.read(length)))
        self._cached = (index, head)
        return head

    def entries(self, start: int, stop: int) -> Iterator[bytes]:
        """The packed records from position ``start`` to ``stop``, in
        order: one read per frame."""
        if start >= stop:
            return
        with open(self.path, "rb") as fh:
            position = start
            while position < stop:
                index = bisect_right(self._firsts, position) - 1
                first = self._firsts[index]
                lengths = self._head(index, fh)[4]
                last = min(stop, first + len(lengths))
                begin = self._starts[position]
                end = self._starts[last - 1] + lengths[last - 1 - first]
                fh.seek(begin)
                data = fh.read(end - begin)
                for at in range(position - first, last - first):
                    offset = self._starts[first + at] - begin
                    yield data[offset:offset + lengths[at]]
                position = last

    def entry(self, position: int) -> bytes:
        """The packed record at ``position``: one read."""
        return next(self.entries(position, position + 1))

    def _located(self, position: int) -> tuple[tuple, int]:
        """The head of the frame holding ``position``, and the
        position's place in it."""
        index = bisect_right(self._firsts, position) - 1
        cached = self._cached
        if cached is None or cached[0] != index:
            with open(self.path, "rb") as fh:
                self._head(index, fh)
        return self._cached[1], position - self._firsts[index]

    def nest_path(self, position: int) -> tuple | None:
        """The nest path of the commit at ``position``."""
        head, at = self._located(position)
        return head[2][at]

    def causes(self, position: int) -> tuple[str, ...]:
        """The abort causes explained for the commit at ``position``."""
        head, at = self._located(position)
        return head[5].get(at, ())

    def close(self) -> None:
        self._fh.close()


class _NullWal:
    """Disabled WAL: never wired into an engine's sinks; what callers
    do unguarded at shutdown (flush, sync, close) is a no-op, and it has
    recorded no commit."""

    enabled = False
    recorded = 0

    def flush(self) -> None:  # pragma: no cover
        pass

    def sync(self) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


NULL_WAL = _NullWal()


#: The tags of a transaction the log never saw added.
_UNTAGGED = (None, None, None)


class EngineWal:
    """Input log + checkpoints for one :class:`Engine`.

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
        #: The checkpoints' records file, and how many commit records it
        #: holds that this log's engine made (recovery sets it to what
        #: the restored snapshot covers).
        self.records = RecordsFile(os.path.join(directory, RECORDS_NAME))
        self.recorded = 0
        #: Commits the engine has made, counted from the decisions (set
        #: by recovery to the restored engine's count).
        self.commits = 0
        self._digest = RowDigest()
        self._tick = 0  # the tick of the last decision folded in
        self._last_snap_tick = 0
        # name -> (offset of its ``add`` frame, idempotency key, nest
        # path) of every registered transaction no checkpoint has
        # covered the commit of yet; one path tuple per distinct path.
        self._tags: dict[str, tuple] = {}
        self._paths: dict[tuple, tuple] = {}

    def log_genesis(self, **fields) -> None:
        """Write the genesis record on a *fresh* log; no-op when the log
        already has history (a restarted service extends its old log)."""
        if self.log.tell() > len(MAGIC):
            return
        self.append({"t": "genesis", "format": LOG_FORMAT, **fields})
        for name, spec in fields.get("specs", {}).items():
            self.tag(name, None, None, tuple(spec.get("path", ())))
        self.sync()

    def tag(
        self, name: str, add: int | None, key: str | None, path: tuple
    ) -> None:
        """Keep what the records file writes beside ``name``'s commit
        until a checkpoint covers it: the offset ``add`` of its ``add``
        frame (None for a genesis program), its idempotency ``key`` and
        its nest ``path``.  :meth:`append` tags each ``add`` it frames;
        recovery tags what its snapshot leaves uncommitted."""
        self._tags[name] = (add, key, self._paths.setdefault(path, path))

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
        offset = self.log.append(encode_record(record))
        if record["t"] == "add":
            spec = record.get("spec", {})
            self.tag(
                record.get("name"), offset, record.get("key"),
                tuple(spec.get("path", ())),
            )

    def check(self) -> tuple[int, int, str] | None:
        """``(tick, commits, digest)`` of the decisions folded in since
        the last call, which starts a fresh digest; None when there were
        none."""
        if not self._digest.rows:
            return None
        return self._tick, self.commits, self._digest.take()

    def due(self, engine) -> bool:
        """Whether the snapshot cadence has come round at ``engine.tick``."""
        return (
            self.snapshot_every > 0
            and engine.tick - self._last_snap_tick >= self.snapshot_every
        )

    def snapshot(
        self,
        engine,
        nest,
        causes: Mapping[str, tuple[str, ...]] | None = None,
    ) -> str:
        """Checkpoint ``engine`` between ticks: append the commit records
        it made since the last checkpoint to the records file, each with
        its key, path and ``add`` frame, and the ``causes`` (name
        -> the abort causes its envelope reported) of those that have
        some; then let the engine drop them from memory
        (:meth:`Engine.retire`: the file is their one copy now), and
        write a snapshot of its live state, its tracer's, and ``nest``,
        naming how many records it covers.  The log is flushed first, so
        the offset the snapshot covers ends with a check frame and the
        next one starts a fresh digest.  Returns the snapshot's path."""
        self.flush()
        start, count = self.recorded, len(engine.records)
        if count > start:
            causes = causes or {}
            names = engine.commit_order[start:]
            tags = [self._tags.pop(name, _UNTAGGED) for name in names]
            self.records.append(
                start,
                engine.records[start:],
                [key for _, key, _ in tags],
                [path for _, _, path in tags],
                [add for add, _, _ in tags],
                {
                    at: causes[name]
                    for at, name in enumerate(names) if name in causes
                },
            )
            self.recorded = count
            engine.retire(count, self.records)
        path = write_snapshot(
            self.directory,
            tick=engine.tick,
            wal_offset=self.log.tell(),
            commits=count,
            state=engine.snapshot_state(),
            tracer=engine.tracer.snapshot_state(),
            nest=nest,
            adds={
                name: self._tags.get(name, _UNTAGGED)[0]
                for name in engine.txns
            },
        )
        self._last_snap_tick = engine.tick
        return path

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
        self.records.close()
