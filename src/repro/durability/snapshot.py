"""The split checkpoint: a snapshot of live state plus a records file.

A checkpoint has two halves in the WAL directory:

* the **records file** (:data:`RECORDS_NAME`,
  :class:`repro.durability.wal.RecordsFile`),
  append-only and framed like the WAL: each checkpoint appends one frame
  holding the packed commit records made since the previous one (each
  record is written once) with each one's transaction name, idempotency
  key, nest path and ``add`` frame, and the abort causes the service
  explained for them.  Once written it is the only copy of those
  commits: the engine and the service drop them from memory and read
  them back from it by position;
* a **snapshot**, ``snap-<tick>.bin``: one framed+checksummed pickle of
  the engine's *live* state — uncommitted transactions, store, locks or
  closure window, rng, metrics — the count of records it covers, the
  nest, and where in the engine log each uncommitted transaction was
  added, written atomically (temp file + rename).

So a snapshot's cost follows the in-flight window, not the history.
``load_latest_snapshot`` skips torn or corrupt snapshot files, those
written under another pickled layout, those past the durable WAL, and
those naming more records than the records file holds: neither a crash
mid-checkpoint nor an upgrade may block recovery, since the WAL alone
always suffices.
"""

from __future__ import annotations

import os
import pickle
import zlib
from collections.abc import Container, Mapping
from typing import Any

__all__ = [
    "RECORDS_NAME",
    "load_latest_snapshot",
    "read_snapshot",
    "retire_snapshots",
    "write_snapshot",
]

#: The records file's name inside the WAL directory.
RECORDS_NAME = "commits.log"
_PREFIX = "snap-"
_SUFFIX = ".bin"
_KEEP = 3
#: Names the pickled layout.  Engine, scheduler and closure-window state
#: are pickled by class path and slot, so any change to those must change
#: this stamp: a snapshot carrying another one is never unpickled.  A
#: snapshot's record count also refers to the records file's frames, so
#: a change to their layout changes it too.
_STAMP = b"repro-snapshot-18\n"
#: What every snapshot payload holds.
_FIELDS = frozenset(
    ("tick", "wal_offset", "commits", "state", "tracer", "nest", "adds")
)
def write_snapshot(
    directory: str,
    *,
    tick: int,
    wal_offset: int,
    state: dict,
    commits: int = 0,
    tracer: Any = None,
    nest: Any = None,
    adds: Mapping[str, int | None] | None = None,
) -> str:
    """Atomically persist ``state`` covering the WAL up to ``wal_offset``
    and the first ``commits`` records of the records file; ``tracer`` is
    the engine tracer's own state, restored beside it, ``nest`` the
    nest its scheduler reads, and ``adds`` the engine-log offset of each
    uncommitted transaction's ``add`` frame."""
    payload = _STAMP + pickle.dumps(
        {
            "tick": tick,
            "wal_offset": wal_offset,
            "commits": commits,
            "state": state,
            "tracer": tracer,
            "nest": nest,
            "adds": dict(adds or {}),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    blob = (
        len(payload).to_bytes(4, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
        + payload
    )
    path = os.path.join(directory, f"{_PREFIX}{tick:012d}{_SUFFIX}")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _prune(directory, keep=_KEEP)
    return path


def _names(directory: str) -> list[str]:
    """The snapshot file names in ``directory``, oldest first."""
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
    )


def _prune(directory: str, keep: int) -> None:
    for name in _names(directory)[:-keep]:
        try:
            os.remove(os.path.join(directory, name))
        except OSError:  # pragma: no cover - best-effort housekeeping
            pass


def retire_snapshots(directory: str, after: int | None) -> None:
    """Remove every snapshot newer than tick ``after`` (all of them when
    None) and every temp file a crash left unrenamed.  Recovery calls
    this once it has chosen: a newer snapshot it could not use must not
    be used later either, once the log has grown past it again."""
    stale = [
        name
        for name in os.listdir(directory)
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX + ".tmp")
    ]
    newest = None if after is None else f"{_PREFIX}{after:012d}{_SUFFIX}"
    stale += [
        name for name in _names(directory) if newest is None or name > newest
    ]
    for name in stale:
        try:
            os.remove(os.path.join(directory, name))
        except OSError:  # pragma: no cover - best-effort housekeeping
            pass


def read_snapshot(path: str) -> dict | None:
    """The snapshot in ``path``, or None when it is torn, corrupt or of
    another layout."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 8:
            return None
        length = int.from_bytes(blob[:4], "little")
        crc = int.from_bytes(blob[4:8], "little")
        payload = blob[8 : 8 + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return None
        if not payload.startswith(_STAMP):
            return None
        snap = pickle.loads(payload[len(_STAMP):])
    except (OSError, pickle.UnpicklingError, EOFError):
        return None
    except (TypeError, AttributeError, ImportError):
        # A correctly stamped payload whose classes changed without a
        # stamp bump (a tuple type that used to be a dataclass, a moved
        # class): the WAL alone still suffices.
        return None
    if not isinstance(snap, dict) or snap.keys() != _FIELDS:
        return None
    return snap


def load_latest_snapshot(
    directory: str,
    *,
    max_wal_offset: int | None = None,
    commits: Container[int] | None = None,
) -> dict[str, Any] | None:
    """Newest intact snapshot whose covered WAL position is still within
    the durable log (``wal_offset <= max_wal_offset``) and whose record
    count the records file can back (``commits`` holds the counts it
    can: 0 and each frame's count the records file scanned), or None."""
    if not os.path.isdir(directory):
        return None
    for name in reversed(_names(directory)):
        snap = read_snapshot(os.path.join(directory, name))
        if snap is None:
            continue
        if max_wal_offset is not None and snap["wal_offset"] > max_wal_offset:
            continue
        if commits is not None and snap["commits"] not in commits:
            continue
        return snap
    return None
