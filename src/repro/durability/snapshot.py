"""Engine state snapshots with the WAL position they cover.

A snapshot is one framed+checksummed pickle written atomically (temp
file + rename), named ``snap-<tick>.bin``.  ``load_latest_snapshot``
skips torn or corrupt snapshot files and those written under another
pickled layout — neither a crash mid-snapshot nor an upgrade may block
recovery, since the WAL alone always suffices.
"""

from __future__ import annotations

import os
import pickle
import zlib
from typing import Any

__all__ = ["load_latest_snapshot", "write_snapshot"]

_PREFIX = "snap-"
_SUFFIX = ".bin"
_KEEP = 3
#: Names the pickled layout.  Engine, scheduler and closure-window state
#: are pickled by class path and slot, so any change to those must change
#: this stamp: a snapshot carrying another one is never unpickled.
_STAMP = b"repro-snapshot-16\n"


def write_snapshot(
    directory: str, *, tick: int, wal_offset: int, state: dict
) -> str:
    """Atomically persist ``state`` covering the WAL up to ``wal_offset``."""
    payload = _STAMP + pickle.dumps(
        {"tick": tick, "wal_offset": wal_offset, "state": state},
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


def _prune(directory: str, keep: int) -> None:
    snaps = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
    )
    for name in snaps[:-keep]:
        try:
            os.remove(os.path.join(directory, name))
        except OSError:  # pragma: no cover - best-effort housekeeping
            pass


def _read_snapshot(path: str) -> dict | None:
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
        return pickle.loads(payload[len(_STAMP):])
    except (OSError, pickle.UnpicklingError, EOFError):
        return None
    except (TypeError, AttributeError, ImportError):
        # A correctly stamped payload whose classes changed without a
        # stamp bump (a tuple type that used to be a dataclass, a moved
        # class): the WAL alone still suffices.
        return None


def load_latest_snapshot(
    directory: str, *, max_wal_offset: int | None = None
) -> dict[str, Any] | None:
    """Newest intact snapshot whose covered WAL position is still within
    the durable log (``wal_offset <= max_wal_offset``), or None."""
    if not os.path.isdir(directory):
        return None
    snaps = sorted(
        (
            name
            for name in os.listdir(directory)
            if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
        ),
        reverse=True,
    )
    for name in snaps:
        snap = _read_snapshot(os.path.join(directory, name))
        if snap is None:
            continue
        if max_wal_offset is not None and snap["wal_offset"] > max_wal_offset:
            continue
        return snap
    return None
