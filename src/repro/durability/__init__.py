"""Single-site durability: write-ahead log, snapshots, recovery.

The engine is deterministic given its construction arguments, so the WAL
logs its inputs — genesis and program arrivals — and, once per flush, a
check frame: a digest of the decisions made since the previous one.
Recovery re-runs the engine from those inputs to each check frame and
compares; any divergence raises :class:`repro.errors.RecoveryError`
instead of silently forking history.
"""

from repro import _lazy_exports

_EXPORTS = {
    "EngineWal": "wal",
    "LogFile": "wal",
    "NULL_WAL": "wal",
    "RecoveryReport": "recovery",
    "frame_record": "wal",
    "load_latest_snapshot": "snapshot",
    "recover": "recovery",
    "scan_frames": "wal",
    "write_snapshot": "snapshot",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
