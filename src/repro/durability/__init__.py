"""Single-site durability: write-ahead log, snapshots, recovery.

The engine is deterministic given its construction arguments, so the WAL
is not a redo log in the classical sense: it is the *decision stream* —
every scheduler/rng-dependent choice in commit-identity order — plus the
inputs (genesis + program arrivals) needed to re-execute it.  Recovery
re-runs the engine while a verify-mode WAL checks each re-executed
decision against the logged one, record for record; any divergence
raises :class:`repro.errors.RecoveryError` instead of silently forking
history.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DECISION_TYPES": "wal",
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
