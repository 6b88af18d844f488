"""Concurrency controls for the engine.

* :class:`~repro.engine.schedulers.base.Scheduler` — no control at all
  (arbitrary interleavings; the contrast case for experiment E5).
* :class:`~repro.engine.schedulers.serial.SerialScheduler` — one
  transaction at a time (the concurrency floor).
* :class:`~repro.engine.schedulers.two_phase.TwoPhaseLockingScheduler` —
  strict 2PL ([EGLT]).
* :class:`~repro.engine.schedulers.timestamp.TimestampScheduler` —
  timestamp ordering ([L]).
* :class:`~repro.engine.schedulers.mla_detect.MLADetectScheduler` —
  Section 6 cycle detection over the coherent closure (with the flat
  2-nest: classical serialization-graph testing).
* :class:`~repro.engine.schedulers.mla_prevent.MLAPreventScheduler` —
  Section 6 cycle prevention by waiting for breakpoints.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Action": "base",
    "Decision": "base",
    "Scheduler": "base",
    "SerialScheduler": "serial",
    "TwoPhaseLockingScheduler": "two_phase",
    "TimestampScheduler": "timestamp",
    "MLADetectScheduler": "mla_detect",
    "MLAPreventScheduler": "mla_prevent",
    "NestedLockScheduler": "nested_lock",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
