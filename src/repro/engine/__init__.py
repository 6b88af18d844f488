"""The Section 6 substrate: a single-site engine with pluggable
concurrency controls.

Build an :class:`~repro.engine.runtime.Engine` from transaction programs,
entity initial values and a scheduler; ``run()`` drives everything to
commitment and returns the committed execution, per-transaction breakpoint
levels and metrics.  The MLA schedulers take the k-nest describing the
transaction hierarchy; the classical baselines need nothing.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Engine": "runtime",
    "EngineResult": "runtime",
    "TxnState": "runtime",
    "Metrics": "metrics",
    "LockManager": "locks",
    "ClosureWindow": "closure_window",
    "Action": "schedulers.base",
    "Decision": "schedulers.base",
    "Scheduler": "schedulers.base",
    "SerialScheduler": "schedulers.serial",
    "TwoPhaseLockingScheduler": "schedulers.two_phase",
    "TimestampScheduler": "schedulers.timestamp",
    "MLADetectScheduler": "schedulers.mla_detect",
    "MLAPreventScheduler": "schedulers.mla_prevent",
    "NestedLockScheduler": "schedulers.nested_lock",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
