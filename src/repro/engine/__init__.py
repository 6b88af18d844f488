"""The Section 6 substrate: a single-site engine with pluggable
concurrency controls.

Build an :class:`~repro.engine.runtime.Engine` from transaction programs,
entity initial values and a scheduler; ``run()`` drives everything to
commitment and returns the committed execution, per-transaction breakpoint
levels and metrics.  The MLA schedulers take the k-nest describing the
transaction hierarchy; the classical baselines need nothing.
"""

from repro.engine.closure_window import ClosureWindow
from repro.engine.locks import LockManager
from repro.engine.metrics import Metrics
from repro.engine.runtime import Engine, EngineResult, TxnState
from repro.engine.schedulers import (
    Action,
    Decision,
    MLADetectScheduler,
    MLAPreventScheduler,
    NestedLockScheduler,
    Scheduler,
    SerialScheduler,
    TimestampScheduler,
    TwoPhaseLockingScheduler,
)

__all__ = [
    "Engine",
    "EngineResult",
    "TxnState",
    "Metrics",
    "LockManager",
    "ClosureWindow",
    "Action",
    "Decision",
    "Scheduler",
    "SerialScheduler",
    "TwoPhaseLockingScheduler",
    "TimestampScheduler",
    "MLADetectScheduler",
    "MLAPreventScheduler",
    "NestedLockScheduler",
]
