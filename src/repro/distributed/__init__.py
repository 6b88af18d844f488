"""The migrating-transaction distributed substrate ([RSL], Section 6).

Entities live on data nodes; transactions migrate from entity to entity
as messages over a latency-simulating network; a sequencer node owns the
concurrency-control state (no control / distributed locking / Section 6
cycle prevention).  Experiment E7 measures the message and latency price
of each control and checks that prevention yields only correctable
executions.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Message": "network",
    "Network": "network",
    "DataNode": "node",
    "MigratingTransaction": "migration",
    "Sequencer": "controller",
    "NoControl": "controller",
    "DistributedLockControl": "controller",
    "DistributedPreventControl": "controller",
    "DistributedResult": "controller",
    "DistributedRuntime": "controller",
    "LinkFaults": "faults",
    "CrashEvent": "faults",
    "Partition": "faults",
    "FaultPlan": "faults",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
