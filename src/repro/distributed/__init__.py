"""The migrating-transaction distributed substrate ([RSL], Section 6).

Entities live on data nodes; transactions migrate from entity to entity
as messages over a latency-simulating network; a sequencer node hosts
one of the engine's schedulers and owns the concurrency-control state.
Experiment E7 measures the message and latency price of each scheduler
and checks that every admission control yields only correctable
executions.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Message": "network",
    "Network": "network",
    "DataNode": "node",
    "MigratingTransaction": "migration",
    "Sequencer": "controller",
    "DistributedResult": "controller",
    "DistributedRuntime": "controller",
    "LinkFaults": "faults",
    "CrashEvent": "faults",
    "Partition": "faults",
    "FaultPlan": "faults",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
