"""repro — a reproduction of Lynch's *Multilevel Atomicity* (PODS 1982).

Multilevel atomicity weakens serializability by letting each transaction
expose different breakpoints to different other transactions, organised
along a nested hierarchy (a *k-nest*).  This package provides:

* :mod:`repro.core` — the formal machinery: k-nests, breakpoint
  descriptions, coherent relations and closures, the Lemma 1 extension
  algorithm and the Theorem 2 correctability test.
* :mod:`repro.model` — transactions-as-programs over entities, executions
  and dependency orders (the paper's Section 3 substrate).
* :mod:`repro.engine` — a single-site database engine with pluggable
  concurrency controls: serial, strict two-phase locking, timestamp
  ordering, and the paper's Section 6 multilevel-atomicity schedulers
  (cycle detection and cycle prevention).
* :mod:`repro.distributed` — the migrating-transaction model over a
  simulated network.
* :mod:`repro.nested` — Section 7's encoding into nested action trees.
* :mod:`repro.workloads` — the paper's banking and CAD applications plus
  generators, and every worked example from the text.
* :mod:`repro.analysis` — offline schedule checkers and experiment
  statistics.

Quickstart
----------
::

    from repro.core import KNest
    from repro.model import ApplicationDatabase, TransactionProgram
    from repro.model.programs import Breakpoint, update

    def transfer(src, dst, amount):
        def body():
            yield update(src, lambda v: v - amount)
            yield Breakpoint(2)   # others may interleave here
            yield update(dst, lambda v: v + amount)
        return body

    programs = [
        TransactionProgram("t1", transfer("A", "B", 10)),
        TransactionProgram("t2", transfer("B", "C", 5)),
    ]
    nest = KNest.from_paths({"t1": ("x",), "t2": ("x",)})
    db = ApplicationDatabase(programs, {"A": 100, "B": 100, "C": 100}, nest)
    run = db.run(schedule=["t1", "t2", "t2", "t1"])
    print(db.is_atomic(run), db.is_correctable(run))
"""

from repro.api import (
    ENVELOPE_STATUSES,
    SCHEDULER_FACTORIES,
    ProgramSpec,
    ResultEnvelope,
    Submission,
    make_scheduler,
    run_workload,
)
from repro.errors import (
    EngineError,
    ExecutionError,
    NetworkError,
    NotAPartialOrderError,
    NotCoherentError,
    NotCorrectableError,
    ReproError,
    SpecificationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ProgramSpec",
    "Submission",
    "ResultEnvelope",
    "ENVELOPE_STATUSES",
    "SCHEDULER_FACTORIES",
    "make_scheduler",
    "run_workload",
    "ReproError",
    "SpecificationError",
    "NotAPartialOrderError",
    "NotCoherentError",
    "NotCorrectableError",
    "ExecutionError",
    "EngineError",
    "NetworkError",
]
