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

from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """The PEP 562 module ``__getattr__`` every package here re-exports
    through: ``exports`` maps each public name to the submodule (relative
    to the package) that defines it.  A submodule is imported the first
    time one of its names is read, and all of its names are then bound in
    ``namespace``, so importing a package loads none of its layers until
    a caller reads from one (DESIGN.md §3).  Binding them all at once also
    lets a name shadow a submodule of the same name (``repro.audit``'s
    ``explore``), which the import just bound on the package."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        where = exports[name]
        module = import_module(f"{package}.{where}")
        for export, defined_in in exports.items():
            if defined_in == where:
                namespace[export] = getattr(module, export)
        return namespace[name]

    return __getattr__


_EXPORTS = {
    "ProgramSpec": "api",
    "Submission": "api",
    "ResultEnvelope": "api",
    "ENVELOPE_STATUSES": "api",
    "SCHEDULER_FACTORIES": "api",
    "make_scheduler": "api",
    "run_workload": "api",
    "ReproError": "errors",
    "SpecificationError": "errors",
    "NotAPartialOrderError": "errors",
    "NotCoherentError": "errors",
    "NotCorrectableError": "errors",
    "ExecutionError": "errors",
    "EngineError": "errors",
    "NetworkError": "errors",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__ = _lazy_exports(globals(), _EXPORTS)
