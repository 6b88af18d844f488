"""The Section 3 substrate: transactions-as-processes over entities.

Public surface:

* :mod:`~repro.model.steps` — step identities and records.
* :mod:`~repro.model.variables` — the entity store.
* :mod:`~repro.model.programs` — generator-based transaction programs
  (``read``/``write``/``update`` accesses and inline ``Breakpoint``\\ s).
* :mod:`~repro.model.system` — interleaved and serial runs.
* :mod:`~repro.model.execution` — executions, dependency orders,
  equivalence and replay validation.
* :mod:`~repro.model.breakpoints` — deriving interleaving specifications
  from runs; the Section 6 compatibility condition.
* :mod:`~repro.model.appdb` — application databases with the
  multilevel-atomicity criterion (the top-level user API).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Automaton": "automata",
    "Transition": "automata",
    "automaton_program": "automata",
    "StepId": "steps",
    "StepKind": "steps",
    "StepRecord": "steps",
    "EntityStore": "variables",
    "Access": "programs",
    "Breakpoint": "programs",
    "read": "programs",
    "write": "programs",
    "update": "programs",
    "TransactionProgram": "programs",
    "straight_line_program": "programs",
    "System": "system",
    "SystemRun": "system",
    "Execution": "execution",
    "description_from_cut_levels": "breakpoints",
    "spec_for_run": "breakpoints",
    "spec_for_execution": "breakpoints",
    "prefix_compatible": "breakpoints",
    "check_program_compatibility": "breakpoints",
    "ApplicationDatabase": "appdb",
    "ClassifiedRun": "appdb",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
