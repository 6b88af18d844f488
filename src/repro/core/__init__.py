"""The paper's primary contribution: multilevel atomicity (Sections 4-5).

Public surface:

* :class:`~repro.core.nests.KNest` — nested transaction classes.
* :class:`~repro.core.segmentation.BreakpointDescription` — per-execution
  breakpoints.
* :class:`~repro.core.interleaving.InterleavingSpec` — the bundle Theorem 2
  operates on.
* :mod:`~repro.core.coherence` — coherent relations and the coherent
  closure.
* :mod:`~repro.core.extension` — Lemma 1's constructive extension.
* :mod:`~repro.core.atomicity` — multilevel atomicity, correctability
  (Theorem 2), witness construction.
* :mod:`~repro.core.serializability` — the k=2 and k=3 special cases.
"""

from repro.core.atomicity import (
    CorrectabilityReport,
    atomicity_violations,
    check_correctability,
    equivalent_atomic_order,
    is_correctable,
    is_multilevel_atomic,
)
from repro.core.coherence import (
    ClosureResult,
    Violation,
    coherence_violations,
    coherent_closure,
    coherent_closure_pairs,
    is_coherent,
    is_coherent_total_order,
    total_order_violations,
)
from repro.core.extension import (
    enumerate_coherent_extensions,
    extend_to_coherent_total_order,
)
from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.core.segmentation import BreakpointDescription
from repro.core.serializability import (
    compatibility_sets_spec,
    is_serial,
    is_serializable,
    serializability_spec,
)

__all__ = [
    "KNest",
    "BreakpointDescription",
    "InterleavingSpec",
    "Violation",
    "ClosureResult",
    "coherence_violations",
    "is_coherent",
    "coherent_closure",
    "coherent_closure_pairs",
    "is_coherent_total_order",
    "total_order_violations",
    "extend_to_coherent_total_order",
    "enumerate_coherent_extensions",
    "CorrectabilityReport",
    "is_multilevel_atomic",
    "atomicity_violations",
    "check_correctability",
    "is_correctable",
    "equivalent_atomic_order",
    "serializability_spec",
    "compatibility_sets_spec",
    "is_serializable",
    "is_serial",
]
