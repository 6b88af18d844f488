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

from repro import _lazy_exports

_EXPORTS = {
    "KNest": "nests",
    "BreakpointDescription": "segmentation",
    "InterleavingSpec": "interleaving",
    "Violation": "coherence",
    "ClosureResult": "coherence",
    "coherence_violations": "coherence",
    "is_coherent": "coherence",
    "coherent_closure": "coherence",
    "coherent_closure_pairs": "coherence",
    "is_coherent_total_order": "coherence",
    "total_order_violations": "coherence",
    "extend_to_coherent_total_order": "extension",
    "enumerate_coherent_extensions": "extension",
    "CorrectabilityReport": "atomicity",
    "is_multilevel_atomic": "atomicity",
    "atomicity_violations": "atomicity",
    "check_correctability": "atomicity",
    "is_correctable": "atomicity",
    "equivalent_atomic_order": "atomicity",
    "serializability_spec": "serializability",
    "compatibility_sets_spec": "serializability",
    "is_serializable": "serializability",
    "is_serial": "serializability",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
