"""Serializability and compatibility sets as special cases (Section 4.3).

The paper observes that multilevel atomicity *generalises* two earlier
correctness criteria:

* **Serializability** is the ``k = 2`` case: the 2-nest relates all
  transactions at level 1 and nothing at level 2, and the only possible
  breakpoint description groups all steps of a transaction at level 1 and
  splits them into singletons at level 2.  The multilevel-atomic
  executions are then exactly the serial executions, and the correctable
  executions are exactly the serializable ones.

* **Compatibility sets** (Garcia-Molina [G]) are the ``k = 3`` case in
  which ``B_t(2)`` consists of single steps for every transaction:
  transactions in a common level-2 class may interleave arbitrarily while
  transactions in different classes must be serialized with respect to
  each other.

These constructors let the engine's baseline schedulers and the analysis
module express classical criteria through the same Theorem 2 machinery
used for the general case.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TypeVar

from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.core.segmentation import BreakpointDescription
from repro.errors import SpecificationError

S = TypeVar("S", bound=Hashable)
T = TypeVar("T", bound=Hashable)

__all__ = [
    "serializability_spec",
    "compatibility_sets_spec",
    "is_serializable",
    "is_serial",
]


def serializability_spec(
    step_orders: Mapping[T, Sequence[S]]
) -> InterleavingSpec:
    """The unique 2-level interleaving specification over the given
    transactions: multilevel atomicity for it *is* serializability."""
    if not step_orders:
        raise SpecificationError("need at least one transaction")
    nest = KNest.flat(step_orders)
    descriptions = {
        txn: BreakpointDescription.serial(steps)
        for txn, steps in step_orders.items()
    }
    return InterleavingSpec(nest, descriptions)


def compatibility_sets_spec(
    step_orders: Mapping[T, Sequence[S]],
    compatibility_classes: Iterable[Iterable[T]],
) -> InterleavingSpec:
    """Garcia-Molina compatibility sets as a 3-level specification.

    ``compatibility_classes`` partitions the transactions; members of a
    common class interleave arbitrarily (single-step level-2 segments),
    while members of different classes are serialized against each other.
    """
    if not step_orders:
        raise SpecificationError("need at least one transaction")
    txns = list(step_orders)
    classes = [list(c) for c in compatibility_classes]
    nest = KNest.from_partitions([
        [txns],
        classes,
        [[t] for t in txns],
    ])
    descriptions = {
        txn: BreakpointDescription.free(steps, k=3)
        for txn, steps in step_orders.items()
    }
    return InterleavingSpec(nest, descriptions)


def is_serial(
    step_orders: Mapping[T, Sequence[S]], sequence: Sequence[S]
) -> bool:
    """Whether ``sequence`` runs the transactions one after another
    (each transaction's steps contiguous and in order)."""
    position = {step: i for i, step in enumerate(sequence)}
    for steps in step_orders.values():
        if not steps:
            continue
        first = position[steps[0]]
        for offset, step in enumerate(steps):
            if position[step] != first + offset:
                return False
    return True


def is_serializable(
    step_orders: Mapping[T, Sequence[S]],
    dependency: Iterable[tuple[S, S]],
) -> bool:
    """Classical serializability via the k = 2 instance of Theorem 2.

    ``dependency`` is the execution's dependency order (same-entity and
    same-transaction precedence pairs).
    """
    from repro.core.atomicity import is_correctable

    return is_correctable(serializability_spec(step_orders), dependency)
