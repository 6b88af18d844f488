"""Multilevel atomicity and correctability (Sections 4.3 and 5.2).

Given a k-nest ``pi`` over transactions and a k-level breakpoint
specification (both bundled into an
:class:`~repro.core.interleaving.InterleavingSpec` for the transactions and
step sets of one particular execution):

* an execution is **multilevel atomic** when its total order of steps is
  coherent — :func:`is_multilevel_atomic`;
* an execution is **correctable** when it is *equivalent* to a multilevel
  atomic one, i.e. some coherent total order contains its dependency
  partial order.  **Theorem 2** characterises this: an execution ``e`` is
  correctable iff the coherent closure of its dependency order ``<=_e`` is
  a partial order — :func:`is_correctable` / :func:`check_correctability`;
* when correctable, Lemma 1's staged extension *constructs* the equivalent
  multilevel-atomic schedule — :func:`equivalent_atomic_order`.

This module works at the abstract step level; :mod:`repro.model` derives
the specification and dependency relation from concrete executions of
transaction programs over entities.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.core.coherence import (
    ClosureResult,
    coherent_closure,
    is_coherent_total_order,
    total_order_violations,
)
from repro.core.extension import extend_to_coherent_total_order
from repro.core.interleaving import InterleavingSpec
from repro.errors import NotCorrectableError

S = TypeVar("S", bound=Hashable)

__all__ = [
    "CorrectabilityReport",
    "is_multilevel_atomic",
    "atomicity_violations",
    "check_correctability",
    "is_correctable",
    "equivalent_atomic_order",
]


@dataclass
class CorrectabilityReport:
    """The full outcome of a Theorem 2 check.

    Attributes
    ----------
    correctable:
        Whether some multilevel-atomic execution is equivalent to the one
        checked.
    closure:
        The coherent-closure computation (graph, cycle witness, costs).
    witness:
        When correctable and ``witness`` was requested, an equivalent
        multilevel-atomic total order of the steps.
    """

    correctable: bool
    closure: ClosureResult
    witness: list | None = None

    def require_correctable(self) -> None:
        if not self.correctable:
            raise NotCorrectableError(
                f"coherent closure has a cycle: {self.closure.cycle}"
            )


def is_multilevel_atomic(spec: InterleavingSpec, sequence: Sequence[S]) -> bool:
    """Whether a step sequence is multilevel atomic for the specification,
    i.e. whether its total order is coherent (Section 4.3)."""
    return is_coherent_total_order(spec, sequence)


def atomicity_violations(spec: InterleavingSpec, sequence: Sequence[S]):
    """The coherence violations that make a sequence non-atomic (empty for
    multilevel-atomic sequences)."""
    return total_order_violations(spec, sequence)


def check_correctability(
    spec: InterleavingSpec,
    dependency: Iterable[tuple[S, S]],
    witness: bool = False,
) -> CorrectabilityReport:
    """Theorem 2: decide correctability of an execution from its
    dependency order.

    Parameters
    ----------
    spec:
        Nest and breakpoint descriptions for the execution's transactions.
    dependency:
        The pairs of the dependency order ``<=_e`` (the per-transaction
        chains are implied and may be omitted).
    witness:
        When true and the execution is correctable, additionally construct
        an equivalent multilevel-atomic total order via Lemma 1.
    """
    closure = coherent_closure(spec, dependency)
    if not closure.is_partial_order:
        return CorrectabilityReport(correctable=False, closure=closure)
    order = None
    if witness:
        order = extend_to_coherent_total_order(
            spec, closure.index.iter_edges()
        )
    return CorrectabilityReport(correctable=True, closure=closure, witness=order)


def is_correctable(
    spec: InterleavingSpec, dependency: Iterable[tuple[S, S]]
) -> bool:
    """Whether an execution with dependency order ``dependency`` is
    equivalent to some multilevel-atomic execution (Theorem 2)."""
    return check_correctability(spec, dependency).correctable


def equivalent_atomic_order(
    spec: InterleavingSpec, dependency: Iterable[tuple[S, S]]
) -> list[S]:
    """The multilevel-atomic schedule equivalent to the given execution.

    Raises :class:`~repro.errors.NotCorrectableError` when none exists.
    """
    report = check_correctability(spec, dependency, witness=True)
    report.require_correctable()
    assert report.witness is not None
    return report.witness
