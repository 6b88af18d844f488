"""The paper's worked examples, as constructible objects.

Everything here is lifted directly from the text so that tests and
benchmarks can reproduce each example verbatim:

* :func:`abstract_example` — the Section 4.2 example with ``k = 3``,
  transactions ``t1, t2, t3`` (``t1, t2`` in a common level-2 class), four
  steps each, and the relations ``R1`` (coherent), ``R2``/``R3``
  (non-coherent); the coherent closure of ``R2`` equals ``R1`` while the
  closure of ``R3`` (called ``R4`` in the paper) contains a cycle.
* :func:`abstract_example_extensions` — Section 5.1's example: the two
  coherent total orders containing ``R1``.
* :func:`banking_nest` / :func:`banking_spec` — the Section 4.2/4.3
  banking specification: a 4-nest over transfers and a bank audit,
  transfers with a level-2 breakpoint between their withdrawal block and
  deposit block and level-3 breakpoints everywhere.
* :func:`banking_executions` — Section 5.2's account-access table and a
  correctable plus a non-correctable interleaving over it.
* :func:`worked_transfer_program` — Section 4.3's t1, step-exact: both
  printed executions (e1 and e2) come out access for access, value for
  value.

The note on fidelity: the archival scan of the paper garbles some step
sequences in Sections 4.3/5.2; where the OCR is ambiguous we reconstruct
executions with the same structure (documented in EXPERIMENTS.md), while
all Section 4.2/5.1 objects are unambiguous and reproduced exactly.
"""

from __future__ import annotations

import itertools

from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.core.segmentation import BreakpointDescription

__all__ = [
    "worked_transfer_program",
    "abstract_example",
    "abstract_example_extensions",
    "banking_nest",
    "banking_spec",
    "banking_atomic_sequence",
    "banking_executions",
]


# ---------------------------------------------------------------------------
# Section 4.3's worked transfer t1
# ---------------------------------------------------------------------------


def worked_transfer_program(
    name: str = "t1",
    sources: tuple[str, ...] = ("A", "B", "C"),
    amount: int = 100,
    primary: str = "D",
    overflow: str = "E",
    primary_floor: int = 125,
):
    """The paper's Section 4.3 transfer, behaviour- and step-exact.

    "t1 is intended to withdraw $100 from the combined accounts A, B and
    C, and deposit the withdrawn amount in D and E. ... t1 will examine
    A, B and C sequentially, attempting to obtain $100 as soon as
    possible.  If t1 is able to obtain $100 from A alone or from just A
    and B, then t1 need not access the remaining accounts. ... t1 tries
    to leave D with at least $125: any available money over $125 will be
    deposited in E."

    Each account access is a single read-modify-write step (the paper's
    general access), so the two example executions come out step for
    step:

    * ``e1`` (A=$20, B=$150, D=$20): Access A, see $20, leave $0;
      Access B, see $150, leave $70; Access D, see $20, leave $120
      (everything fits below the floor, so E is never accessed);
    * ``e2`` (A=$0, B=$15, C=$70, D=$110, E=$30): all three sources
      drained for $85, D topped up to exactly $125, E left at $100.

    Level-3 breakpoints separate the withdrawals (and the deposits); the
    level-2 breakpoint sits at the withdrawals/deposits boundary —
    exactly the ``B_{t,e}`` structure of the banking examples.
    """
    from repro.model.programs import Access, Breakpoint, TransactionProgram
    from repro.model.steps import StepKind

    def body():
        state = {"gathered": 0}

        def withdraw(balance):
            take = min(balance, amount - state["gathered"])
            state["gathered"] += take
            return balance - take, balance

        first = True
        for account in sources:
            if state["gathered"] >= amount:
                break
            if not first:
                yield Breakpoint(3)
            first = False
            yield Access(account, withdraw, StepKind.UPDATE)

        yield Breakpoint(2)  # the withdrawals/deposits boundary

        def deposit_primary(balance):
            if balance + state["gathered"] <= primary_floor:
                to_primary = state["gathered"]  # all of it fits below the floor
            else:
                to_primary = max(primary_floor - balance, 0)
            state["gathered"] -= to_primary
            return balance + to_primary, balance

        yield Access(primary, deposit_primary, StepKind.UPDATE)
        if state["gathered"] > 0:
            yield Breakpoint(3)
            remainder = state["gathered"]
            yield Access(
                overflow, lambda v: (v + remainder, v), StepKind.UPDATE
            )
        return amount - state["gathered"]

    return TransactionProgram(name, body)


# ---------------------------------------------------------------------------
# Section 4.2 abstract example (k = 3)
# ---------------------------------------------------------------------------


def _chain_pairs(elements):
    """All ordered pairs of a sequence (its transitive closure)."""
    return set(itertools.combinations(elements, 2))


def abstract_example():
    """The Section 4.2 example.

    Returns a dict with the specification and the paper's relations:

    * ``spec`` — k = 3; T = {t1, t2, t3}; pi(2) classes {t1, t2}, {t3};
      each ``t_i`` has steps ``ai1 < ai2 < ai3 < ai4`` and
      ``B_{t_i}(2)`` classes {ai1, ai2} and {ai3, ai4}.
    * ``R1`` — transitive closure of the chains plus
      (a12, a22), (a22, a13), (a14, a31), (a24, a33); also provided
      un-closed as ``R1_generators``.
    * ``R2`` — chains plus (a11, a22), (a21, a13), (a11, a31), (a21, a33):
      not coherent; its coherent closure coincides with R1's.
    * ``R3`` — like ``R2`` but with (a31, a11) in place of (a11, a31):
      not coherent; its coherent closure (the paper's ``R4``) has a cycle
      a33 -> a11 -> a22 -> a33.

    **Erratum.** The paper calls ``R1`` (defined as a transitive closure)
    "a coherent partial order" whose coherent closure is "R1 itself".
    That holds for the *generating* pairs, but not for the full closure:
    composing (a22, a13), a13 < a14 and (a14, a31) puts (a22, a31) in
    R1, and rule (b) at level(t2, t3) = 1 then requires (a23, a31) and
    (a24, a31), which the paper omits.  Both of the paper's own Section
    5.1 extensions of R1 satisfy the missing pairs, so nothing downstream
    is affected; ``closure_extras`` lists the four transitively implied
    pairs our closure (correctly) adds.
    """
    steps = {
        t: [f"a{t[1]}{j}" for j in range(1, 5)] for t in ("t1", "t2", "t3")
    }
    nest = KNest([
        [["t1", "t2", "t3"]],
        [["t1", "t2"], ["t3"]],
        [["t1"], ["t2"], ["t3"]],
    ])
    descriptions = {
        t: BreakpointDescription.from_classes(
            elems,
            [
                [elems],
                [elems[:2], elems[2:]],
                [[e] for e in elems],
            ],
        )
        for t, elems in steps.items()
    }
    spec = InterleavingSpec(nest, descriptions)

    chains = set()
    for elems in steps.values():
        chains |= _chain_pairs(elems)

    def closed(extra):
        """Transitive closure of chains + extra pairs (paper's R are
        given as transitive closures).  R3 is cyclic; its cycle adds no
        pair ``(a, a)``."""
        out = chains | set(extra)
        while True:
            more = {(a, d) for a, b in out for c, d in out if b == c and a != d}
            if more <= out:
                return out
            out |= more

    r1_extras = {
        ("a12", "a22"), ("a22", "a13"), ("a14", "a31"), ("a24", "a33"),
    }
    r1 = closed(r1_extras)
    r2 = closed({
        ("a11", "a22"), ("a21", "a13"), ("a11", "a31"), ("a21", "a33"),
    })
    r3 = closed({
        ("a11", "a22"), ("a21", "a13"), ("a31", "a11"), ("a21", "a33"),
    })
    closure_extras = {
        ("a23", "a31"), ("a23", "a32"), ("a24", "a31"), ("a24", "a32"),
    }
    return {
        "spec": spec,
        "steps": steps,
        "R1": r1,
        "R1_generators": chains | r1_extras,
        "R2": r2,
        "R3": r3,
        "closure_extras": closure_extras,
    }


def abstract_example_extensions():
    """Section 5.1: the exactly-two coherent total orders containing R1."""
    first = [
        "a11", "a12", "a21", "a22", "a13", "a14", "a23", "a24",
        "a31", "a32", "a33", "a34",
    ]
    second = [
        "a11", "a12", "a21", "a22", "a23", "a24", "a13", "a14",
        "a31", "a32", "a33", "a34",
    ]
    return [tuple(first), tuple(second)]


# ---------------------------------------------------------------------------
# Sections 4.2/4.3/5.2 banking example (k = 4)
# ---------------------------------------------------------------------------


def banking_nest(
    transfers=("t1", "t2", "t3"),
    audits=("a",),
    families=None,
):
    """The banking 4-nest of Section 4.3.

    ``pi(2)`` groups all transfers together and puts each audit in a
    singleton class; ``pi(3)`` refines transfers by family (by default
    every transfer is its own family, as in the Section 4.3 example);
    ``pi(4)`` is singletons.
    """
    families = families or {t: t for t in transfers}
    paths = {}
    for t in transfers:
        paths[t] = ("transfers", f"family:{families[t]}")
    for a in audits:
        paths[a] = (f"audit:{a}", f"audit:{a}")
    return KNest.from_paths(paths)


def _transfer_description(steps, n_withdrawals):
    """A transfer's 4-level description: level-3 breakpoints everywhere,
    plus the level-2 breakpoint between withdrawals and deposits."""
    cut_levels = {gap: 3 for gap in range(len(steps) - 1)}
    cut_levels[n_withdrawals - 1] = 2
    return BreakpointDescription.from_cut_levels(steps, k=4, cut_levels=cut_levels)


def banking_spec(
    transfer_shapes=None,
    audit_lengths=None,
    families=None,
):
    """The banking interleaving specification of Sections 4.3/5.2.

    ``transfer_shapes`` maps transfer id to ``(n_withdrawals,
    n_deposits)`` — default three transfers of shape ``(2, 2)`` as in
    Section 5.2.  ``audit_lengths`` maps audit id to its number of read
    steps — default a single 3-step audit.  Step names follow the paper:
    ``w<t><j>`` for withdrawals, ``d<t><j>`` for deposits, ``<a>_<j>``
    for audit reads.
    """
    transfer_shapes = transfer_shapes or {"t1": (2, 2), "t2": (2, 2), "t3": (2, 2)}
    audit_lengths = audit_lengths or {"a": 3}
    nest = banking_nest(
        transfers=tuple(transfer_shapes),
        audits=tuple(audit_lengths),
        families=families,
    )
    descriptions = {}
    step_names = {}
    for t, (n_w, n_d) in transfer_shapes.items():
        suffix = t[1:]
        steps = [f"w{suffix}{j}" for j in range(1, n_w + 1)] + [
            f"d{suffix}{j}" for j in range(1, n_d + 1)
        ]
        step_names[t] = steps
        descriptions[t] = _transfer_description(steps, n_w)
    for a, length in audit_lengths.items():
        steps = [f"{a}_{j}" for j in range(1, length + 1)]
        step_names[a] = steps
        # An audit exposes no interior breakpoints below the mandatory
        # singleton level: it is atomic with respect to everything it is
        # not identical to.
        descriptions[a] = BreakpointDescription.from_cut_levels(steps, k=4)
    spec = InterleavingSpec(nest, descriptions)
    return {"spec": spec, "steps": step_names}


def banking_atomic_sequence():
    """A multilevel-atomic interleaving of the Section 4.3 banking system.

    Transfers from *different* families interleave only at the
    withdrawals/deposits boundary; the audit runs contiguously.
    """
    return [
        "w11", "w12", "w21", "w22", "d21", "d22",
        "w31", "w32", "d11", "d12", "d31", "d32",
        "a_1", "a_2", "a_3",
    ]


def banking_executions():
    """Section 5.2's experiment: the entity-access table and two
    interleavings — one correctable (but not multilevel atomic) and one
    not correctable.

    Returns a dict with ``spec``, ``entity_of`` (step -> account), the
    induced ``dependency`` pair set of each interleaving, and the two
    sequences.
    """
    data = banking_spec()
    spec = data["spec"]
    entity_of = {
        "w11": "A", "w21": "A", "w31": "E", "a_1": "A",
        "w12": "B", "w22": "C", "w32": "D", "a_2": "B",
        "d11": "C", "d21": "E", "d31": "F", "a_3": "C",
        "d12": "D", "d22": "G", "d32": "H",
    }

    def dependency(sequence):
        pairs = set()
        for i, x in enumerate(sequence):
            for y in sequence[i + 1 :]:
                if (
                    spec.transaction_of(x) == spec.transaction_of(y)
                    or entity_of[x] == entity_of[y]
                ):
                    pairs.add((x, y))
        return pairs

    # Correctable but not multilevel atomic: transfers interleave inside
    # their withdrawal blocks, yet no essential dependency forces the
    # interleaving — reordering to the Section 4.3 atomic sequence keeps
    # every same-account access pair in order.
    correctable = [
        "w11", "w31", "w21", "w12", "a_1", "w22", "d11", "a_2",
        "d21", "d22", "w32", "d12", "a_3", "d31", "d32",
    ]
    # Not correctable: the audit reads account A before t1 writes it but
    # account C after t1's deposit into C, so the audit is pinned both
    # before and after t1 — the closure (which must keep the audit atomic
    # with respect to entire transfers) has a cycle.
    uncorrectable = [
        "a_1", "w11", "w12", "d11", "a_2", "a_3", "w21", "w22",
        "d21", "d22", "w31", "w32", "d31", "d32",
    ]
    return {
        "spec": spec,
        "entity_of": entity_of,
        "correctable": correctable,
        "uncorrectable": uncorrectable,
        "dependency": dependency,
    }
