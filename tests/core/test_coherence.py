"""Unit and property tests for coherent relations and closures."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BreakpointDescription,
    InterleavingSpec,
    KNest,
    coherence_violations,
    coherent_closure,
    coherent_closure_pairs,
    is_coherent,
    is_coherent_total_order,
    total_order_violations,
)
from repro.errors import NotAPartialOrderError

from tests.core.strategies import specs_with_seeds, specs_with_sequences


def two_transaction_spec(k=2, cut_levels_a=None, cut_levels_b=None):
    nest = KNest.flat(["A", "B"]) if k == 2 else None
    if nest is None:
        nest = KNest([
            [["A", "B"]],
            [["A", "B"]],
            [["A"], ["B"]],
        ])
    descriptions = {
        "A": BreakpointDescription.from_cut_levels(
            ["a1", "a2", "a3"], k, cut_levels_a or {}
        ),
        "B": BreakpointDescription.from_cut_levels(
            ["b1", "b2"], k, cut_levels_b or {}
        ),
    }
    return InterleavingSpec(nest, descriptions)


def chains(spec):
    out = set()
    for t in spec.transactions:
        elems = spec.description(t).elements
        out |= set(itertools.combinations(elems, 2))
    return out


class TestIsCoherent:
    def test_chains_alone_are_coherent(self):
        spec = two_transaction_spec()
        assert is_coherent(spec, chains(spec))

    def test_missing_chain_pair_violates_condition_a(self):
        spec = two_transaction_spec()
        relation = chains(spec) - {("a1", "a3")}
        violations = coherence_violations(spec, relation)
        assert any(v.kind == "missing-order" for v in violations)

    def test_serial_cross_pair_needs_whole_transaction(self):
        """k=2: (a1, b1) alone is incoherent — B_A(1) has no interior
        breakpoints, so b1 after a1 must be after a2 and a3 too."""
        spec = two_transaction_spec()
        relation = chains(spec) | {("a1", "b1")}
        violations = coherence_violations(spec, relation)
        details = {v.detail for v in violations if v.kind == "segment-break"}
        assert ("a1", "a2", "b1") in details
        assert ("a1", "a3", "b1") in details

    def test_cross_pair_from_segment_end_is_coherent(self):
        spec = two_transaction_spec()
        relation = chains(spec) | {("a3", "b1"), ("a3", "b2")}
        assert is_coherent(spec, relation)

    def test_breakpoint_allows_partial_follow(self):
        """k=3 with a level-2 breakpoint after a1: (a1, b1) is coherent
        because a1 closes its own B_A(2) segment."""
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        relation = chains(spec) | {("a1", "b1"), ("a1", "b2")}
        assert is_coherent(spec, relation)

    def test_no_breakpoint_blocks_partial_follow(self):
        spec = two_transaction_spec(k=3, cut_levels_a={1: 2})
        relation = chains(spec) | {("a1", "b1")}
        assert not is_coherent(spec, relation)


class TestClosurePairs:
    def test_closure_contains_seed_and_chains(self):
        spec = two_transaction_spec()
        pairs, acyclic = coherent_closure_pairs(spec, {("a1", "b1")})
        assert acyclic
        assert chains(spec) <= pairs
        assert ("a1", "b1") in pairs

    def test_closure_propagates_to_segment_end(self):
        spec = two_transaction_spec()
        pairs, _ = coherent_closure_pairs(spec, {("a1", "b1")})
        assert ("a2", "b1") in pairs
        assert ("a3", "b1") in pairs

    def test_closure_respects_breakpoints(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        pairs, _ = coherent_closure_pairs(spec, {("a1", "b1")})
        assert ("a2", "b1") not in pairs

    def test_two_sided_pin_creates_cycle(self):
        """b1 after a1 but b2 before a3 pins B inside A's single
        level-1 segment: the closure must be cyclic."""
        spec = two_transaction_spec()
        pairs, acyclic = coherent_closure_pairs(
            spec, {("a1", "b1"), ("b2", "a3")}
        )
        assert not acyclic

    def test_closure_is_transitively_closed(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2, 1: 2})
        pairs, acyclic = coherent_closure_pairs(
            spec, {("a1", "b1"), ("b2", "a2")}
        )
        assert acyclic
        for (x, y), (y2, z) in itertools.product(pairs, pairs):
            if y == y2:
                assert (x, z) in pairs

    def test_closure_idempotent(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        pairs, _ = coherent_closure_pairs(spec, {("a1", "b1")})
        again, acyclic = coherent_closure_pairs(spec, pairs)
        assert acyclic
        assert again == pairs


class TestClosureGraph:
    def test_cycle_witness_is_a_cycle(self):
        spec = two_transaction_spec()
        result = coherent_closure(spec, {("a1", "b1"), ("b2", "a3")})
        assert not result.is_partial_order
        cycle = result.cycle
        assert cycle[0] == cycle[-1]
        for u, v in zip(cycle, cycle[1:]):
            assert result.index.has_edge(u, v)

    def test_require_partial_order(self):
        spec = two_transaction_spec()
        result = coherent_closure(spec, {("a1", "b1"), ("b2", "a3")})
        with pytest.raises(NotAPartialOrderError):
            result.require_partial_order()

    def test_pairs_materialisation_matches_reachability(self):
        spec = two_transaction_spec()
        result = coherent_closure(spec, {("a1", "b1")})
        pairs = result.pairs()
        graph = nx.DiGraph(result.index.iter_edges())
        for a, b in pairs:
            assert nx.has_path(graph, a, b)


class TestTotalOrders:
    def test_serial_order_is_coherent(self):
        spec = two_transaction_spec()
        assert is_coherent_total_order(spec, ["a1", "a2", "a3", "b1", "b2"])
        assert is_coherent_total_order(spec, ["b1", "b2", "a1", "a2", "a3"])

    def test_interleaved_order_violates_serial_spec(self):
        spec = two_transaction_spec()
        assert not is_coherent_total_order(spec, ["a1", "b1", "a2", "a3", "b2"])

    def test_breakpoint_admits_interleaving(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        assert is_coherent_total_order(spec, ["a1", "b1", "b2", "a2", "a3"])
        assert not is_coherent_total_order(spec, ["a1", "a2", "b1", "b2", "a3"])

    def test_chain_violation_detected(self):
        spec = two_transaction_spec()
        violations = total_order_violations(
            spec, ["a2", "a1", "a3", "b1", "b2"]
        )
        assert any(v.kind == "missing-order" for v in violations)

    def test_missing_step_raises(self):
        spec = two_transaction_spec()
        with pytest.raises(NotAPartialOrderError):
            total_order_violations(spec, ["a1", "a2", "a3", "b1"])

    def test_duplicate_step_raises(self):
        spec = two_transaction_spec()
        with pytest.raises(NotAPartialOrderError):
            total_order_violations(spec, ["a1", "a1", "a2", "a3", "b1", "b2"])

    def test_foreign_step_raises(self):
        spec = two_transaction_spec()
        with pytest.raises(NotAPartialOrderError):
            total_order_violations(spec, ["a1", "a2", "a3", "b1", "b2", "zz"])


# ---------------------------------------------------------------------------
# word-boundary sizes
# ---------------------------------------------------------------------------


def two_chain_spec(len_a: int, len_b: int):
    """Two flat serial transactions of the given lengths, seeded with a
    few forward cross edges (deterministic)."""
    nest = KNest.from_paths({"a": ("g",), "b": ("g",)})
    k = nest.k
    descriptions = {
        "a": BreakpointDescription.from_cut_levels(
            [f"a{j}" for j in range(len_a)], k,
            {gap: 2 for gap in range(0, len_a - 1, 3)},
        ),
        "b": BreakpointDescription.from_cut_levels(
            [f"b{j}" for j in range(len_b)], k,
            {gap: 2 for gap in range(0, len_b - 1, 4)},
        ),
    }
    spec = InterleavingSpec(nest, descriptions)
    seed = {(f"a{j}", f"b{j}") for j in range(0, min(len_a, len_b), 2)}
    return spec, seed


@pytest.mark.parametrize("total", [63, 64, 65, 127, 128, 129])
def test_word_boundary_sizes(total):
    """Node counts straddling 64-bit word boundaries: the bitset engine
    must not lose or invent bits at the seams."""
    len_a = total // 2
    spec, seed = two_chain_spec(len_a, total - len_a)
    assert len(spec.steps) == total
    pairs, acyclic = coherent_closure_pairs(spec, seed)
    result = coherent_closure(spec, seed)
    assert acyclic and result.is_partial_order
    assert result.pairs() == pairs


def test_single_block_multiple_words():
    """One long transaction alone (no cross edges): chain closure only."""
    spec, _ = two_chain_spec(70, 3)
    pairs, acyclic = coherent_closure_pairs(spec, set())
    result = coherent_closure(spec, set())
    assert acyclic and result.is_partial_order
    assert result.pairs() == pairs


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(specs_with_seeds())
@settings(max_examples=220, deadline=None)
def test_graph_closure_agrees_with_pair_closure(spec_and_seed):
    """Differential identity between the incremental bitset engine and
    the reference fixpoint oracle: same verdict, pair-for-pair equal
    closures when acyclic, and a genuine witness cycle when not."""
    spec, seed = spec_and_seed
    pairs, acyclic = coherent_closure_pairs(spec, seed)
    result = coherent_closure(spec, seed)
    assert result.is_partial_order == acyclic
    if acyclic:
        assert result.pairs() == pairs
    else:
        cycle = result.cycle
        assert cycle is not None and len(cycle) > 1
        assert cycle[0] == cycle[-1]
        for u, v in zip(cycle, cycle[1:]):
            assert result.index.has_edge(u, v)


@given(specs_with_seeds())
@settings(max_examples=60, deadline=None)
def test_closure_is_coherent_when_acyclic(spec_and_seed):
    spec, seed = spec_and_seed
    pairs, acyclic = coherent_closure_pairs(spec, seed)
    if acyclic:
        assert is_coherent(spec, pairs)


@given(specs_with_seeds())
@settings(max_examples=60, deadline=None)
def test_closure_monotone_in_seed(spec_and_seed):
    spec, seed = spec_and_seed
    full, acyclic_full = coherent_closure_pairs(spec, seed)
    smaller = set(list(seed)[: len(seed) // 2])
    part, acyclic_part = coherent_closure_pairs(spec, smaller)
    if acyclic_full:
        assert acyclic_part
        assert part <= full


@given(specs_with_sequences())
@settings(max_examples=80, deadline=None)
def test_total_order_check_matches_pairwise_definition(spec_and_sequence):
    """The fast O(n k log n) total-order check agrees with the literal
    coherence definition applied to the order's full pair set."""
    spec, sequence = spec_and_sequence
    explicit = set(itertools.combinations(sequence, 2))
    assert is_coherent_total_order(spec, sequence) == is_coherent(
        spec, explicit
    )


@given(specs_with_sequences())
@settings(max_examples=60, deadline=None)
def test_coherent_total_orders_have_acyclic_closure(spec_and_sequence):
    """Soundness half of Theorem 2: a coherent total order's own pair set
    closes without cycles."""
    spec, sequence = spec_and_sequence
    if is_coherent_total_order(spec, sequence):
        explicit = set(itertools.combinations(sequence, 2))
        _, acyclic = coherent_closure_pairs(spec, explicit)
        assert acyclic
