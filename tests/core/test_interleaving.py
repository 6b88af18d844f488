"""Unit tests for InterleavingSpec."""

from __future__ import annotations

import pytest

from repro.core import BreakpointDescription, InterleavingSpec, KNest
from repro.errors import SpecificationError


@pytest.fixture()
def spec():
    nest = KNest.from_partitions([
        [["t", "u", "v"]],
        [["t", "u"], ["v"]],
        [["t"], ["u"], ["v"]],
    ])
    descriptions = {
        "t": BreakpointDescription.from_cut_levels(
            ["t0", "t1", "t2"], 3, {0: 2}
        ),
        "u": BreakpointDescription.from_cut_levels(["u0", "u1"], 3),
        "v": BreakpointDescription.from_cut_levels(["v0"], 3),
    }
    return InterleavingSpec(nest, descriptions)


class TestConstruction:
    def test_basic_queries(self, spec):
        assert spec.k == 3
        assert spec.transactions == {"t", "u", "v"}
        assert spec.steps == {"t0", "t1", "t2", "u0", "u1", "v0"}

    def test_mismatched_k_rejected(self):
        nest = KNest.flat(["t"])
        desc = BreakpointDescription.from_cut_levels(["t0"], 3)
        with pytest.raises(SpecificationError, match="k="):
            InterleavingSpec(nest, {"t": desc})

    def test_descriptions_must_cover_nest(self):
        nest = KNest.flat(["t", "u"])
        desc = BreakpointDescription.serial(["t0"])
        with pytest.raises(SpecificationError, match="cover"):
            InterleavingSpec(nest, {"t": desc})

    def test_disjoint_step_sets_enforced(self):
        nest = KNest.flat(["t", "u"])
        with pytest.raises(SpecificationError, match="disjoint"):
            InterleavingSpec(nest, {
                "t": BreakpointDescription.serial(["s0"]),
                "u": BreakpointDescription.serial(["s0"]),
            })


class TestQueries:
    def test_transaction_of(self, spec):
        assert spec.transaction_of("t1") == "t"
        assert spec.transaction_of("v0") == "v"
        with pytest.raises(SpecificationError):
            spec.transaction_of("zz")

    def test_position_of(self, spec):
        assert spec.position_of("t0") == 0
        assert spec.position_of("t2") == 2

    def test_precedes_in_transaction(self, spec):
        assert spec.precedes_in_transaction("t0", "t2")
        assert not spec.precedes_in_transaction("t2", "t0")
        assert not spec.precedes_in_transaction("t0", "u0")

    def test_segment_last(self, spec):
        # t's level-2 cut sits after t0.
        assert spec.segment_last("t0", 2) == "t0"
        assert spec.segment_last("t1", 2) == "t2"
        assert spec.segment_last("t0", 1) == "t2"

    def test_chain_pairs(self, spec):
        pairs = set(spec.chain_pairs())
        assert ("t0", "t1") in pairs
        assert ("t1", "t2") in pairs
        assert ("u0", "u1") in pairs
        assert len(pairs) == 3

    def test_level(self, spec):
        assert spec.level("t", "u") == 2
        assert spec.level("t", "v") == 1


class TestDerivation:
    def test_restrict(self, spec):
        sub = spec.restrict(["t", "v"])
        assert sub.transactions == {"t", "v"}
        assert sub.level("t", "v") == 1

    def test_truncate(self, spec):
        flat = spec.truncate(2)
        assert flat.k == 2
        assert flat.level("t", "u") == 1
        # all interior breakpoints vanish at level 1 of the 2-nest view
        assert flat.description("t").cuts(1) == frozenset()

    def test_repr(self, spec):
        assert "transactions=3" in repr(spec)
