"""Unit and property tests for k-nests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KNest
from repro.errors import SpecificationError


@pytest.fixture()
def banking4():
    return KNest.from_partitions([
        [["t1", "t2", "t3", "a"]],
        [["t1", "t2", "t3"], ["a"]],
        [["t1", "t2"], ["t3"], ["a"]],
        [["t1"], ["t2"], ["t3"], ["a"]],
    ])


class TestConstruction:
    def test_k_and_items(self, banking4):
        assert banking4.k == 4
        assert banking4.items == {"t1", "t2", "t3", "a"}

    def test_level_one_must_be_single_class(self):
        with pytest.raises(SpecificationError):
            KNest.from_partitions([[["x"], ["y"]], [["x"], ["y"]]])

    def test_level_k_must_be_singletons(self):
        with pytest.raises(SpecificationError):
            KNest.from_partitions([[["x", "y"]], [["x", "y"]]])

    def test_refinement_enforced(self):
        with pytest.raises(SpecificationError, match="refine"):
            KNest.from_partitions([
                [["x", "y", "z"]],
                [["x", "y"], ["z"]],
                [["x", "z"], ["y"]],  # not a refinement of level 2
                [["x"], ["y"], ["z"]],
            ])

    def test_same_item_set_at_all_levels(self):
        with pytest.raises(SpecificationError):
            KNest.from_partitions([[["x", "y"]], [["x"]]])

    def test_duplicate_item_in_level(self):
        with pytest.raises(SpecificationError):
            KNest.from_partitions([[["x", "y"]], [["x", "y"], ["y"]]])

    def test_empty_class_rejected(self):
        with pytest.raises(SpecificationError):
            KNest.from_partitions([[["x"]], [[], ["x"]]])


class TestLevel:
    def test_levels(self, banking4):
        assert banking4.level("t1", "t2") == 3
        assert banking4.level("t1", "t3") == 2
        assert banking4.level("t1", "a") == 1
        assert banking4.level("t2", "t2") == 4

    def test_symmetry(self, banking4):
        for x in banking4.items:
            for y in banking4.items:
                assert banking4.level(x, y) == banking4.level(y, x)

    def test_unknown_item(self, banking4):
        with pytest.raises(SpecificationError):
            banking4.level("t1", "nope")


class TestQueries:
    def test_class_of(self, banking4):
        assert banking4.class_of(3, "t1") == {"t1", "t2"}
        assert banking4.class_of(1, "a") == {"t1", "t2", "t3", "a"}

    def test_same_class(self, banking4):
        assert banking4.same_class(2, "t1", "t3")
        assert not banking4.same_class(2, "t1", "a")

    def test_level_bounds(self, banking4):
        with pytest.raises(SpecificationError):
            banking4.classes(0)
        with pytest.raises(SpecificationError):
            banking4.classes(5)


class TestFromPaths:
    def test_banking_paths(self):
        nest = KNest.from_paths({
            "t1": ("transfers", "f1"),
            "t2": ("transfers", "f1"),
            "t3": ("transfers", "f2"),
            "a": ("audit:a", "audit:a"),
        })
        assert nest.k == 4
        assert nest.level("t1", "t2") == 3
        assert nest.level("t1", "t3") == 2
        assert nest.level("t1", "a") == 1

    def test_unequal_path_lengths_rejected(self):
        with pytest.raises(SpecificationError):
            KNest.from_paths({"x": ("a",), "y": ("a", "b")})

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            KNest.from_paths({})


class TestGrowth:
    def test_readd_same_path_is_noop(self):
        nest = KNest(2)
        nest.add("t", ("a", "b"))
        nest.add("t", ("a", "b"))
        assert len(nest) == 1

    def test_readd_conflicting_path_rejected(self):
        nest = KNest(2)
        nest.add("t", ("a", "b"))
        with pytest.raises(SpecificationError, match="already placed"):
            nest.add("t", ("a", "c"))

    def test_wrong_depth_rejected(self):
        nest = KNest(2)
        with pytest.raises(SpecificationError, match="length 1"):
            nest.add("t", ("a",))

    def test_unknown_item_rejected(self):
        nest = KNest(1)
        nest.add("t", ("a",))
        with pytest.raises(SpecificationError, match="unknown item"):
            nest.level("t", "ghost")

    def test_membership_and_paths(self):
        nest = KNest(1)
        nest.add("t", ("fam",))
        assert "t" in nest and "u" not in nest
        assert nest.path_of("t") == ("fam",)


class TestFlat:
    def test_flat_is_two_levels(self):
        nest = KNest.flat(["x", "y", "z"])
        assert nest.k == 2
        assert nest.level("x", "y") == 1
        assert nest.level("x", "x") == 2


class TestDerivation:
    def test_restrict(self, banking4):
        sub = banking4.restrict({"t1", "t2"})
        assert sub.items == {"t1", "t2"}
        assert sub.level("t1", "t2") == 3

    def test_restrict_unknown(self, banking4):
        with pytest.raises(SpecificationError):
            banking4.restrict({"zz"})

    def test_truncate_to_two_is_flat(self, banking4):
        flat = banking4.truncate(2)
        assert flat.k == 2
        assert flat.level("t1", "t2") == 1

    def test_truncate_to_three(self, banking4):
        t = banking4.truncate(3)
        assert t.k == 3
        assert t.level("t1", "t2") == 2
        assert t.level("t1", "a") == 1

    def test_truncate_bounds(self, banking4):
        with pytest.raises(SpecificationError):
            banking4.truncate(1)
        with pytest.raises(SpecificationError):
            banking4.truncate(5)

    def test_truncate_full_depth_identity(self, banking4):
        assert banking4.truncate(4) == banking4


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

paths_strategy = st.dictionaries(
    keys=st.integers(0, 30),
    values=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=12,
)


@given(paths=paths_strategy)
@settings(max_examples=60)
def test_from_paths_always_valid(paths):
    nest = KNest.from_paths(paths)
    assert nest.k == 4
    items = list(nest.items)
    for x in items:
        assert nest.level(x, x) == nest.k


@given(paths=paths_strategy, data=st.data())
@settings(max_examples=60)
def test_level_equals_common_prefix(paths, data):
    nest = KNest.from_paths(paths)
    items = sorted(nest.items)
    x = data.draw(st.sampled_from(items))
    y = data.draw(st.sampled_from(items))
    if x == y:
        assert nest.level(x, y) == nest.k
    else:
        px, py = paths[x], paths[y]
        common = 0
        for a, b in zip(px, py):
            if a != b:
                break
            common += 1
        assert nest.level(x, y) == 1 + common


@given(paths=paths_strategy, data=st.data())
@settings(max_examples=40)
def test_level_is_ultrametric(paths, data):
    """level(x, z) >= min(level(x, y), level(y, z)): nests are
    ultrametric, the structural fact Lemma 5's proof leans on."""
    nest = KNest.from_paths(paths)
    items = sorted(nest.items)
    x = data.draw(st.sampled_from(items))
    y = data.draw(st.sampled_from(items))
    z = data.draw(st.sampled_from(items))
    assert nest.level(x, z) >= min(nest.level(x, y), nest.level(y, z))


labels = st.sampled_from(["a", "b", "c", "d"])
names = st.text(alphabet="tuvw0123456789", min_size=1, max_size=6)


@st.composite
def path_maps(draw):
    depth = draw(st.integers(0, 3))
    n = draw(st.integers(1, 8))
    items = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    return {
        item: tuple(draw(st.lists(labels, min_size=depth, max_size=depth)))
        for item in items
    }


@given(paths=path_maps())
def test_partition_form_agrees_with_path_form(paths):
    """The paper's partition form of a nest, rebuilt from its classes,
    relates every pair exactly as the path form it came from."""
    nest = KNest.from_paths(paths)
    rebuilt = KNest.from_partitions(
        [nest.classes(i) for i in range(1, nest.k + 1)]
    )
    assert rebuilt == nest
    for i in range(1, nest.k + 1):
        for x in paths:
            assert rebuilt.class_of(i, x) == nest.class_of(i, x)
            for y in paths:
                assert rebuilt.level(x, y) == nest.level(x, y)
                same = nest.same_class(i, x, y)
                assert rebuilt.same_class(i, x, y) == same
                assert (nest.class_id(i, x) == nest.class_id(i, y)) == same


@given(paths=path_maps(), data=st.data())
def test_restrict_matches_from_paths(paths, data):
    subset = data.draw(
        st.lists(st.sampled_from(sorted(paths)), min_size=1, unique=True)
    )
    assert KNest.from_paths(paths).restrict(subset) == KNest.from_paths(
        {item: paths[item] for item in subset}
    )


@given(paths=path_maps())
def test_incremental_add_equals_bulk(paths):
    """Adding one item at a time gives the same relation as seeding
    everything up front — the open-system growth property."""
    bulk = KNest.from_paths(paths)
    grown = KNest(len(next(iter(paths.values()))))
    for item, path in paths.items():
        grown.add(item, path)
    for x in paths:
        for y in paths:
            assert grown.level(x, y) == bulk.level(x, y)
