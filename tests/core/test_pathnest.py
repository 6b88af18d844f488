"""A nest grown one path at a time against the KNest.from_paths oracle.

The service grows its nest one admission at a time with ``KNest.add``;
its contract is that the class structure it reports is *exactly* what
``KNest.from_paths`` computes over the same mapping.  These properties
hold the grown nest to that oracle over random path sets."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.nests import KNest

labels = st.sampled_from(["a", "b", "c", "d"])
names = st.text(alphabet="tuvw0123456789", min_size=1, max_size=6)


@st.composite
def path_maps(draw):
    depth = draw(st.integers(0, 3))
    n = draw(st.integers(1, 8))
    items = draw(
        st.lists(names, min_size=n, max_size=n, unique=True)
    )
    return {
        item: tuple(
            draw(st.lists(labels, min_size=depth, max_size=depth))
        )
        for item in items
    }


def grow(paths):
    nest = KNest(len(next(iter(paths.values()))))
    for item, path in paths.items():
        nest.add(item, path)
    return nest


class TestOracle:
    @given(path_maps())
    def test_level_matches_from_paths(self, paths):
        grown = grow(paths)
        oracle = KNest.from_paths(paths)
        assert grown.k == oracle.k
        assert grown.items == oracle.items
        for x in paths:
            for y in paths:
                assert grown.level(x, y) == oracle.level(x, y)

    @given(path_maps())
    def test_same_class_and_class_id_consistent(self, paths):
        grown = grow(paths)
        oracle = KNest.from_paths(paths)
        for i in range(1, grown.k + 1):
            for x in paths:
                assert grown.class_of(i, x) == oracle.class_of(i, x)
                for y in paths:
                    same = oracle.same_class(i, x, y)
                    assert grown.same_class(i, x, y) == same
                    # class_id partitions identically (ids themselves may
                    # differ between nests; equality must not).
                    assert (
                        grown.class_id(i, x) == grown.class_id(i, y)
                    ) == same
