"""k-nests (Section 4.2 of the paper).

A *k-nest* ``pi`` for a set ``X`` assigns an equivalence relation ``pi(i)``
to each level ``i`` in ``1..k`` such that

* ``pi(1)`` has exactly one equivalence class (everything is related),
* ``pi(k)`` consists of singleton classes (nothing is related but itself),
* each ``pi(i)`` refines its predecessor ``pi(i-1)``.

For ``x, x' in X``, ``level(x, x')`` is the largest ``i`` with
``(x, x') in pi(i)``; pairs with higher level are more closely related.

In this library the elements of ``X`` are usually transaction identifiers,
and the nest encodes the hierarchical structure of an organisation (families
of bank customers, teams of CAD experts, ...).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TypeVar

from repro.errors import SpecificationError

T = TypeVar("T", bound=Hashable)

__all__ = ["KNest", "PathNest"]


class KNest:
    """A growable k-nest, stored as one hierarchy path per item.

    Each item maps to a path of ``k - 2`` group labels.  Two distinct
    items are ``pi(i)``-equivalent exactly when their paths agree on the
    first ``i - 1`` labels; level 1 relates everything and level ``k`` is
    the singleton partition.  Adding an item interns its path prefixes,
    so :meth:`add` and the per-pair queries (:meth:`level`,
    :meth:`class_id`, :meth:`same_class`) cost O(depth) whatever the
    number of items — an open system admits transactions one at a time.

    ``KNest(depth)`` is an empty nest; :meth:`from_paths`, :meth:`flat`
    and :meth:`from_partitions` (the paper's form) build a populated one.

    Examples
    --------
    The paper's banking 4-nest (Section 4.2) for three customer transfers
    ``t1, t2, t3`` (``t1`` and ``t2`` from a common family) and one bank
    audit ``a``::

        >>> nest = KNest.from_partitions([
        ...     [["t1", "t2", "t3", "a"]],
        ...     [["t1", "t2", "t3"], ["a"]],
        ...     [["t1", "t2"], ["t3"], ["a"]],
        ...     [["t1"], ["t2"], ["t3"], ["a"]],
        ... ])
        >>> nest.level("t1", "t2")
        3
        >>> nest.level("t1", "t3")
        2
        >>> nest.level("t1", "a")
        1
        >>> nest.level("a", "a")
        4
    """

    __slots__ = (
        "_depth", "_k", "_paths", "_shared", "_prefix_ids", "_item_ids",
        "_added",
    )

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise SpecificationError("path depth must be non-negative")
        self._depth = depth
        self._k = depth + 2
        self._paths: dict[T, tuple[Hashable, ...]] = {}
        # One tuple per distinct path, shared by every item placed there:
        # an open system admits many items onto a few paths.
        self._shared: dict[tuple, tuple] = {}
        # _prefix_ids[j] interns length-(j + 1) prefixes for level j + 2.
        self._prefix_ids: list[dict[tuple, int]] = [
            {} for _ in range(depth)
        ]
        self._item_ids: dict[T, int] = {}
        # Items ever added: the next item's id, whatever was discarded.
        self._added = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Mapping[T, Sequence[Hashable]]) -> "KNest":
        """Build a k-nest from hierarchy *paths*, all of one length.

        This is the natural encoding for organisational hierarchies: the
        banking nest uses paths like ``("customer", "family-1")`` for
        transfers and ``("audit:a1", "audit:a1")`` for audits (unique
        labels put the audit in a singleton class from level 2 on).
        """
        if not paths:
            raise SpecificationError("from_paths needs at least one item")
        lengths = {len(p) for p in paths.values()}
        if len(lengths) != 1:
            raise SpecificationError(
                f"all paths must have equal length, got lengths {sorted(lengths)}"
            )
        nest = cls(lengths.pop())
        for item, path in paths.items():
            nest.add(item, path)
        return nest

    @classmethod
    def flat(cls, items: Iterable[T]) -> "KNest":
        """The 2-nest: everything related at level 1, nothing at level 2.

        Under this nest, multilevel atomicity degenerates to classical
        serializability (Section 4.3's first example).
        """
        nest = cls(0)
        for item in items:
            nest.add(item, ())
        return nest

    @classmethod
    def from_partitions(
        cls, partitions: Sequence[Iterable[Iterable[T]]]
    ) -> "KNest":
        """Build a k-nest from the paper's form: ``partitions[i - 1]`` is
        the partition for level ``i``, an iterable of classes.

        Level 1 must be a single class, level ``k`` all singletons, and
        each level must refine the previous one.  An item's path is the
        index of its class at each of the levels ``2..k-1``.
        """
        if len(partitions) < 2:
            raise SpecificationError("a k-nest needs at least two levels")
        levels = [[frozenset(c) for c in classes] for classes in partitions]
        owners: list[dict[T, int]] = []
        for level, classes in enumerate(levels, 1):
            owner: dict[T, int] = {}
            for cid, members in enumerate(classes):
                if not members:
                    raise SpecificationError(
                        f"level {level} contains an empty class"
                    )
                for item in members:
                    if item in owner:
                        raise SpecificationError(
                            f"item {item!r} appears in two classes of "
                            f"level {level}"
                        )
                    owner[item] = cid
            owners.append(owner)
        if len(levels[0]) != 1:
            raise SpecificationError("pi(1) must consist of exactly one class")
        if any(len(members) != 1 for members in levels[-1]):
            raise SpecificationError("pi(k) must consist of singleton classes")
        for i in range(1, len(levels)):
            if owners[i].keys() != owners[0].keys():
                raise SpecificationError(
                    f"level {i + 1} does not partition the same item set as level 1"
                )
            coarse = owners[i - 1]
            for members in levels[i]:
                if len({coarse[item] for item in members}) != 1:
                    raise SpecificationError(
                        f"level {i + 1} does not refine level {i}: class "
                        f"{sorted(map(repr, members))} straddles two "
                        f"level-{i} classes"
                    )
        nest = cls(len(levels) - 2)
        for (item,) in levels[-1]:
            nest.add(item, tuple(owner[item] for owner in owners[1:-1]))
        return nest

    def add(self, item: T, path: Sequence[Hashable]) -> None:
        """Admit ``item`` at ``path``.  Re-adding with the same path is a
        no-op; a conflicting path is an error (an item cannot move)."""
        path = tuple(path)
        if len(path) != self._depth:
            raise SpecificationError(
                f"path for {item!r} has length {len(path)}, nest depth is "
                f"{self._depth}"
            )
        known = self._paths.get(item)
        if known is not None:
            if known != path:
                raise SpecificationError(
                    f"item {item!r} already placed at {known!r}"
                )
            return
        path = self._shared.setdefault(path, path)
        self._paths[item] = path
        self._item_ids[item] = self._added
        self._added += 1
        for j in range(self._depth):
            prefix = path[: j + 1]
            ids = self._prefix_ids[j]
            if prefix not in ids:
                ids[prefix] = len(ids)

    def discard(self, item: T) -> None:
        """Forget ``item`` (a no-op for an unknown one).  No other
        item's class ids move, nor do those of items added later: an
        open system retires the committed transactions its concurrency
        control no longer places this way."""
        if self._paths.pop(item, None) is not None:
            del self._item_ids[item]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of levels."""
        return self._k

    @property
    def items(self) -> frozenset:
        """The underlying set ``X``."""
        return frozenset(self._paths)

    def path_of(self, x: T) -> tuple[Hashable, ...]:
        self._require(x)
        return self._paths[x]

    def level(self, x: T, y: T) -> int:
        """``level(x, y)``: the largest ``i`` with ``(x, y) in pi(i)`` —
        one more than the common prefix of two distinct items' paths."""
        self._require(x)
        self._require(y)
        if x == y:
            return self._k
        agree = 0
        for a, b in zip(self._paths[x], self._paths[y]):
            if a != b:
                break
            agree += 1
        return agree + 1

    def classes(self, i: int) -> tuple[frozenset, ...]:
        """The equivalence classes of ``pi(i)`` (a scan of every path)."""
        self._require_level(i)
        groups: dict[Hashable, set] = {}
        for item, path in self._paths.items():
            key = item if i == self._k else path[: i - 1]
            groups.setdefault(key, set()).add(item)
        return tuple(frozenset(members) for members in groups.values())

    def class_of(self, i: int, x: T) -> frozenset:
        """The ``pi(i)``-class containing ``x`` (a scan of every path)."""
        self._require_level(i)
        self._require(x)
        if i == self._k:
            return frozenset((x,))
        prefix = self._paths[x][: i - 1]
        return frozenset(
            item
            for item, path in self._paths.items()
            if path[: i - 1] == prefix
        )

    def class_id(self, i: int, x: T) -> int:
        """A canonical integer id of the ``pi(i)``-class containing ``x``."""
        self._require_level(i)
        self._require(x)
        if i == 1:
            return 0
        if i == self._k:
            return self._item_ids[x]
        return self._prefix_ids[i - 2][self._paths[x][: i - 1]]

    def same_class(self, i: int, x: T, y: T) -> bool:
        """Whether ``(x, y) in pi(i)``."""
        self._require_level(i)
        self._require(x)
        self._require(y)
        if i == 1:
            return True
        if i == self._k:
            return x == y
        return self._paths[x][: i - 1] == self._paths[y][: i - 1]

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def restrict(self, items: Iterable[T]) -> "KNest":
        """The induced k-nest on a subset of the items.

        Used when deriving the interleaving specification for a particular
        execution, which mentions only the transactions that actually took
        steps (Section 4.3), and by the closure window on its committed
        transactions: the cost follows the subset, not the whole nest.
        """
        keep = dict.fromkeys(items)
        missing = [x for x in keep if x not in self._paths]
        if missing:
            raise SpecificationError(
                f"unknown items: {sorted(map(repr, missing))}"
            )
        if not keep:
            raise SpecificationError("cannot restrict a nest to the empty set")
        nest = KNest(self._depth)
        for item in keep:
            nest.add(item, self._paths[item])
        return nest

    def truncate(self, k: int) -> "KNest":
        """Coarsen to a ``k``-nest by keeping levels ``1..k-1`` and forcing
        level ``k`` to singletons.

        This is the ablation used by experiment E6: truncating the CAD
        5-nest to depth 2 yields plain serializability; each extra level
        re-admits one tier of interleaving.
        """
        if not 2 <= k <= self._k:
            raise SpecificationError(
                f"truncation depth must be in [2, {self._k}], got {k}"
            )
        nest = KNest(k - 2)
        for item, path in self._paths.items():
            nest.add(item, path[: k - 2])
        return nest

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _require(self, x: T) -> None:
        if x not in self._paths:
            raise SpecificationError(f"unknown item: {x!r}")

    def _require_level(self, i: int) -> None:
        if not 1 <= i <= self._k:
            raise SpecificationError(f"level must be in [1, {self._k}], got {i}")

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, item: object) -> bool:
        return item in self._paths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KNest):
            return NotImplemented
        return self._k == other._k and all(
            set(self.classes(i)) == set(other.classes(i))
            for i in range(1, self._k + 1)
        )

    def __repr__(self) -> str:
        return f"KNest(k={self._k}, items={len(self._paths)})"


#: The growable nest's former name; ``benchmarks/e18/inproc.py`` builds one.
PathNest = KNest
