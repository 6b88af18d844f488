"""Differential test: the closure window against its oracle.

The oracle (:class:`tests.engine.oracle.FullClosureWindow`) recomputes
the closure from base edges on every call; the window carries a live
engine across perform/commit/prune and only rebuilds on aborts.  Driving both with an
identical randomised stream — including commits that trigger pruning and
occasional aborts — they must agree *pair for pair*, not just on the
acyclicity verdict.
"""

from __future__ import annotations

import random

import pytest

from repro.core import KNest
from repro.engine import ClosureWindow
from repro.model import StepId, StepKind
from tests.engine.oracle import FullClosureWindow

TXN_LENGTH = 5


def _drive(seed: int, n_steps: int, abort_rate: float) -> int:
    """Feed the same random schedule to both modes, asserting identity
    after every event; returns the number of comparisons made."""
    rng = random.Random(seed)
    nest = KNest.from_paths({f"t{i}": ("g",) for i in range(n_steps)})
    windows = {
        "incremental": ClosureWindow(nest, prune_interval=4),
        "full": FullClosureWindow(nest, prune_interval=4),
    }
    live: dict[str, int] = {}
    cuts: dict[str, dict[int, int]] = {}
    attempt = 0
    next_txn = 0
    compared = 0
    for _ in range(n_steps):
        if len(live) < 3:
            name = f"t{next_txn}"
            next_txn += 1
            live[name] = 0
            cuts[name] = {}
        name = rng.choice(sorted(live))
        index = live[name]
        live[name] += 1
        if index > 0 and rng.random() < 0.5:
            cuts[name][index - 1] = 2
        entity = f"x{rng.randrange(6)}"
        results = {
            mode: window.observe(
                name, StepId(name, index), entity,
                StepKind.UPDATE, cuts[name],
            )
            for mode, window in windows.items()
        }
        incr, full = results["incremental"], results["full"]
        assert incr.is_partial_order == full.is_partial_order
        if incr.is_partial_order:
            assert incr.pairs() == full.pairs()
            compared += 1
        cyclic = not incr.is_partial_order
        if cyclic or (live[name] > 1 and rng.random() < abort_rate):
            # Abort mid-flight: both windows drop the attempt and must
            # agree on everything that survives.
            attempt += 1
            for window in windows.values():
                window.drop(name)
            del live[name]
            del cuts[name]
            after = {m: w.closure() for m, w in windows.items()}
            if after["incremental"] is not None:
                assert (
                    after["incremental"].is_partial_order
                    == after["full"].is_partial_order
                )
                if after["incremental"].is_partial_order:
                    assert (
                        after["incremental"].pairs()
                        == after["full"].pairs()
                    )
                    compared += 1
        elif live[name] == TXN_LENGTH:
            del live[name]
            for window in windows.values():
                window.mark_committed(name)
            sizes = {w.size for w in windows.values()}
            assert len(sizes) == 1, "pruning must not depend on the window"
    return compared


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_modes_agree_pair_for_pair(seed):
    assert _drive(seed, n_steps=90, abort_rate=0.0) > 0


@pytest.mark.parametrize("seed", [5, 11])
def test_modes_agree_with_aborts(seed):
    assert _drive(seed, n_steps=70, abort_rate=0.15) > 0
