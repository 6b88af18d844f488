"""E10: closure-maintenance ablation — seeding and pruning.

Design-choice ablation from DESIGN.md: the on-line schedulers maintain
the coherent closure of the performed prefix.  Three configurations:

* ``full`` — recompute from base dependency edges after every step
  (the tests' oracle window, ``tests/engine/oracle.py``);
* ``incremental`` — keep one live closure engine across steps: each
  observed step costs one segment update plus O(affected) bitset edge
  propagation, nothing is recomputed;
* ``incremental + pruning`` — additionally retire committed transactions
  whose lifetime no longer overlaps any live attempt (reachability kept
  by shortcut edges).

All three are exact (a companion test asserts identical verdicts).
Expected shape: the persistent engine beats per-step recomputation at
every stream length (asserted below), and **pruning is the lever that
keeps the window bounded** as the stream grows; without it the window
grows without bound.  (Raw time for the unpruned config is no longer a
fair proxy: the cyclic-verdict cache makes a window that has closed a
cycle nearly free, see the table notes.)
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _harness import record_table
from repro.core import KNest
from repro.engine import ClosureWindow
from repro.model import StepId, StepKind
from tests.engine.oracle import FullClosureWindow

#: The window each configuration runs.
WINDOWS = {"full": FullClosureWindow, "incremental": ClosureWindow}

SIZES = [40, 120, 240]
TXN_LENGTH = 5


def feed(window: ClosureWindow, n_steps: int, seed: int = 0) -> float:
    """Stream a workload of 5-step transactions (committed as they
    finish) through a window; returns elapsed seconds."""
    rng = random.Random(seed)
    live: dict[str, int] = {}
    cuts: dict[str, dict[int, int]] = {}
    next_txn = 0
    start = time.perf_counter()
    for _ in range(n_steps):
        if len(live) < 4:
            name = f"t{next_txn}"
            next_txn += 1
            live[name] = 0
            cuts[name] = {}
        name = rng.choice(sorted(live))
        index = live[name]
        live[name] += 1
        if index > 0 and rng.random() < 0.6:
            cuts[name][index - 1] = 2
        window.observe(
            name,
            StepId(name, index),
            f"x{rng.randrange(8)}",
            StepKind.UPDATE,
            cuts[name],
        )
        if live[name] == TXN_LENGTH:
            del live[name]
            window.mark_committed(name)
    return time.perf_counter() - start


def make_nest(n_txns: int) -> KNest:
    return KNest.from_paths({f"t{i}": ("g",) for i in range(n_txns)})


def make_window(mode: str, pruning: bool, n_txns: int) -> ClosureWindow:
    return WINDOWS[mode](
        make_nest(n_txns), prune_interval=4 if pruning else 10**9
    )


CONFIGS = [
    ("full", "full", False),
    ("incremental", "incremental", False),
    ("incremental+prune", "incremental", True),
]


@pytest.mark.parametrize("label,mode,pruning", CONFIGS)
def test_e10_window_benchmark(benchmark, label, mode, pruning):
    n_steps = 120
    benchmark.group = "E10 window feed (120 steps)"
    def run():
        window = make_window(mode, pruning, n_steps)
        feed(window, n_steps)
        return window
    window = benchmark(run)
    # Pruning performs a handful of extra closure computations of its own.
    assert window.closure_calls >= n_steps


def test_e10_ablation_table():
    rows = []
    for n_steps in SIZES:
        timing = {}
        final_size = {}
        for label, mode, pruning in CONFIGS:
            window = make_window(mode, pruning, n_steps)
            timing[label] = feed(window, n_steps)
            final_size[label] = window.size
        rows.append([
            n_steps,
            f"{timing['full'] * 1000:.0f}",
            f"{timing['incremental'] * 1000:.0f}",
            f"{timing['incremental+prune'] * 1000:.0f}",
            final_size["incremental"],
            final_size["incremental+prune"],
        ])
        assert (
            timing["incremental"] <= timing["full"]
        ), "persistent engine must beat per-step recomputation"
        assert (
            timing["incremental+prune"] <= timing["full"]
        ), "pruning must still beat per-step recomputation"
        assert (
            final_size["incremental+prune"] < final_size["incremental"]
        ), "pruning is what keeps the window bounded"
    record_table(
        "e10_closure_ablation",
        "E10: closure maintenance ablation",
        ["steps", "full (ms)", "incr (ms)", "incr+prune (ms)",
         "window w/o prune", "window w/ prune"],
        rows,
        notes=(
            "5-step transactions committed as they finish.  The "
            "persistent engine (incr) beats per-step recomputation at "
            "every size; pruning retired transactions is what keeps the "
            "window *size* bounded (last two columns).  History at 240 "
            "steps: seed full 683 / incr 825 / incr+prune 196 ms; after "
            "the incremental reachability core ~290 / ~180 / ~35 ms; "
            "after the cyclic-verdict cache the unpruned stream drops to "
            "~1 ms — this workload closes a cycle early and growth "
            "cannot un-close it, so every later observe returns the "
            "cached terminal verdict.  Pruning clears that cache (the "
            "pruned window may become acyclic again), so the honest "
            "timing comparison for the pruned config is against full "
            "recomputation, and the pruning lever shows up in the "
            "window-size columns rather than raw time."
        ),
    )


def test_e10_modes_agree():
    """The ablation must not change behaviour: identical acyclicity
    verdicts step by step across all three configurations."""
    rng = random.Random(3)
    nest = make_nest(4)
    windows = [
        ClosureWindow(nest, prune_interval=10**9),
        FullClosureWindow(nest, prune_interval=10**9),
        ClosureWindow(nest, prune_interval=3),
    ]
    counters = {f"t{i}": 0 for i in range(4)}
    cuts: dict[str, dict[int, int]] = {f"t{i}": {} for i in range(4)}
    for _ in range(40):
        name = rng.choice(sorted(counters))
        index = counters[name]
        counters[name] += 1
        if index > 0 and rng.random() < 0.5:
            cuts[name][index - 1] = 2
        args = (
            name, StepId(name, index), f"x{rng.randrange(4)}",
            StepKind.UPDATE, cuts[name],
        )
        verdicts = {w.observe(*args).is_partial_order for w in windows}
        assert len(verdicts) == 1
        if not verdicts.pop():
            break
