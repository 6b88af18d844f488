"""The closure window's prune against a golden the parent commit wrote.

A prune retires the committed transactions that ended before every live
attempt began, and bridges reachability through them with shortcut edges
among the committed transactions that survive it.  When none survives
there is nothing to bridge, so the window must skip the committed-only
closure — and nothing it keeps may change.  The golden pins, over seeded
random streams with commits, aborts and partial rollbacks, every
observe's verdict and every prune's outcome as the reference commit
computed them.

Regenerate — only ever from the commit whose behaviour is the reference
— with ``PYTHONPATH=<that checkout>/src:<that checkout> python
tests/engine/test_window_prune.py`` (the checkout root makes the
oracle window in ``tests/engine/oracle.py`` importable).
"""

from __future__ import annotations

import asyncio
import gzip
import json
import os
import random

import pytest

from repro.core import KNest
from repro.engine import ClosureWindow
from repro.model import StepId, StepKind
from tests.engine.oracle import FullClosureWindow

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_window_prune.json.gz"
)

#: Transaction names a stream may use; every one is in the nest.
NAMES = 200
NESTS = {
    # Level 1 relates everything, level 2 nothing: no breakpoint can open
    # a transaction to another.
    "flat": lambda: KNest.from_paths({f"t{i}": () for i in range(NAMES)}),
    # Three group levels (k = 5): breakpoints of levels 2-4 open a
    # transaction to ever closer relatives, higher ones to nobody.
    "deep": lambda: KNest.from_paths({
        f"t{i}": (f"a{i % 2}", f"b{i % 3}", f"c{i % 5}")
        for i in range(NAMES)
    }),
}
#: The window, and (``"full"``) its batch-recompute oracle.
WINDOWS = {"incremental": ClosureWindow, "full": FullClosureWindow}
#: The conflict model stays in each stream's key and rng seed, as the
#: golden spells them: ``"all"``, the only model the window has.  (The
#: golden also holds the parent's ``"rw"`` streams, which nothing
#: drives any more.)
STREAMS = [
    (mode, nest, "all", prune_interval)
    for mode in ("incremental", "full")
    for nest in sorted(NESTS)
    for prune_interval in (1, 4, 16)
]
KINDS = (StepKind.READ, StepKind.WRITE, StepKind.UPDATE)


def _steps(steps) -> list[str]:
    return [repr(step) for step in steps]


def drive(mode: str, nest: str, conflicts: str, prune_interval: int,
          seed: int = 3, n_steps: int = 160) -> list:
    """One seeded stream through a fresh window.  Returns a record per
    ``observe`` (verdict, ``edges_added``, cycle witness) and per
    ``mark_committed`` (size, order, shortcuts, committed set and the
    events the commit emitted)."""
    rng = random.Random(f"{seed}/{mode}/{nest}/{conflicts}/{prune_interval}")
    window = WINDOWS[mode](NESTS[nest](), prune_interval=prune_interval)
    events: list = []
    window.emit = lambda kind, /, **fields: events.append([kind, fields])
    top_level = window.k + 1  # one beyond the nest depth: vacuous
    live: dict[str, int] = {}
    cuts: dict[str, dict[int, int]] = {}
    next_txn = 0
    records: list = []
    for _ in range(n_steps):
        if len(live) < 3 and next_txn < NAMES:
            name = f"t{next_txn}"
            next_txn += 1
            live[name] = 0
            cuts[name] = {}
        name = rng.choice(sorted(live))
        index = live[name]
        live[name] += 1
        if index > 0 and rng.random() < 0.5:
            cuts[name][index - 1] = rng.randint(2, top_level)
        result = window.observe(
            name, StepId(name, index), f"x{rng.randrange(6)}",
            rng.choice(KINDS), cuts[name],
        )
        records.append([
            "observe", name, index, result.is_partial_order,
            result.edges_added, _steps(result.cycle or ()),
        ])
        roll = rng.random()
        if not result.is_partial_order or roll < 0.05:
            # Abort: the attempt restarts from scratch under its name.
            window.drop(name)
            live[name] = 0
            cuts[name] = {}
            records.append(["drop", name, window.size])
        elif live[name] > 1 and roll < 0.12:
            keep = rng.randrange(1, live[name])
            window.truncate(name, keep)
            live[name] = keep
            cuts[name] = {
                g: lv for g, lv in cuts[name].items() if g < keep - 1
            }
            records.append(["truncate", name, keep, window.size])
        elif live[name] == 5:
            del live[name]
            del cuts[name]
            events.clear()
            window.mark_committed(name)
            records.append([
                "commit", name, window.size, _steps(window._order),
                [_steps(edge) for edge in sorted(window._shortcut_edges)],
                sorted(window._committed), events[:],
            ])
    return records


def _load_golden() -> dict:
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


#: ``"<mode>:<nest>:<conflicts>:<prune_interval>"`` -> the stream's records.
GOLDEN = _load_golden() if __name__ != "__main__" else {}


def _key(stream) -> str:
    return ":".join(str(part) for part in stream)


@pytest.mark.parametrize("stream", STREAMS, ids=_key)
def test_window_matches_the_parent(stream):
    golden = GOLDEN[_key(stream)]
    records = json.loads(json.dumps(drive(*stream)))
    assert len(records) == len(golden)
    for position, (old, new) in enumerate(zip(golden, records)):
        assert new == old, f"record {position}"


def test_streams_exercise_both_kinds_of_prune():
    """The goldens are only as good as their coverage: prunes that leave
    committed transactions behind and prunes that leave none, aborts,
    partial rollbacks and cycles."""
    records = [
        record for stream in STREAMS for record in GOLDEN[_key(stream)]
    ]
    prunes = [
        record for record in records
        if record[0] == "commit" and record[-1]
    ]
    survivors = [record for record in prunes if record[5]]
    assert survivors and len(survivors) < len(prunes)
    assert any(record[0] == "drop" for record in records)
    assert any(record[0] == "truncate" for record in records)
    assert any(record[0] == "observe" and not record[3] for record in records)


def test_prune_with_no_committed_survivor_skips_the_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("committed-only closure computed")

    monkeypatch.setattr(
        "repro.engine.closure_window.coherent_closure", refuse
    )
    window = ClosureWindow(NESTS["flat"](), prune_interval=2)
    events: list = []
    window.emit = lambda kind, /, **fields: events.append((kind, fields))
    for name, entity in (("t0", "x"), ("t1", "x")):
        for index in range(2):
            window.observe(
                name, StepId(name, index), entity, StepKind.UPDATE, {}
            )
        window.mark_committed(name)
    assert window.size == 0
    assert window._committed == set() and window._shortcut_edges == set()
    assert events[-1] == (
        "closure.prune", {"pruned": ["t0", "t1"], "shortcuts": 0, "size": 0}
    )


def test_service_prunes_compute_closures_only_for_survivors(monkeypatch):
    """One closed-loop lane of 32 at contention 0.15: most prunes find the
    window drained of committed work and compute no closure at all."""
    from repro.api import Submission
    from repro.engine import closure_window
    from repro.service import (
        AdmissionConfig,
        ServiceConfig,
        TransactionService,
    )
    from repro.workloads.traffic import TrafficConfig, traffic_specs

    closures = []
    real_closure = closure_window.coherent_closure

    def counted(*args, **kwargs):
        closures.append(1)
        return real_closure(*args, **kwargs)

    monkeypatch.setattr(closure_window, "coherent_closure", counted)
    service = TransactionService(ServiceConfig(
        scheduler="mla-detect", admission=AdmissionConfig(window=32),
    ))
    window = service.engine.scheduler.window
    prunes = {"effective": 0, "survivor": 0}
    real_prune = window._prune

    def observed_prune():
        before = {n for n in window._committed if window._steps.get(n)}
        real_prune()
        after = {n for n in window._committed if window._steps.get(n)}
        if after != before:
            prunes["effective"] += 1
            prunes["survivor"] += bool(after)

    window._prune = observed_prune
    specs = traffic_specs(TrafficConfig(
        transactions=1000, families=32, entities_per_family=8,
        contention=0.15, seed=33,
    ))

    async def lane():
        statuses = []
        for start in range(0, len(specs), 32):
            responses = await asyncio.gather(*(
                service.submit(Submission(program=spec))
                for spec in specs[start:start + 32]
            ))
            statuses += [r["envelope"]["status"] for r in responses]
        return statuses

    statuses = asyncio.run(lane())
    assert set(statuses) <= {"committed", "restarted"}
    assert len(service.engine.commit_order) == len(specs)
    assert prunes["survivor"] < prunes["effective"]
    assert len(closures) <= prunes["survivor"]


if __name__ == "__main__":
    golden = {_key(stream): drive(*stream) for stream in STREAMS}
    with open(GOLDEN_PATH, "wb") as raw:
        # mtime=0: the same records compress to the same bytes.
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as packed:
            packed.write(json.dumps(golden, sort_keys=True).encode())
    print(f"wrote {len(golden)} streams to {GOLDEN_PATH}")
