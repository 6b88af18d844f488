"""Shared helpers for the audit-plane tests.

``run_specs`` drives the real engine over declarative programs with an
optional history sink attached — the seam the online monitor uses — and
returns the result alongside the nest; ``captured`` also exports the
committed history from the engine, the way the CLI and the service
write it, so tests can cross-check it against the engine's own view.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ProgramSpec, make_scheduler
from repro.core.nests import KNest
from repro.engine import Engine
from repro.model.execution import canonical_digest

SCHEDULERS = ("serial", "2pl", "timestamp", "mla-detect", "mla-prevent",
              "mla-nested-lock")


def build_engine(specs, initial, scheduler="mla-detect", seed=0,
                 history=None):
    nest = KNest.from_paths({s.name: s.path for s in specs})
    engine = Engine(
        [s.compile() for s in specs],
        dict(initial),
        make_scheduler(scheduler, nest),
        seed=seed,
        history=history,
    )
    return engine, nest


def run_specs(specs, initial, scheduler="mla-detect", seed=0, history=None):
    engine, nest = build_engine(specs, initial, scheduler, seed, history)
    return engine.run(), nest


def export_args(specs, initial, meta=None) -> dict:
    """The export arguments that place every spec at its nest path."""
    return {
        "path_of": {s.name: s.path for s in specs}.__getitem__,
        "initial": dict(initial),
        "depth": len(specs[0].path),
        "meta": meta,
    }


def captured(specs, initial, scheduler="mla-detect", seed=0, history=None,
             meta=None):
    """Run the specs and export the committed history from the engine:
    ``(result, History)``."""
    from repro.audit import export_history

    engine, _ = build_engine(specs, initial, scheduler, seed, history)
    result = engine.run()
    return result, export_history(engine, **export_args(specs, initial, meta))


def export_file(path, specs, initial, scheduler="mla-detect", seed=0):
    """Run the specs and write their history to ``path`` as ``repro run
    --history`` does; returns ``(result, footer digest, in-memory
    export)``."""
    from repro.audit import HistoryExport, export_history

    engine, _ = build_engine(specs, initial, scheduler, seed)
    args = export_args(specs, initial)
    writer = HistoryExport(path, engine, **args)
    result = engine.run()
    return result, writer.close(), export_history(engine, **args)


#: Single-object keys a stream spreads over its commit lines and footer;
#: every other key (known or not) rides on the header.
_BODY_KEYS = {"paths", "commit_order", "cut_levels", "results", "steps",
              "sha256"}


def stream_lines(data: dict, **footer) -> list[dict]:
    """The JSONL lines of the single-object history dict ``data``: a
    header, one commit line per ``commit_order`` name holding its steps,
    and a footer whose counts and digest match what the lines hold
    (``footer`` overrides any of them).  A hostile dict stays hostile:
    unknown keys ride on the header, malformed values are copied as
    they are, and a recorded ``sha256`` is kept."""
    header = {"kind": "header", "meta": {}, "initial": {}, "depth": None}
    header.update((k, v) for k, v in data.items() if k not in _BODY_KEYS)
    order = data["commit_order"]
    paths = data.get("paths") or {}
    cuts = data.get("cut_levels", {})
    results = data.get("results", {})
    placed = [s for s in data["steps"] if s.get("transaction") in order]
    commits = []
    for position, name in enumerate(order):
        known = isinstance(name, str)
        commits.append({
            "kind": "commit", "txn": name, "attempt": 0, "tick": position,
            "position": position,
            "path": paths.get(name) if known else None,
            "cut_levels": cuts.get(name, {}) if known else {},
            "result": results.get(name) if known else None,
            "steps": [
                {k: v for k, v in s.items() if k != "transaction"}
                for s in placed if s["transaction"] == name
            ],
        })
    digest = data.get("sha256") or canonical_digest(
        (s["transaction"], s["index"], s["entity"], s["kind"], s["before"],
         s["after"])
        for s in placed
    )
    tail = {"kind": "footer", "commits": len(commits),
            "steps": len(placed), "sha256": digest}
    tail.update(footer)
    return [header, *commits, tail]


def write_stream(path, data: dict, **footer) -> None:
    """Write :func:`stream_lines` as a JSONL history file."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in stream_lines(data, **footer):
            handle.write(json.dumps(line, sort_keys=True) + "\n")


@pytest.fixture()
def mixed_specs():
    """The paper's shape: two sibling updaters with level-2 breakpoints
    plus a singleton auditor — admits correct non-serializable runs."""
    return (
        ProgramSpec(
            "t1", (("add", "x", -5), ("bp", 2), ("add", "y", 5)), ("fam",)
        ),
        ProgramSpec(
            "t2", (("add", "x", -3), ("bp", 2), ("add", "y", 3)), ("fam",)
        ),
        ProgramSpec("audit", (("read", "x"), ("read", "y")), ("aud",)),
    )


@pytest.fixture()
def mixed_initial():
    return {"x": 100, "y": 100}
