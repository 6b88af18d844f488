"""One way to report, checked by reading the source.

Events leave a producer through its owner's one ``emit`` (``None`` when
nobody listens) and counts reach a registry through one source per
owner, set on read (DESIGN.md §4e, §4f).  The patterns below are the
spellings of the designs that replaced: a pushed registry child behind
an ``_mx`` table, a hand-guarded ``tr = ...tracer; if tr.enabled``, the
null registry, the per-scrape registry copy, the service's trace ring.
Any hit is a second way growing back.  The same goes for the closure
window's batch Theorem-2 closure: it has exactly one call site, and the
window's closure query is public.  And for graph libraries: no module
imports networkx (it is the tests' oracle).  And
for cycle finding: one finder, and set-valued waits enter it sorted in
one place (``WaitGraph.add_waits``).  And for the tick loop: it draws
from a list kept in name order instead of sorting every tick, and
deadlock detection walks the contended locks, not every lock.
"""

from __future__ import annotations

import ast
import os
import re

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "repro"
)


def grep(pattern: str, *, outside: tuple[str, ...] = ()) -> list[str]:
    """``path:line: text`` for every match under ``src/repro``, skipping
    the given sub-paths."""
    wanted = re.compile(pattern)
    hits = []
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            path = os.path.relpath(os.path.join(directory, name), SRC)
            if not name.endswith(".py") or path.startswith(outside):
                continue
            with open(os.path.join(SRC, path), encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    if wanted.search(line):
                        hits.append(f"{path}:{number}: {line.strip()}")
    return hits


def test_no_pushed_registry_children():
    assert grep(r"_mx|_fam_") == []
    assert grep(r"\.(inc|dec)\(", outside=("obs/registry.py",)) == []


def test_no_null_registry_no_registry_copy_no_trace_ring():
    assert grep(
        r"NULL_REGISTRY|NullRegistry|registry\.enabled"
        r"|live_registry_snapshot|registry_snapshot|trace_capacity"
    ) == []


def test_one_line_outside_obs_asks_whether_a_tracer_listens():
    hits = grep(r"(tracer|tr)\.enabled", outside=("obs",))
    assert len(hits) == 1, hits
    # ... the one that binds ``Network.emit``.
    assert hits[0].startswith(os.path.join("distributed", "network.py"))


def test_window_computes_batch_closures_only_in_prune():
    """A prune's committed-only closure, behind the guard that a
    committed transaction survives it.  (The batch recompute on every
    call is the tests' oracle, ``tests/engine/oracle.py``.)"""
    path = os.path.join(SRC, "engine", "closure_window.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    sites = []

    def visit(node, function, guarded):
        if isinstance(node, ast.FunctionDef):
            function, guarded = node.name, False
        elif isinstance(node, ast.If):
            guarded = True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "coherent_closure"
        ):
            sites.append((function, guarded))
        for child in ast.iter_child_nodes(node):
            visit(child, function, guarded)

    visit(tree, None, False)
    assert sites == [("_prune", True)]


def test_the_closure_window_has_one_mode():
    import inspect

    from repro.distributed.controller import DistributedPreventControl
    from repro.engine import (
        ClosureWindow,
        MLADetectScheduler,
        MLAPreventScheduler,
    )

    for owner in (
        ClosureWindow, MLADetectScheduler, MLAPreventScheduler,
        DistributedPreventControl,
    ):
        assert "mode" not in inspect.signature(owner).parameters, owner


def test_no_module_reaches_into_the_window_for_its_closure():
    window = (os.path.join("engine", "closure_window.py"),)
    assert grep(r"window\._closure\b", outside=window) == []


def test_no_module_imports_networkx():
    assert grep(r"^\s*(import|from) networkx\b") == []


def test_schedulers_report_through_the_engine():
    from repro.engine.schedulers.base import Scheduler

    assert not hasattr(Scheduler, "tracer")
    assert [
        hit for hit in grep(r"repro\.obs\.tracer|\.tracer\b")
        if hit.startswith(os.path.join("engine", "schedulers"))
    ] == []


def test_one_cycle_finder():
    assert grep(r"is_acyclic|_find_txn_cycle|_edge_dfs") == []
    hits = grep(r"def find_cycle\b")
    assert len(hits) == 1, hits
    assert hits[0].startswith(os.path.join("engine", "cycles.py"))


def test_blocker_sets_enter_the_wait_graph_through_add_waits():
    """A hand-written ``for blocker in ...: graph.add_edge(waiter, ...)``
    loop is how the two hash-seed-dependent victim choices got in."""
    cycles = (os.path.join("engine", "cycles.py"),)
    pattern = r"add_edge\((waiter\b|[^,]+, (blocker|dep_name)\b)"
    assert grep(pattern, outside=cycles) == []


def _function_source(relpath: str, qualname: str) -> str:
    """The source text of ``Class.method`` in ``src/repro/<relpath>``."""
    path = os.path.join(SRC, relpath)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    class_name, method = qualname.split(".")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return ast.get_source_segment(source, item)
    raise AssertionError(f"{qualname} not found in {relpath}")


def test_tick_loop_pays_for_its_decision_not_for_the_window():
    advance = _function_source(
        os.path.join("engine", "runtime.py"), "Engine.advance"
    )
    assert "sorted(" not in advance
    edges = _function_source(
        os.path.join("engine", "locks.py"), "LockManager.waits_for_edges"
    )
    assert "self._locks.values()" not in edges
