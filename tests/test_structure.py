"""One way to report, checked by reading the source.

Events leave a producer through its owner's one ``emit``, only when a
sink reads their kind, and counts reach a registry through one source
per owner, set on read (DESIGN.md §4e, §4f).  The patterns below are
the spellings of the designs that replaced: a pushed registry child
behind an ``_mx`` table, a hand-guarded ``tr = ...tracer; if
tr.enabled``, a decision site asking whether *any* sink listens
(``if self._sinks:``, ``if emit:``), the null registry, the per-scrape
registry copy, the service's trace ring.
Any hit is a second way growing back.  The same goes for the closure
window's batch Theorem-2 closure: it has exactly one call site, and the
window's closure query is public.  And for graph libraries: no module
imports networkx (it is the tests' oracle).  And
for cycle finding: one finder, and set-valued waits enter it sorted in
one place (``WaitGraph.add_waits``).  And for the tick loop: it draws
from a list kept in name order instead of sorting every tick, and
deadlock detection searches from the waiter, building no graph.  And for
configuration: every concurrency control runs the paper's one conflict
model with exclusive locks, so no constructor takes a conflict model,
a lock mode or a prune interval.  And for rollback: both units of
recovery share one cascade fixpoint, reached from one engine method.
And for timing: the phase profiler is swapped in from outside, so the
code it times never names it, and the engine stack reads no clock.
And for reading state: no module duck-types another's private
attributes by name, and recovery takes no override of what the log
holds.  Nor does any module write another object's private state.  And
for the k-nest: one class, whatever the nest is built from.  And for
the history digest: one function owns the canonical rule, so one
module imports ``hashlib``.  And for progress: a state where every
transaction is refused raises, and no stall timer, limit or event
stands in for that check.
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
    hits = grep(r"(tracer|tr)\.(enabled|reads)", outside=("obs",))
    assert len(hits) == 1, hits
    # ... the one that sets ``Network.reads`` and binds ``Network.emit``.
    assert hits[0].startswith(os.path.join("distributed", "network.py"))


def test_engine_decision_sites_test_their_own_kind():
    """Sinks declare what they read and each site asks about its own
    kind (``if "lock.wait" in self.reads:``); no site under
    ``engine/`` asks whether anything listens at all.  The one
    ``emit`` test left is ``cascade_closure``'s parameter, which its
    callers pass only when ``cascade.join`` is read."""
    engine = [
        hit for hit in grep(r"_sinks|\bif (self\.|scheduler\.)?emit\b")
        if hit.startswith("engine" + os.sep)
    ]
    assert engine == [
        hit for hit in engine
        if hit.startswith(os.path.join("engine", "rollback.py"))
        and "if emit is not None:" in hit
    ]
    assert len(engine) == 1, engine
    callers = grep(r'emit=.*"cascade\.join" in .* else None')
    assert len(callers) == 2, callers


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


def test_every_concurrency_control_is_built_from_its_nest_alone():
    import inspect

    from repro.distributed import controller
    from repro.engine import (
        ClosureWindow,
        MLADetectScheduler,
        MLAPreventScheduler,
        NestedLockScheduler,
        TimestampScheduler,
        TwoPhaseLockingScheduler,
    )
    from repro.engine.schedulers.base import Scheduler
    # Imported here so the subclass count below does not depend on which
    # other tests ran first: ``repro.engine`` does not export it.
    from repro.engine.schedulers.serial import SerialScheduler

    for owner in (
        ClosureWindow, MLADetectScheduler, MLAPreventScheduler,
        NestedLockScheduler, SerialScheduler, TimestampScheduler,
        TwoPhaseLockingScheduler, controller.DistributedPreventControl,
    ):
        parameters = inspect.signature(owner).parameters
        for option in ("conflicts", "use_locks", "shared_reads"):
            assert option not in parameters, (owner, option)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    controls = [
        *subclasses(Scheduler), *subclasses(controller.NoControl),
    ]
    assert len(controls) >= 8, controls
    for control in controls:
        assert "prune_interval" not in inspect.signature(control).parameters
    assert grep(r"\bLockMode\b") == []


def test_no_module_reaches_into_the_window_for_its_closure():
    window = (os.path.join("engine", "closure_window.py"),)
    assert grep(r"window\._closure\b", outside=window) == []


def test_no_module_imports_networkx():
    assert grep(r"^\s*(import|from) networkx\b") == []


def test_one_module_hashes_a_history():
    hits = grep(r"^\s*(import|from) hashlib\b")
    assert [hit.split(":")[0] for hit in hits] == [
        os.path.join("model", "execution.py")
    ]


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
    # Deadlock detection searches the one relation from the waiter: the
    # lock manager builds no graph, and no wait or commit wait rebuilds
    # one.
    with open(os.path.join(SRC, "engine", "locks.py"), encoding="utf-8") as fh:
        assert "WaitGraph" not in fh.read()
    cycles = os.path.join("engine", "cycles.py")
    for method in ("WaitsFor.wait", "WaitsFor.dependency_cycle"):
        assert "WaitGraph(" not in _function_source(cycles, method), method


def _parse(relpath: str) -> ast.Module:
    with open(os.path.join(SRC, relpath), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def test_one_rollback_rule():
    """Both units of recovery run one cascade fixpoint: only
    ``engine/rollback.py`` reports a ``cascade.join`` among the engine
    and the distributed runtime, and one ``Engine`` method calls it."""
    from repro.engine.runtime import Engine

    emitters = []
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            path = os.path.relpath(os.path.join(directory, name), SRC)
            if not name.endswith(".py") or not path.startswith(
                ("engine" + os.sep, "distributed" + os.sep)
            ):
                continue
            for node in ast.walk(_parse(path)):
                if (
                    isinstance(node, ast.Call)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "cascade.join"
                ):
                    emitters.append(path)
    assert emitters == [os.path.join("engine", "rollback.py")]

    runtime = _parse(os.path.join("engine", "runtime.py"))
    engine = next(
        node for node in runtime.body
        if isinstance(node, ast.ClassDef) and node.name == "Engine"
    )
    callers = [
        item.name
        for item in engine.body
        if isinstance(item, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "cascade_closure"
            for node in ast.walk(item)
        )
    ]
    assert callers == ["_rollback"]
    for gone in ("_abort_segment", "_recompute_dependencies", "_cascade"):
        assert not hasattr(Engine, gone), gone


def test_the_phase_profiler_works_from_outside():
    """The profiler swaps its proxies in on the instances it times: no
    module under ``engine/``, ``distributed/`` or ``durability/`` names
    it, nothing outside ``obs/`` opens a phase by hand, and there is no
    disabled profiler to thread through."""
    inside = ("engine", "distributed", "durability")
    named = [
        hit for hit in grep(r"\bprofiler\b")
        if hit.startswith(tuple(part + os.sep for part in inside))
    ]
    assert named == []
    assert grep(r"NullProfiler|NULL_PROFILER") == []
    assert grep(r"with .*\.phase\(", outside=("obs",)) == []


def test_the_engine_state_holds_no_clock():
    """No module of the deterministic engine stack — ``core/``,
    ``engine/`` and the online monitor — reads the wall clock, so its
    state is a function of its decisions and replays byte for byte;
    time is measured from outside, by the phase profiler."""
    clocked = [
        hit for hit in grep(
            r"^\s*(import time\b|from time import)|perf_counter"
        )
        if hit.startswith(("core" + os.sep, "engine" + os.sep,
                           os.path.join("audit", "monitor.py")))
    ]
    assert clocked == []


def test_no_module_reads_private_state_by_name():
    assert grep(r"getattr\([^,]+,\s*[\"']_[^_]") == []


def _private_writes(tree: ast.AST) -> list[str]:
    """``obj._x = ...`` / ``obj._x[k] = ...`` (and augmented, annotated
    and ``del`` forms) inside a function, where ``obj`` is neither
    ``self``/``cls`` nor an object the same function built with
    ``__new__``."""
    hits = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        built = {"self", "cls"}
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "__new__"
            ):
                built.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                    continue
                while isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr.startswith("_")
                    and not target.attr.startswith("__")
                    and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id in built
                    )
                ):
                    hits.append(f"{target.lineno}: {ast.unparse(target)}")
    return hits


def test_no_module_writes_another_objects_private_state():
    hits = []
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                hits.extend(
                    f"{os.path.relpath(path, SRC)}:{hit}"
                    for hit in _private_writes(tree)
                )
    assert hits == []


def test_private_write_check_sees_both_spellings():
    tree = ast.parse(
        "def f(other):\n"
        "    other._a = 1\n"
        "    other.window._b[0] = 2\n"
        "    self._c = 3\n"
        "    fresh = Thing.__new__(Thing)\n"
        "    fresh._d = 4\n"
    )
    assert sorted(_private_writes(tree)) == [
        "2: other._a", "3: other.window._b",
    ]


def test_one_nest_class():
    import inspect

    from repro.core import nests

    classes = {
        value for value in vars(nests).values()
        if inspect.isclass(value) and value.__module__ == nests.__name__
    }
    assert classes == {nests.KNest}
    assert nests.PathNest is nests.KNest


def test_recovery_rebuilds_from_the_log_alone():
    import inspect

    from repro.durability import recover

    parameters = inspect.signature(recover).parameters.values()
    keywords = [
        parameter.name for parameter in parameters
        if parameter.kind is parameter.KEYWORD_ONLY
    ]
    assert keywords == ["wal", "use_snapshot", "tracer", "registry"]


def test_no_progress_is_a_check_not_a_timer():
    import inspect

    from repro.audit import explore
    from repro.durability.fuzz import run_reference
    from repro.engine.runtime import Engine
    from repro.obs.events import EVENT_TAXONOMY

    for owner in (Engine, explore, run_reference):
        assert "stall_limit" not in inspect.signature(owner).parameters
    assert grep(r"stall_limit|_last_progress|engine\.stall") == []
    kinds = {kind for group in EVENT_TAXONOMY.values() for kind in group}
    assert "engine.stall" not in kinds
    # Nothing calls ``on_stall``: what is left is the base class's
    # raising stub, which ``benchmarks/e18/inproc.py`` swaps by name.
    assert [hit.split(":")[0] for hit in grep(r"on_stall")] == [
        os.path.join("engine", "schedulers", "base.py")
    ]
