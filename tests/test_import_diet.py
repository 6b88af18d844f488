"""Each command imports only the layers it runs; the serve path imports
neither ``networkx`` nor ``numpy``, and nothing needs ``networkx`` at
all.

Cold start is part of every restart and of every ``repro audit``
request, and an import that lands inside a server's first batch is paid
by its clients; so what an audit, a served, logged and recovered batch
leave in ``sys.modules`` is pinned here, one fresh interpreter per case
(in-process, other tests have already imported everything).  Every
package re-exports lazily, so every name of every package's ``__all__``
is resolved here from a cold start too.  ``networkx`` is a test-only
oracle: with it made unimportable, the CLI, Theorem 2's witness, Lemma
1's extensions and the graph exports must all still work.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
FIXTURES = os.path.join(os.path.dirname(__file__), "audit", "fixtures")

SERVE_AND_RECOVER = """
    import asyncio, sys, tempfile

    import repro.cli
    from repro.api import Submission
    from repro.durability import recover
    from repro.service import ServiceConfig, TransactionService
    from repro.workloads.traffic import TrafficConfig, traffic_specs

    scheduler = {scheduler!r}
    specs = traffic_specs(TrafficConfig(transactions=64, contention=0.3, seed=5))

    async def serve(wal_dir):
        service = TransactionService(
            ServiceConfig(scheduler=scheduler, wal_dir=wal_dir)
        )
        for start in range(0, len(specs), 16):
            replies = await asyncio.gather(*(
                service.submit(Submission(program=spec))
                for spec in specs[start:start + 16]
            ))
            assert all(reply["ok"] for reply in replies)
        await service.drain()
        service.wal.close()
        return service

    with tempfile.TemporaryDirectory() as wal_dir:
        service = asyncio.run(serve(wal_dir))
        report = recover(wal_dir)
        report.wal.close()
    assert len(report.engine.commit_order) == 64
    if scheduler == "mla-detect":
        # The run must have reached the code that used to need networkx:
        # a window that holds fewer steps than were committed was pruned.
        metrics = service.engine.metrics
        committed_steps = metrics.steps_performed - metrics.steps_undone
        assert service.engine.scheduler.window.size < committed_steps
    for module in {absent!r}:
        assert module not in sys.modules, module + " was imported"
"""


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _loaded(modules: set[str], layer: str) -> list[str]:
    return sorted(
        m for m in modules if m == layer or m.startswith(layer + ".")
    )


#: What ``repro audit`` must not load: the engine it never runs, the
#: layers above it, asyncio, and the offline checkers its axes no longer
#: go through (serializability is one component pass over the audit's
#: own dependency edges).
AUDIT_LEAVES_OUT = (
    "repro.analysis",
    "repro.core.serializability",
    "repro.api",
    "repro.engine.runtime",
    "repro.engine.schedulers",
    "repro.service",
    "repro.durability",
    "repro.obs",
    "repro.workloads",
    "repro.distributed",
    "asyncio",
)


def test_audit_command_loads_only_the_audit_layers():
    # ``python -m repro.cli audit FILE --json``, then ``sys.modules``.
    done = _python(
        """
        import json, runpy, sys

        try:
            runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
        finally:
            print(json.dumps(sorted(sys.modules)), file=sys.stderr)
        """,
        "audit", os.path.join(FIXTURES, "clean-serial.json"), "--json",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True
    imported = set(json.loads(done.stderr.splitlines()[-1]))
    assert "repro.audit.classify" in imported
    for layer in AUDIT_LEAVES_OUT:
        assert not _loaded(imported, layer), _loaded(imported, layer)


SERVE_BATCHES = """
    import asyncio, os, sys, tempfile

    # What ``repro serve`` imports before it reports ready.
    import repro.cli
    from repro.errors import RecoveryError, SpecificationError
    from repro.service import AdmissionConfig, ServiceConfig, serve
    from repro.service import TransactionService
    from repro.api import ProgramSpec, Submission

    scheduler = {scheduler!r}
    # Two families over four hot entities: contended enough to abort.
    specs = [
        ProgramSpec(
            f"t{{i}}",
            (
                ("read", f"e{{i % 4}}"),
                ("bp", 2),
                ("add", f"e{{(i + 1) % 4}}", 1),
                ("add", f"e{{(i + 2) % 4}}", 1),
            ),
            (f"f{{i % 2}}",),
        )
        for i in range(64)
    ]

    async def batches(root):
        service = TransactionService(ServiceConfig(
            scheduler=scheduler,
            wal_dir=root,
            history_path=os.path.join(root, "history.jsonl"),
        ))
        ready = set(sys.modules)
        for start in range(0, len(specs), 16):
            replies = await asyncio.gather(*(
                service.submit(Submission(program=spec))
                for spec in specs[start:start + 16]
            ))
            assert all(reply["ok"] for reply in replies), replies
        await service.drain()
        late = sorted(m for m in set(sys.modules) - ready if m.startswith("repro"))
        assert not late, "imported inside a batch: " + repr(late)
        service.wal.close()
        service.history.close()
        return service

    with tempfile.TemporaryDirectory() as root:
        service = asyncio.run(batches(root))
    assert len(service.engine.commit_order) == len(specs)
    assert service.engine.metrics.aborts > 0, "no contention"
    for layer in {absent!r}:
        loaded = sorted(m for m in sys.modules if m == layer or m.startswith(layer + "."))
        assert not loaded, loaded
"""

SERVE_LEAVES_OUT = (
    "repro.workloads",
    "repro.audit.classify",
    "repro.analysis",
    "repro.distributed",
)


@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_serve_imports_nothing_inside_a_batch(scheduler):
    done = _python(
        SERVE_BATCHES.format(scheduler=scheduler, absent=SERVE_LEAVES_OUT)
    )
    assert done.returncode == 0, done.stderr


def _lazy_packages() -> list[str]:
    """Every package under ``src/repro`` whose ``__init__`` defines a
    module ``__getattr__``."""
    root = pathlib.Path(SRC, "repro")
    return sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py")
        if "__getattr__" in init.read_text()
    )


@pytest.mark.parametrize("package", _lazy_packages())
def test_every_lazy_reexport_resolves(package):
    done = _python(
        """
        import importlib, sys

        package = importlib.import_module(sys.argv[1])
        for name in package.__all__:
            getattr(package, name)
        star = {}
        exec(f"from {sys.argv[1]} import *", star)
        missing = set(package.__all__) - set(star)
        assert not missing, missing
        try:
            getattr(package, "no_such_name")
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
        """,
        package,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "scheduler, absent",
    [("2pl", ("networkx", "numpy")), ("mla-detect", ("networkx", "numpy"))],
)
def test_serve_and_recover_leave_the_graph_libraries_out(scheduler, absent):
    done = _python(SERVE_AND_RECOVER.format(scheduler=scheduler, absent=absent))
    assert done.returncode == 0, done.stderr


def test_audit_command_and_analysis_still_work():
    done = _python(
        """
        import sys

        from repro.cli import main

        assert main(["audit", sys.argv[1]]) == 0
        assert main([
            "run", "--workload", "banking", "--scheduler", "mla-detect",
            "--transfers", "4", "--seed", "1",
        ]) == 0

        from repro.analysis import dependency_dot
        from repro.api import run_workload
        from repro.core import coherent_closure
        from repro.workloads import BankingConfig, BankingWorkload

        workload = BankingWorkload(BankingConfig(transfers=3, seed=2))
        result = run_workload(workload, "2pl", seed=2)
        assert "digraph" in dependency_dot(result.execution)
        closure = coherent_closure(
            result.spec(workload.nest), result.execution.dependency_edges()
        )
        assert len(closure.index) == len(result.execution.steps)
        """,
        os.path.join(FIXTURES, "clean-serial.json"),
    )
    assert done.returncode == 0, done.stderr
    assert "multilevel" in done.stdout and "mla-correctable" in done.stdout


def test_everything_runs_with_networkx_blocked():
    done = _python(
        """
        import sys

        sys.modules["networkx"] = None  # any import of it now fails

        from repro.cli import main

        assert main(["audit", sys.argv[1]]) == 0
        assert main([
            "run", "--workload", "banking", "--scheduler", "mla-detect",
            "--transfers", "4", "--seed", "1",
        ]) == 0

        from repro.analysis import dependency_dot
        from repro.api import run_workload
        from repro.core import (
            enumerate_coherent_extensions,
            equivalent_atomic_order,
            is_coherent_total_order,
        )
        from repro.workloads import BankingConfig, BankingWorkload
        from repro.workloads.paper import (
            abstract_example,
            abstract_example_extensions,
        )

        paper = abstract_example()
        order = equivalent_atomic_order(paper["spec"], paper["R1"])
        assert is_coherent_total_order(paper["spec"], order)
        assert set(
            enumerate_coherent_extensions(paper["spec"], paper["R1"])
        ) == set(abstract_example_extensions())

        workload = BankingWorkload(BankingConfig(transfers=3, seed=2))
        result = run_workload(workload, "2pl", seed=2)
        assert "digraph" in dependency_dot(result.execution)
        """,
        os.path.join(FIXTURES, "clean-serial.json"),
    )
    assert done.returncode == 0, done.stderr
    assert "mla-correctable" in done.stdout
