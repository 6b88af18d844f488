"""E9: multilevel atomicity admits unbounded rollback chains.

Claim tested (Section 6's closing caveat): unlike strict serializability
with strict schedulers, multilevel atomicity allows a chain of
transactions t1, t2, ... where each t_{i+1}'s step precedes a step of
t_i — so rolling back t_{n} can cascade all the way down the chain.

Two measurements:

* the cascade-closure computation on a synthetic dirty-read chain of
  length ``n``: the victim set must be exactly the whole chain
  (demonstrating unboundedness), with its cost;
* a live engine run in which a scripted scheduler aborts the head of the
  chain once, measuring the realised cascade length.
"""

from __future__ import annotations

import time

import pytest

from _harness import record_table
from repro.engine import Engine, Scheduler
from repro.engine.rollback import cascade_closure
from repro.engine.schedulers.base import Decision
from repro.model import StepId, StepKind, StepRecord, TransactionProgram, read, write

CHAIN_LENGTHS = [4, 16, 64, 256]


def chain_log(n: int):
    """Synthetic log: t_{i} writes X_i, then t_{i+1} reads X_i dirty."""
    entries = []
    for i in range(n):
        key = (f"t{i}", 0)
        entries.append(
            (key, StepRecord(StepId(f"t{i}", 0), f"X{i}", StepKind.WRITE, 0, 1))
        )
        if i + 1 < n:
            entries.append(
                ((f"t{i + 1}", 0),
                 StepRecord(StepId(f"t{i + 1}", 0), f"X{i}", StepKind.READ, 1, 1))
            )
    return entries


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_e9_cascade_closure_benchmark(benchmark, n):
    entries = chain_log(n)
    benchmark.group = f"E9 n={n}"
    cascade = benchmark(cascade_closure, entries, {("t0", 0): 0})
    assert len(cascade) == n  # the whole chain rolls back


def test_e9_chain_table():
    rows = []
    for n in CHAIN_LENGTHS:
        entries = chain_log(n)
        start = time.perf_counter()
        cascade = cascade_closure(entries, {("t0", 0): 0})
        elapsed = time.perf_counter() - start
        assert len(cascade) == n
        rows.append([n, len(cascade), f"{elapsed * 1000:.2f}"])
    record_table(
        "e9_cascades",
        "E9: cascade length of a dirty-read chain (seed = head)",
        ["chain length", "cascade size", "closure time (ms)"],
        rows,
        notes=(
            "Aborting the head of an n-transaction dirty-read chain "
            "cascades to all n — the unbounded rollback chains the paper "
            "warns multilevel atomicity permits."
        ),
    )


def test_e9_live_engine_cascade():
    """A real engine run: writers chained by dirty reads; a one-shot
    scripted abort of the chain head cascades through the live chain."""
    n = 6

    def link(i):
        def body():
            if i > 0:
                # Poll until the predecessor's (uncommitted) write lands,
                # guaranteeing the dirty-read chain forms.
                while True:
                    value = yield read(f"X{i - 1}")
                    if value != -1:
                        break
            yield write(f"X{i}", i)

        return TransactionProgram(f"t{i}", body)

    class AbortHeadOnce(Scheduler):
        def __init__(self):
            super().__init__()
            self.fired = False

        def may_commit(self, txn):
            # Hold all commits until the whole chain has performed, then
            # shoot the head exactly once.
            if not self.fired:
                if all(t.finished for t in self.engine.txns.values()):
                    self.fired = True
                    return Decision.abort(["t0"], "scripted")
                return Decision.wait("chain forming")
            return Decision.perform()

    # Force the dirty-read chain: t0 first, then t1, ... via arrivals.
    engine = Engine(
        [link(i) for i in range(n)],
        {f"X{i}": -1 for i in range(n)},
        AbortHeadOnce(),
        seed=1,
        arrivals={f"t{i}": 3 * i for i in range(n)},
    )
    result = engine.run()
    assert result.metrics.cascade_chain_max >= n - 1
    assert result.metrics.commits == n
    result.execution.validate()
