"""E17 — the audit plane: exhaustive interleaving proofs, monitor
overhead, and black-box classification.

Three claims are measured:

* **The schedulers are proven, not sampled.**  The bounded exhaustive
  explorer enumerates *every* schedule of the small canned
  configurations (``repro.audit.SMALL_CONFIGS``) under each of the five
  concurrency controls — every terminal history must be correctable, no
  state may be stuck, and the frontier must be exhausted
  (``complete``).  The unguarded
  ``"none"`` scheduler is the negative control: the same sweep must
  find non-correctable histories with witness cycles, or the explorer
  itself is dead.
* **The online monitor is affordable.**  An E1-scale banking run with
  the monitor attached must pay <5% of the bare run's wall time in
  closure maintenance (the seconds inside ``monitor.on_commit``, timed
  by a proxy swapped on from outside — the honest numerator), and the
  monitored history must be bit-identical to the bare one.  The disabled seam costs one attribute load, one lookup
  and a branch per commit (``if "txn.commit" in self._routes:``),
  measured analytically.
* **Capture → import → classify round-trips.**  Each scheduler's run is
  streamed to JSONL, re-imported black-box, and classified; the
  multilevel verdict must pass for every guarded scheduler.

Usage::

    python benchmarks/bench_e17_exhaustive_audit.py           # full sweep
    python benchmarks/bench_e17_exhaustive_audit.py --max-nodes 3000

The full run appends its summary to ``BENCH.json`` under
``e17_exhaustive`` and writes ``benchmarks/results/e17_exhaustive_audit.md``.
The pytest entry point (and ``collect_results.py --quick``) runs the
bounded smoke: tiny configurations are proven outright, the large pairs
are swept under a node cap with completeness warn-only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import timeit

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (_HERE, os.path.join(_HERE, os.pardir, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _harness import record_table

BENCH_JSON = os.path.join(_HERE, os.pardir, "BENCH.json")

#: The five concurrency controls the explorer must prove.
GUARDED = ("2pl", "timestamp", "mla-detect", "mla-prevent",
           "mla-nested-lock")
#: Monitor-overhead budget (percent of the bare run's wall time spent in
#: closure maintenance), asserted at E1 scale where per-commit setup
#: amortizes; the tiny-run numbers are recorded but not gated.
AUDIT_OVERHEAD_BUDGET_PCT = 5.0
#: Node cap for the smoke sweep of the large canned configurations
#: (completeness under the cap is warn-only there; the full sweep and
#: the tiny configs are asserted complete).
SMOKE_MAX_NODES = 2000
#: Distinct committed histories each tiny proof reaches, per scheduler
#: in ``GUARDED`` order: the smoke fails on a reachable history the
#: explorer loses, not only the full sweep.
TINY_HISTORIES = {
    "tiny-cross": (2, 4, 4, 2, 2),
    "tiny-nested": (2, 4, 4, 4, 4),
}


def _tiny_configs():
    from repro.api import ProgramSpec
    from repro.audit import make_config

    return (
        make_config(
            "tiny-cross",
            [
                ProgramSpec("writer", (("set", "x", 7), ("set", "y", 7)), ()),
                ProgramSpec("reader", (("read", "x"), ("read", "y")), ()),
            ],
            {"x": 0, "y": 0},
        ),
        make_config(
            "tiny-nested",
            [
                ProgramSpec(
                    "t1", (("add", "x", -5), ("bp", 2), ("add", "y", 5)),
                    ("fam",),
                ),
                ProgramSpec(
                    "t2", (("add", "x", -3), ("bp", 2), ("add", "y", 3)),
                    ("fam",),
                ),
            ],
            {"x": 100, "y": 100},
        ),
    )


def sweep(configs, schedulers, max_nodes=None, require_complete=True):
    """Explore every (config, scheduler) pair; returns report rows."""
    from repro.audit import explore

    rows = []
    for config in configs:
        for scheduler in schedulers:
            kwargs = {}
            if max_nodes is not None:
                kwargs["max_nodes"] = max_nodes
            start = time.perf_counter()
            report = explore(config, scheduler, **kwargs)
            entry = report.to_dict()
            entry["seconds"] = round(time.perf_counter() - start, 2)
            rows.append(entry)
            assert report.all_correctable, (
                f"E17: {scheduler} admitted a non-correctable execution "
                f"on {config.name}: {report.violations[:1]}"
            )
            assert not report.stuck, (
                f"E17: {scheduler} left transactions with no progress on "
                f"{config.name}: {report.violations[:1]}"
            )
            if require_complete:
                assert report.complete, (
                    f"E17: frontier not exhausted for "
                    f"{scheduler}/{config.name}"
                )
            elif not report.complete:
                print(
                    f"WARNING: E17 smoke capped {scheduler}/{config.name} "
                    f"at {report.nodes} nodes (correctability held on the "
                    f"explored portion; the full sweep proves completeness)",
                    file=sys.stderr,
                )
    return rows


def negative_control(configs):
    """The unguarded scheduler must be caught red-handed.

    Only configurations whose crossings actually violate correctability
    belong here — ``tiny-nested`` declares breakpoints that make *every*
    interleaving correctable, so it is a proof subject, not a control.
    """
    from repro.audit import explore

    rows = []
    for config in configs:
        report = explore(config, "none")
        entry = report.to_dict()
        rows.append(entry)
        assert report.complete, (
            f"E17: control sweep incomplete on {config.name}"
        )
        assert not report.all_correctable, (
            f"E17: the 'none' scheduler admitted only correctable "
            f"executions on {config.name} — the explorer found nothing"
        )
        assert report.violations, "E17: violation without a witness"
    return rows


def _timed(obj, method: str) -> list[float]:
    """Swap a wall-clock proxy onto ``obj.<method>``; the returned
    one-element list accumulates the seconds spent inside it."""
    inner = getattr(obj, method)
    spent = [0.0]

    def proxy(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start

    setattr(obj, method, proxy)
    return spent


def monitor_overhead(transfers: int = 150,
                     budget: float = AUDIT_OVERHEAD_BUDGET_PCT) -> dict:
    """E1-scale monitor overhead: seconds inside ``monitor.on_commit``
    (timed from outside, by a proxy) vs bare wall.

    The budget only holds once per-commit closure maintenance amortizes
    against real engine contention — the smoke's reduced scale passes a
    looser bound and the full run gates the honest one.  The budget is
    recorded, not asserted, here: :func:`check_overhead` fails on it,
    which the full run calls only after its table and ``BENCH.json``
    entry are written.
    """
    from repro.api import make_scheduler
    from repro.audit import OnlineMonitor
    from repro.workloads import BankingConfig, BankingWorkload

    workload = BankingWorkload(BankingConfig(
        families=4, transfers=transfers, bank_audits=2, creditor_audits=2,
        seed=7,
    ))
    summary: dict = {"transfers": transfers, "schedulers": {}}
    for name in ("mla-detect",):
        bare_s = []
        for _ in range(2):
            start = time.perf_counter()
            bare = workload.engine(
                make_scheduler(name, workload.nest), seed=7
            ).run()
            bare_s.append(time.perf_counter() - start)
        monitor = OnlineMonitor(workload.nest)
        closure_s = _timed(monitor, "on_commit")
        start = time.perf_counter()
        monitored = workload.engine(
            make_scheduler(name, workload.nest), seed=7, history=monitor
        ).run()
        monitored_wall = time.perf_counter() - start
        monitor.close()
        assert monitored.history_digest() == bare.history_digest(), (
            f"E17: attaching the monitor changed the run ({name})"
        )
        assert monitor.correctable
        pct = 100.0 * closure_s[0] / min(bare_s)
        summary["schedulers"][name] = {
            "bare_ms": round(min(bare_s) * 1000, 2),
            "monitored_ms": round(monitored_wall * 1000, 2),
            "closure_ms": round(closure_s[0] * 1000, 2),
            "closure_pct_of_bare": round(pct, 2),
            "commits": monitor.checked,
            "within_budget": pct < budget,
        }
    # Disabled seam: what a commit of an unobserved engine executes —
    # its kind tested against the empty route table — net of an empty
    # branch.
    n = 200_000
    unobserved = workload.engine(make_scheduler("serial", workload.nest))
    guard = timeit.timeit(
        'if "txn.commit" in engine._routes: pass',
        globals={"engine": unobserved}, number=n,
    )
    empty = timeit.timeit("if (): pass", number=n)
    guard_seconds = max(guard - empty, 0.0) / n
    commits = next(iter(summary["schedulers"].values()))["commits"]
    bare_ms = next(iter(summary["schedulers"].values()))["bare_ms"]
    summary["disabled_guard_ns"] = round(guard_seconds * 1e9, 2)
    summary["disabled_overhead_pct"] = round(
        100.0 * guard_seconds * commits / (bare_ms / 1000.0), 6
    )
    summary["budget_pct"] = budget
    return summary


def check_overhead(overhead: dict) -> None:
    """Fail when a scheduler's monitor closure cost broke the budget
    :func:`monitor_overhead` measured it against."""
    for name, entry in overhead["schedulers"].items():
        assert entry["within_budget"], (
            f"E17: monitor closure cost {entry['closure_pct_of_bare']}% of "
            f"the bare run ({name}) exceeds the {overhead['budget_pct']}% "
            f"budget"
        )


def classification_round_trip() -> dict:
    """Export one small run per scheduler to JSONL, re-import black-box,
    classify; guarded schedulers must pass the multilevel criterion."""
    from repro.api import make_scheduler
    from repro.audit import (
        HistoryExport,
        audit_history,
        load_history,
        paths_from_nest,
    )
    from repro.workloads import BankingConfig, BankingWorkload

    workload = BankingWorkload(BankingConfig(
        families=2, transfers=6, bank_audits=1, creditor_audits=1, seed=7
    ))
    names = [p.name for p in workload.programs]
    depth, paths = paths_from_nest(workload.nest, names)
    out: dict = {}
    for name in ("serial",) + GUARDED:
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as handle:
            path = handle.name
        try:
            bare = workload.engine(
                make_scheduler(name, workload.nest), seed=7
            ).run()
            engine = workload.engine(
                make_scheduler(name, workload.nest), seed=7
            )
            writer = HistoryExport(
                path, engine, path_of=paths.__getitem__,
                initial=dict(workload.accounts), depth=depth,
            )
            captured = engine.run()
            writer.close()
            assert captured.history_digest() == bare.history_digest(), (
                f"E17: export changed the run ({name})"
            )
            history = load_history(path)
            assert history.digest() == captured.history_digest(), (
                f"E17: JSONL import disagreed with the engine ({name})"
            )
            report = audit_history(history)
            assert report.passes("multilevel"), (
                f"E17: {name} capture failed the multilevel audit: "
                f"{report.witnesses.get('multilevel')}"
            )
            out[name] = {
                "commits": len(history.commit_order),
                "steps": len(history.steps),
                "ok": report.ok,
            }
        finally:
            os.unlink(path)
    return out


def measure(max_nodes=None, require_complete=True) -> dict:
    from repro.audit import SMALL_CONFIGS

    tiny = _tiny_configs()
    summary: dict = {}
    start = time.perf_counter()
    summary["proofs"] = sweep(
        tiny, GUARDED, require_complete=True
    ) + sweep(
        SMALL_CONFIGS, GUARDED, max_nodes=max_nodes,
        require_complete=require_complete,
    )
    summary["controls"] = negative_control(tiny[:1])
    summary["sweep_seconds"] = round(time.perf_counter() - start, 1)
    summary["overhead"] = monitor_overhead()
    summary["classification"] = classification_round_trip()
    return summary


def smoke() -> dict:
    """The bounded run ``collect_results.py --quick`` and CI use: tiny
    configurations proven outright, the large pairs capped (warn-only),
    overhead measured at a reduced scale."""
    from repro.audit import SMALL_CONFIGS

    tiny = _tiny_configs()
    summary: dict = {}
    start = time.perf_counter()
    summary["proofs"] = sweep(tiny, GUARDED, require_complete=True)
    summary["capped"] = sweep(
        SMALL_CONFIGS, GUARDED, max_nodes=SMOKE_MAX_NODES,
        require_complete=False,
    )
    summary["controls"] = negative_control(tiny[:1])
    summary["sweep_seconds"] = round(time.perf_counter() - start, 1)
    summary["overhead"] = monitor_overhead(
        transfers=60, budget=2 * AUDIT_OVERHEAD_BUDGET_PCT
    )
    check_overhead(summary["overhead"])
    summary["classification"] = classification_round_trip()
    return summary


def test_e17_audit_smoke():
    summary = smoke()
    assert all(r["complete"] for r in summary["proofs"])
    assert {
        (r["config"], r["scheduler"]): r["distinct_histories"]
        for r in summary["proofs"]
    } == {
        (config, scheduler): count
        for config, counts in TINY_HISTORIES.items()
        for scheduler, count in zip(GUARDED, counts)
    }
    assert all(not r["all_correctable"] for r in summary["controls"])


def append_bench(summary: dict, path: str = BENCH_JSON) -> None:
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["e17_exhaustive"] = summary
    data.setdefault("workloads", {})["e17"] = (
        "exhaustive interleaving proofs (every schedule of the small "
        "configurations under each scheduler must be correctable; the "
        "unguarded control must be caught) plus online-monitor overhead "
        "and black-box classification round-trips"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-nodes", type=int, default=0,
        help="cap the explorer per pair (0 = exhaust the frontier)",
    )
    args = parser.parse_args()
    summary = measure(
        max_nodes=args.max_nodes or None,
        require_complete=not args.max_nodes,
    )
    rows = [
        [
            r["config"], r["scheduler"], r["nodes"], r["terminals"],
            r["distinct_histories"],
            "yes" if r["complete"] else "CAPPED",
            "yes" if r["all_correctable"] else "NO",
            r.get("seconds", ""),
        ]
        for r in summary["proofs"]
    ] + [
        [
            r["config"], r["scheduler"], r["nodes"], r["terminals"],
            r["distinct_histories"],
            "yes" if r["complete"] else "CAPPED",
            "yes (control)" if not r["all_correctable"] else "NO CONTROL",
            "",
        ]
        for r in summary["controls"]
    ]
    overhead = summary["overhead"]
    notes_overhead = ", ".join(
        f"{name}: closure {entry['closure_pct_of_bare']}% of bare "
        f"({entry['commits']} commits)"
        for name, entry in overhead["schedulers"].items()
    )
    record_table(
        "e17_exhaustive_audit",
        "E17 — exhaustive interleaving audit (explorer proofs + monitor "
        "overhead)",
        ["config", "scheduler", "nodes", "terminals", "histories",
         "complete", "correctable", "s"],
        rows,
        notes=(
            "Every (config, scheduler) pair above with complete=yes is a "
            "proof: the frontier was exhausted up to the declared restart "
            "bound, no state was stuck (every choice refused, changing "
            "nothing), and every distinct committed history passed "
            "Theorem 2. "
            f"Monitor overhead at E1 scale: {notes_overhead} "
            f"(budget {overhead['budget_pct']}%; disabled seam "
            f"{overhead['disabled_guard_ns']} ns/commit)."
        ),
    )
    append_bench(summary)
    # After the table and the BENCH.json entry: a tripped budget still
    # leaves the sweep's results behind.
    check_overhead(overhead)


if __name__ == "__main__":
    main()
