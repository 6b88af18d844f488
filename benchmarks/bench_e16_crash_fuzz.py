"""E16 — single-site durability: crash-point fuzz, recovery cost, WAL
overhead.

The durability tentpole's acceptance run.  Three claims are measured:

* **Every seeded kill recovers.**  ``fuzz_crash_points`` truncates the
  engine WAL — its inputs and one check frame per pump slice of the
  reference run — at record boundaries and mid-record (torn writes);
  each cut must recover to a bitwise-identical engine (state + metrics)
  and *continue* to the reference history.  Any divergence fails the
  run.
* **Recovery is cheap.**  Recovery time is measured twice — full log
  replay from genesis, and snapshot + WAL-suffix replay — so the
  snapshot shortcut's payoff is visible in ``BENCH.json``.
* **The log observes, it does not participate.**  The same workload is
  run with and without a WAL attached; the committed histories must be
  bit-identical (asserted), and the wall-clock ratio is recorded.  The
  overhead number is **warn-only**: fsync cost is hardware-dependent
  and must never gate CI.

Usage::

    python benchmarks/bench_e16_crash_fuzz.py             # full sweep
    python benchmarks/bench_e16_crash_fuzz.py --cuts N    # bounded
    python benchmarks/bench_e16_crash_fuzz.py --scheduler 2pl

The full run appends its summary to ``BENCH.json`` under
``e16_durability`` and writes ``benchmarks/results/e16_crash_fuzz.md``.
The pytest entry point (and ``collect_results.py --quick``) runs the
bounded smoke instead: same shape, a dozen kill points.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (_HERE, os.path.join(_HERE, os.pardir, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _harness import record_table

BENCH_JSON = os.path.join(_HERE, os.pardir, "BENCH.json")

#: Kill points for the CI smoke (the full sweep is unbounded).
SMOKE_CUTS = 12
#: Snapshot cadence used by the measured runs (engine ticks).
SNAPSHOT_EVERY = 8
#: Warn (never fail) when the WAL-enabled run is slower than this.
WAL_OVERHEAD_WARN_RATIO = 1.5
#: Repeats for the overhead measurement; the minimum is reported.
OVERHEAD_REPEATS = 3


def run_without_wal(specs, *, scheduler: str, seed: int,
                    recovery_unit: str = "transaction"):
    """The same deterministic run ``run_reference`` performs, with no
    log attached — the overhead baseline and the bit-identity oracle."""
    from repro.api import make_scheduler
    from repro.core.nests import KNest
    from repro.engine.runtime import Engine

    depth = len(specs[0].path) if specs else 1
    nest = KNest(depth)
    for spec in specs:
        nest.add(spec.name, spec.path)
    initial: dict[str, int] = {}
    for spec in specs:
        for entity in sorted(spec.entities):
            initial.setdefault(entity, 100)
    engine = Engine(
        [spec.compile() for spec in specs],
        initial,
        make_scheduler(scheduler, nest),
        seed=seed,
        recovery=recovery_unit,
    )
    return engine, engine.run()


def measure(cuts: int | None = SMOKE_CUTS, *, scheduler: str = "mla-detect",
            seed: int = 16) -> dict:
    """Run the three measurements in a throwaway directory tree and
    return the ``e16`` summary dict."""
    from repro.durability import recover
    from repro.durability.fuzz import (
        default_specs,
        fuzz_crash_points,
        run_reference,
    )

    specs = default_specs(seed=seed)
    summary: dict = {"scheduler": scheduler, "seed": seed}
    with tempfile.TemporaryDirectory(prefix="e16-") as tmp:
        # -- WAL overhead: with-log vs no-log, bit-identical histories.
        wal_s, bare_s = [], []
        for attempt in range(OVERHEAD_REPEATS):
            directory = os.path.join(tmp, f"overhead{attempt}")
            start = time.perf_counter()
            _, logged = run_reference(
                directory, specs, scheduler=scheduler, seed=seed
            )
            wal_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            _, bare = run_without_wal(specs, scheduler=scheduler, seed=seed)
            bare_s.append(time.perf_counter() - start)
            assert logged.history_digest() == bare.history_digest(), (
                "E16: attaching a WAL changed the committed history"
            )
        summary["run_no_wal_ms"] = round(min(bare_s) * 1000, 2)
        summary["run_with_wal_ms"] = round(min(wal_s) * 1000, 2)
        summary["wal_overhead_ratio"] = round(
            min(wal_s) / max(min(bare_s), 1e-9), 3
        )
        # -- Recovery time: full replay vs snapshot + suffix.
        directory = os.path.join(tmp, "recover")
        run_reference(
            directory, specs, scheduler=scheduler, seed=seed,
            snapshot_every=SNAPSHOT_EVERY,
        )
        start = time.perf_counter()
        full = recover(directory, use_snapshot=False)
        summary["recovery_full_replay_ms"] = round(
            (time.perf_counter() - start) * 1000, 2
        )
        start = time.perf_counter()
        shortcut = recover(directory)
        summary["recovery_snapshot_ms"] = round(
            (time.perf_counter() - start) * 1000, 2
        )
        assert shortcut.snapshot_tick is not None, (
            "E16: the snapshot shortcut did not engage"
        )
        assert full.engine.commit_order == shortcut.engine.commit_order
        full.wal.close()
        shortcut.wal.close()
        summary["snapshot_tick"] = shortcut.snapshot_tick
        summary["replayed_checks_full"] = full.replayed
        summary["replayed_checks_snapshot"] = shortcut.replayed
        # -- The sweep itself: every cut must recover and continue.
        start = time.perf_counter()
        report = fuzz_crash_points(
            os.path.join(tmp, "fuzz"), scheduler=scheduler, seed=seed,
            cut_limit=cuts, snapshot_every=SNAPSHOT_EVERY,
        )
        summary["fuzz_ms"] = round((time.perf_counter() - start) * 1000, 2)
        fuzz = report.summary()
        assert report.ok, (
            f"E16: {fuzz['failures']} of {fuzz['cuts']} kill points "
            f"diverged; first: {report.failures[0].error}"
        )
        summary["fuzz"] = fuzz
        summary["reference_digest"] = report.reference_digest
    if summary["wal_overhead_ratio"] > WAL_OVERHEAD_WARN_RATIO:
        print(
            "WARNING: E16 WAL-enabled run is "
            f"{summary['wal_overhead_ratio']}x the no-WAL run "
            f"(warn threshold {WAL_OVERHEAD_WARN_RATIO}x; recorded, "
            "not asserted)",
            file=sys.stderr,
        )
    return summary


def smoke(cuts: int = SMOKE_CUTS) -> dict:
    """The bounded sweep ``collect_results.py --quick`` and CI run."""
    summary = measure(cuts)
    assert summary["fuzz"]["cuts"] == cuts
    assert summary["fuzz"]["failures"] == 0
    return summary


def test_e16_crash_fuzz_smoke():
    smoke()


def append_bench(summary: dict, path: str = BENCH_JSON) -> None:
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["e16_durability"] = summary
    data.setdefault("workloads", {})["e16"] = (
        "crash-point fuzz (seeded kills at record boundaries + torn "
        "tails, recover-and-continue differential) "
        "plus recovery time and WAL overhead"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cuts", type=int, default=0,
        help="cap the kill-point count (0 = sweep every cut)",
    )
    parser.add_argument("--scheduler", default="mla-detect")
    parser.add_argument("--seed", type=int, default=16)
    args = parser.parse_args()
    summary = measure(
        args.cuts or None, scheduler=args.scheduler, seed=args.seed
    )
    fuzz = summary["fuzz"]
    record_table(
        "e16_crash_fuzz",
        "E16 — durability crash-point fuzz (WAL + snapshots + replay)",
        ["metric", "value"],
        [
            ["scheduler", summary["scheduler"]],
            ["kill points", fuzz["cuts"]],
            ["divergences", fuzz["failures"]],
            ["cut kinds", json.dumps(fuzz["kinds"], sort_keys=True)],
            ["sweep time (ms)", summary["fuzz_ms"]],
            ["recovery, full replay (ms)", summary["recovery_full_replay_ms"]],
            ["recovery, snapshot+suffix (ms)", summary["recovery_snapshot_ms"]],
            ["check frames replayed (full)", summary["replayed_checks_full"]],
            [
                "check frames replayed (snapshot)",
                summary["replayed_checks_snapshot"],
            ],
            ["run, no WAL (ms)", summary["run_no_wal_ms"]],
            ["run, WAL enabled (ms)", summary["run_with_wal_ms"]],
            ["WAL overhead ratio (warn-only)", summary["wal_overhead_ratio"]],
        ],
        notes=(
            "Every kill point must recover to a bitwise-identical engine "
            "and continue to the reference history; the overhead ratio is "
            "recorded, never asserted.  The log holds the run's inputs "
            "and one check frame per 4-tick slice (a digest of the "
            "slice's decisions), not every decision, so it has fewer "
            "frames, and fewer kill points, than a decision log."
        ),
    )
    append_bench(summary)


if __name__ == "__main__":
    main()
