"""E15 — service-mode soak: sustained ingest through the socket server.

The service tentpole's acceptance run: a six-figure stream of generated
transactions is pushed through a *live* ingest server (newline-JSON over
sockets, ``submit_batch``, admission window 32) and the run is held to
explicit SLOs:

* **p99 commit latency** (ticks from arrival to commit, as reported in
  the result envelopes) stays under :data:`P99_LATENCY_TICKS_SLO`;
* **abort rate** (engine aborts per committed transaction) stays under
  :data:`ABORT_RATE_SLO`;
* nothing is lost: every submission commits, none give up.

The traffic shape is the measured sweet spot for a sustained open
system: a wide keyspace (32 families x 8 entities) at low cross-family
contention, so throughput is flat in stream length instead of decaying
with history (the log-split engine work this PR rides on).

Usage::

    python benchmarks/bench_e15_soak.py                  # full 100k soak
    python benchmarks/bench_e15_soak.py --transactions N # custom size
    python benchmarks/bench_e15_soak.py --differential   # + library replay

The full run appends its summary to ``BENCH.json`` under ``e15_soak``
and writes ``benchmarks/results/e15_soak.md``.  The pytest entry point
(and ``collect_results.py --quick``) runs the reduced smoke instead:
same shape, a few hundred transactions, plus the library-replay
differential asserting the service's committed history is bit-identical
to the library path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (_HERE, os.path.join(_HERE, os.pardir, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _harness import record_table

BENCH_JSON = os.path.join(_HERE, os.pardir, "BENCH.json")

SOAK_TRANSACTIONS = 100_000
SMOKE_TRANSACTIONS = 400

#: Traffic shape (see module docstring); seed makes the stream replayable.
TRAFFIC = dict(
    families=32,
    entities_per_family=8,
    shared_entities=4,
    contention=0.02,
    seed=15,
)
#: Admission window — the engine's measured sweet spot under 2PL.
WINDOW = 32
#: Client shape: 4 connections x batches of 16 keeps ~2x the window in
#: flight, so the backpressure path is genuinely exercised.
CONNECTIONS = 4
BATCH = 16

#: SLOs asserted by the soak (and, scaled, by the smoke).
P99_LATENCY_TICKS_SLO = 600
ABORT_RATE_SLO = 0.08


def percentile(values, q: float):
    ordered = sorted(values)
    if not ordered:
        return None
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


async def _shutdown(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "shutdown"}\n')
    await writer.drain()
    await reader.readline()
    writer.close()


async def _soak(transactions: int, window: int):
    from repro.service import AdmissionConfig, ServiceConfig
    from repro.service.server import serve
    from repro.workloads.traffic import TrafficConfig, drive, traffic_submissions

    config = ServiceConfig(
        nest_depth=1,
        admission=AdmissionConfig(window=window, retry_after=0.001),
    )
    ready: asyncio.Future = asyncio.get_running_loop().create_future()
    task = asyncio.create_task(serve(config, ready=ready))
    port = await ready
    submissions = traffic_submissions(
        TrafficConfig(transactions=transactions, **TRAFFIC)
    )
    start = time.perf_counter()
    stats = await drive(
        "127.0.0.1",
        port,
        submissions,
        connections=CONNECTIONS,
        batch=BATCH,
        max_attempts=1_000_000,
    )
    elapsed = time.perf_counter() - start
    await _shutdown(port)
    service = await task
    return service, stats, elapsed


def run_soak(transactions: int, window: int = WINDOW):
    """Run the soak; return ``(service, drive-stats, wall seconds)``."""
    return asyncio.run(_soak(transactions, window))


def summarize(service, stats, elapsed: float) -> dict:
    envelopes = stats["envelopes"]
    latencies = [
        e["latency_ticks"]
        for e in envelopes
        if e["status"] in ("committed", "restarted")
    ]
    committed = len(service.engine.commit_order)
    aborts = service.engine.metrics.aborts
    return {
        "transactions": len(envelopes),
        "committed": committed,
        "gave_up": len(stats["gave_up"]),
        "elapsed_s": round(elapsed, 2),
        "throughput_txn_s": round(committed / elapsed, 1) if elapsed else None,
        "ticks": service.engine.tick,
        "retries": stats["retries"],
        "aborts": aborts,
        "abort_rate": round(aborts / max(committed, 1), 5),
        "p50_latency_ticks": percentile(latencies, 0.50),
        "p95_latency_ticks": percentile(latencies, 0.95),
        "p99_latency_ticks": percentile(latencies, 0.99),
        "max_latency_ticks": max(latencies) if latencies else None,
        "window": WINDOW,
        "connections": CONNECTIONS,
        "batch": BATCH,
        "slo": {
            "p99_latency_ticks": P99_LATENCY_TICKS_SLO,
            "abort_rate": ABORT_RATE_SLO,
        },
        "history_sha256": service.result().history_digest(),
    }


def assert_slos(summary: dict, transactions: int) -> None:
    assert summary["committed"] == transactions, (
        f"soak lost transactions: {summary['committed']} committed of "
        f"{transactions}"
    )
    assert summary["gave_up"] == 0, (
        f"{summary['gave_up']} submissions gave up under backpressure"
    )
    assert summary["p99_latency_ticks"] <= P99_LATENCY_TICKS_SLO, (
        f"p99 latency {summary['p99_latency_ticks']} ticks exceeds the "
        f"{P99_LATENCY_TICKS_SLO}-tick SLO"
    )
    assert summary["abort_rate"] <= ABORT_RATE_SLO, (
        f"abort rate {summary['abort_rate']} exceeds the "
        f"{ABORT_RATE_SLO} SLO"
    )


def replay_differential(service, transactions: int) -> None:
    """Replay the soak stream through the library path and assert the
    committed history is bit-identical to the service's."""
    from repro.api import make_scheduler
    from repro.core.nests import KNest
    from repro.engine.runtime import Engine
    from repro.workloads.traffic import TrafficConfig, traffic_specs

    config = service.config
    specs = {
        s.name: s
        for s in traffic_specs(
            TrafficConfig(transactions=transactions, **TRAFFIC)
        )
    }
    nest = KNest(config.nest_depth)
    initial: dict = {}
    for name in service.arrivals:  # ingest order
        nest.add(name, specs[name].path)
        for entity in sorted(specs[name].entities):
            initial.setdefault(entity, config.initial_value)
    engine = Engine(
        [specs[name].compile() for name in service.arrivals],
        initial,
        make_scheduler(config.scheduler, nest),
        seed=config.seed,
        arrivals=dict(service.arrivals),
        max_ticks=1 << 62,
    )
    library = engine.run()
    service_result = service.result()
    assert (
        service_result.history_digest() == library.history_digest()
    ), "service committed history diverged from the library replay"
    assert service_result.commit_order == library.commit_order
    assert service_result.results == library.results


def smoke(transactions: int = SMOKE_TRANSACTIONS) -> dict:
    """The reduced soak + differential, cheap enough for CI."""
    service, stats, elapsed = run_soak(transactions)
    summary = summarize(service, stats, elapsed)
    assert_slos(summary, transactions)
    replay_differential(service, transactions)
    summary["differential"] = "bit-identical"
    return summary


def test_e15_soak_smoke():
    smoke()


# ----------------------------------------------------------------------
# full soak
# ----------------------------------------------------------------------


def append_bench(summary: dict, path: str = BENCH_JSON) -> None:
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["e15_soak"] = summary
    data.setdefault("workloads", {})["e15"] = (
        "service-mode soak (>=100k transactions over sockets, window "
        f"{WINDOW}, p99-latency + abort-rate SLOs)"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--transactions", type=int, default=SOAK_TRANSACTIONS
    )
    parser.add_argument(
        "--differential",
        action="store_true",
        help="also replay the stream through the library path and "
             "assert bit-identical committed history (doubles runtime)",
    )
    args = parser.parse_args()
    service, stats, elapsed = run_soak(args.transactions)
    summary = summarize(service, stats, elapsed)
    assert_slos(summary, args.transactions)
    if args.differential:
        replay_differential(service, args.transactions)
        summary["differential"] = "bit-identical"
    record_table(
        "e15_soak",
        "E15 — service-mode soak (ingest server, sustained stream)",
        ["metric", "value"],
        [
            ["transactions", summary["transactions"]],
            ["committed", summary["committed"]],
            ["elapsed (s)", summary["elapsed_s"]],
            ["throughput (txn/s)", summary["throughput_txn_s"]],
            ["engine ticks", summary["ticks"]],
            ["load retries", summary["retries"]],
            ["aborts", summary["aborts"]],
            ["abort rate", summary["abort_rate"]],
            ["p50 latency (ticks)", summary["p50_latency_ticks"]],
            ["p95 latency (ticks)", summary["p95_latency_ticks"]],
            ["p99 latency (ticks)", summary["p99_latency_ticks"]],
            ["p99 SLO (ticks)", P99_LATENCY_TICKS_SLO],
            ["abort-rate SLO", ABORT_RATE_SLO],
        ],
        notes=(
            f"Window {WINDOW}, {CONNECTIONS} connections x batches of "
            f"{BATCH}; traffic: {TRAFFIC['families']} families x "
            f"{TRAFFIC['entities_per_family']} entities, contention "
            f"{TRAFFIC['contention']}.  SLOs asserted, summary appended "
            "to BENCH.json."
        ),
    )
    append_bench(summary)
    print(f"appended e15_soak to {os.path.abspath(BENCH_JSON)}")


if __name__ == "__main__":
    main()
