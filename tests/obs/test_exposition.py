"""``/metrics`` against goldens the parent commit wrote.

Every series of a registry is set by a source when the registry is
read (``MetricsRegistry.derive``); nothing pushes.  The goldens pin the
Prometheus exposition from *before* the service, the audit monitor and
the profiler were moved onto that model — when they bound children and
``inc`` / ``set`` them as they went, and a scrape rendered a fresh copy
of the registry with the profiler added in: family names, help strings,
label sets and values, for an in-process service under load (rejects,
duplicates, restarts) and for a ``repro top --audit``-style monitored
engine scraped mid-run and after.  Phase *seconds* are wall time and
left out; phase *calls* are counts and stay.  The service installs its
profiler only while a ``profile`` request is open, which these runs
never send, so the service cells' phase calls read 0 — the one change
since the service stopped profiling every request.

Regenerate — only ever from a commit whose behaviour is the reference —
with ``PYTHONPATH=<that checkout>/src python tests/obs/test_exposition.py``.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.api import make_scheduler
from repro.audit import OnlineMonitor
from repro.obs import MetricsRegistry, PhaseProfiler, prometheus_text
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads import BankingConfig, BankingWorkload
from repro.workloads.traffic import TrafficConfig, traffic_submissions

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_exposition.json"
)

SERVICE_SCHEDULERS = ("2pl", "mla-detect")
TRAFFIC = TrafficConfig(transactions=1000, contention=0.15, seed=18)
#: More per round than the admission window holds, so every round ends
#: in load rejections that the next round retries.
WINDOW, ROUND = 32, 40
RESUBMITTED = 5
BANKING = BankingConfig(
    families=2, accounts_per_family=2, transfers=8, bank_audits=1,
    creditor_audits=1, seed=11,
)
#: ``scheduler`` -> ticks before the mid-run scrape.  The uncontrolled
#: run commits a violation, so the monitor's terminal state is covered.
MONITORED = {"mla-detect": 60, "none": 30}


def without_phase_seconds(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True)
        if "repro_phase_seconds_total" not in line
    )


def service_exposition(scheduler: str) -> str:
    service = TransactionService(ServiceConfig(
        scheduler=scheduler, admission=AdmissionConfig(window=WINDOW),
    ))
    submissions = traffic_submissions(TRAFFIC)

    async def go() -> None:
        queue = list(submissions)
        while queue:
            wave, queue = queue[:ROUND], queue[ROUND:]
            responses = await asyncio.gather(
                *(service.submit(s) for s in wave)
            )
            queue[:0] = [
                s for s, response in zip(wave, responses)
                if not response["ok"]
            ]
        for submission in submissions[:RESUBMITTED]:
            await service.submit(submission)
        await service.drain()

    asyncio.run(go())
    assert service.admission.rejected_load > 0
    assert service.engine.metrics.aborts > 0
    return without_phase_seconds(service.metrics_text())


def monitored_engine(scheduler: str):
    """An engine, its audit monitor and the profiler on one registry —
    what ``repro top --audit`` builds."""
    workload = BankingWorkload(BANKING)
    registry = MetricsRegistry()
    monitor = OnlineMonitor(workload.nest, registry=registry)
    engine = workload.engine(
        make_scheduler(scheduler, workload.nest), seed=11,
        registry=registry, history=monitor,
    )
    profiler = PhaseProfiler().install(engine)
    return engine, monitor, registry, profiler


def monitored_exposition(scheduler: str, scrape) -> dict[str, str]:
    engine, monitor, registry, profiler = monitored_engine(scheduler)
    engine.advance(until_tick=MONITORED[scheduler])
    midway = scrape(registry, profiler)
    engine.run()
    monitor.close()
    return {
        "midway": without_phase_seconds(midway),
        "final": without_phase_seconds(scrape(registry, profiler)),
    }


def scrape_registry(registry, profiler) -> str:
    registry.derive("phases", profiler.publish)
    return prometheus_text(registry)


def _load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _load_golden() if __name__ != "__main__" else {}


@pytest.mark.parametrize("scheduler", SERVICE_SCHEDULERS)
def test_service_metrics_are_what_the_parent_served(scheduler):
    assert service_exposition(scheduler) == GOLDEN[f"service:{scheduler}"]


@pytest.mark.parametrize("scheduler", sorted(MONITORED))
def test_monitored_engine_metrics_are_what_the_parent_rendered(scheduler):
    golden = GOLDEN[f"monitored:{scheduler}"]
    assert monitored_exposition(scheduler, scrape_registry) == golden
    assert golden["midway"] != golden["final"]


def test_goldens_cover_every_pushed_series():
    """The goldens are only as good as their coverage: each series that
    used to be pushed shows a non-zero value somewhere."""
    text = "".join(
        run if isinstance(run, str) else "".join(run.values())
        for run in GOLDEN.values()
    )
    nonzero = {
        line.rsplit(" ", 1)[0]
        for line in text.splitlines()
        if not line.startswith("#") and line.rsplit(" ", 1)[1] != "0"
    }
    assert {
        'repro_service_submissions_total{outcome="admitted"}',
        'repro_service_submissions_total{outcome="rejected_load"}',
        'repro_service_submissions_total{outcome="duplicate"}',
        "repro_service_pump_batches_total",
        "repro_audit_checked_commits_total",
        "repro_audit_violations_total",
        'repro_phase_calls_total{phase="schedule"}',
        'repro_phase_calls_total{phase="rollback"}',
    } <= nonzero
    assert "repro_service_in_flight 0\n" in text


def write_golden(scrape=scrape_registry) -> None:
    golden: dict = {
        f"service:{scheduler}": service_exposition(scheduler)
        for scheduler in SERVICE_SCHEDULERS
    }
    for scheduler in sorted(MONITORED):
        golden[f"monitored:{scheduler}"] = monitored_exposition(
            scheduler, scrape
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {len(golden)} expositions to {GOLDEN_PATH}")


if __name__ == "__main__":
    write_golden()
