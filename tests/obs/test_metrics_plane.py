"""The metrics plane: registry, phase profiler, exposition, spans.

Four contracts under test:

* **Registry semantics** — family identity, label discipline, and
  series set by sources on read.
* **Profiler arithmetic** — exclusive attribution under nesting,
  checked against an injected fake clock with exact integers, and an
  outside-in install that times exactly the hook calls and leaves no
  trace once uninstalled.
* **Exposition** — ``prometheus_text`` output parses as Prometheus text
  format (checked by a strict line grammar, not substring poking), and
  ``json_snapshot`` round-trips losslessly.
* **Behaviour invariance** — a registry-instrumented, profiled run is
  bit-identical to a bare run, for every scheduler and for the
  distributed runtime, and the trace-to-spans pipeline validates
  against the Chrome trace-event schema.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.distributed import DistributedPreventControl, DistributedRuntime
from repro.errors import SpecificationError
from repro.obs import (
    PHASES,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    RingTracer,
    chrome_trace,
    json_snapshot,
    prometheus_text,
    registry_from_snapshot,
    validate_trace,
    write_chrome_trace,
)

from .conftest import SCHEDULER_ZOO


def histogram_of(*samples: int) -> Histogram:
    hist = Histogram()
    for sample in samples:
        hist.record(sample)
    return hist


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Registry semantics


class TestRegistry:
    def test_family_identity_and_conflict(self):
        registry = MetricsRegistry()
        registry.put("counter", "repro_x_total", "", 1, scheduler="a")
        family = registry.get("repro_x_total")
        registry.put("counter", "repro_x_total", "", 2, scheduler="b")
        # Uncoordinated sources share one family.
        assert registry.get("repro_x_total") is family
        assert [values for values, _ in family.series()] == [("a",), ("b",)]
        with pytest.raises(SpecificationError):
            registry.put("gauge", "repro_x_total", "", 1, scheduler="a")
        with pytest.raises(SpecificationError):
            registry.put("counter", "repro_x_total", "", 1, node="n0")
        with pytest.raises(SpecificationError):
            registry.put("counter", "bad name", "", 1)
        with pytest.raises(SpecificationError):
            registry.put("meter", "repro_z_total", "", 1)
        with pytest.raises(SpecificationError):
            registry.put("counter", "repro_y_total", "", 1, **{"bad-label": 1})

    def test_label_discipline(self):
        registry = MetricsRegistry()
        registry.put("counter", "repro_x_total", "", 3, scheduler="serial")
        family = registry.get("repro_x_total")
        with pytest.raises(SpecificationError):
            family.labels(node="n0")
        with pytest.raises(SpecificationError):
            registry.put("counter", "repro_x_total", "", 1, node="n0")
        assert registry.value("repro_x_total", scheduler="serial") == 3
        # An untouched series reads as zero; a missing family as None.
        assert registry.value("repro_x_total", scheduler="other") == 0
        assert registry.value("repro_missing") is None

    def test_sources_set_their_series_on_every_read(self):
        """``derive`` is the pull half: a source sets (never adds), so
        reading twice changes nothing, and re-registering under the same
        key replaces the source."""
        registry = MetricsRegistry()
        state = {"n": 3, "reads": 0}

        def source(reg):
            state["reads"] += 1
            reg.put("counter", "repro_n_total", "", state["n"])

        registry.derive("n", source)
        assert registry.value("repro_n_total") == 3
        assert registry.value("repro_n_total") == 3
        state["n"] = 5
        assert [f.name for f in registry.families()] == ["repro_n_total"]
        assert registry.get("repro_n_total").labels().value == 5
        reads = state["reads"]
        registry.derive("n", lambda reg: None)
        registry.families()
        assert state["reads"] == reads, "a replaced source is released"


# ---------------------------------------------------------------------------
# Profiler arithmetic


class TestPhaseProfiler:
    def test_exclusive_attribution_under_nesting(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("schedule"):
            clock.now = 10.0
            with profiler.phase("closure"):
                clock.now = 14.0
            clock.now = 20.0
        snap = profiler.snapshot()
        assert snap["schedule"] == {"seconds": 16.0, "calls": 1}
        assert snap["closure"] == {"seconds": 4.0, "calls": 1}
        assert profiler.total() == 20.0  # exclusive: sums to wall time

    def test_same_phase_nests_via_cached_span(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        # phase() hands out one cached span per name; re-entering the
        # same phase must still balance the stack.
        assert profiler.phase("rollback") is profiler.phase("rollback")
        with profiler.phase("rollback"):
            clock.now = 3.0
            with profiler.phase("rollback"):
                clock.now = 5.0
            clock.now = 6.0
        assert profiler.seconds["rollback"] == 6.0
        assert profiler.calls["rollback"] == 2

    def test_unknown_phase_rejected(self):
        profiler = PhaseProfiler(clock=FakeClock())
        with pytest.raises(SpecificationError):
            profiler.phase("sleeping")

    def test_publish_exports_every_phase(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("schedule"):
            clock.now = 2.5
        registry = MetricsRegistry()
        profiler.publish(registry)
        profiler.publish(registry)  # sets, so twice is once
        assert registry.value(
            "repro_phase_seconds_total", phase="schedule"
        ) == 2.5
        for name in PHASES:
            assert registry.value(
                "repro_phase_calls_total", phase=name
            ) == (1 if name == "schedule" else 0)


#: Per phase, what ``install`` times on an engine and on a cluster.
ENGINE_SITES = {
    "schedule": ("scheduler", ("on_request", "after_performed")),
    "certify": ("scheduler", ("may_commit",)),
    "rollback": ("engine", ("_rollback",)),
    "closure": ("window", ("_recompute", "_extend")),
}
CLUSTER_SITES = {
    "schedule": ("control", ("decide",)),
    "certify": ("control", ("certify_commit",)),
    "rollback": ("sequencer", ("_execute_rollback",)),
    "closure": ("window", ("_recompute", "_extend")),
}


def engine_owners(engine) -> dict:
    return {
        "engine": engine,
        "scheduler": engine.scheduler,
        "window": getattr(engine.scheduler, "window", None),
    }


def cluster_owners(runtime) -> dict:
    control = runtime.sequencer.control
    return {
        "sequencer": runtime.sequencer,
        "control": control,
        "window": getattr(control, "window", None),
    }


def counting(owners: dict, sites: dict) -> dict[str, int]:
    """Swap a call counter in around every site, on the instances (as a
    tracing harness would, before the profiler): phase -> calls."""
    counts = dict.fromkeys(sites, 0)
    for phase, (owner, attributes) in sites.items():
        target = owners[owner]
        if target is None:
            continue
        for attribute in attributes:
            call = getattr(target, attribute)

            def counted(*args, _call=call, _phase=phase, **kwargs):
                counts[_phase] += 1
                return _call(*args, **kwargs)

            setattr(target, attribute, counted)
    return counts


def cluster(bank, **kwargs) -> DistributedRuntime:
    return DistributedRuntime(
        bank.programs,
        bank.accounts,
        DistributedPreventControl(bank.nest),
        nodes=3,
        seed=4,
        **kwargs,
    )


class TestOutsideIn:
    def test_closure_nested_in_after_performed_is_exclusive(self, bank):
        """Each ``after_performed`` spends 3 s of its own and each closure
        call 4 s; the closure calls ``after_performed`` makes are carved
        out of it, so every second lands in exactly one phase."""
        clock = FakeClock()
        engine = bank.engine(SCHEDULER_ZOO["mla-detect"](bank.nest), seed=5)
        scheduler, window = engine.scheduler, engine.scheduler.window
        calls = {"after_performed": 0, "closure": 0, "nested": 0}
        profiler = PhaseProfiler(clock=clock)

        def costing(call, seconds, key):
            def timed(*args, **kwargs):
                calls[key] += 1
                if key == "closure" and profiler._stack[:1] == ["schedule"]:
                    calls["nested"] += 1
                result = call(*args, **kwargs)
                clock.now += seconds
                return result
            return timed

        scheduler.after_performed = costing(
            scheduler.after_performed, 3.0, "after_performed"
        )
        for name in ("_recompute", "_extend"):
            call = costing(getattr(window, name), 4.0, "closure")
            setattr(window, name, call)
        profiler.install(engine)
        engine.run()
        assert calls["nested"] > 0 and calls["after_performed"] > 0
        assert profiler.calls["closure"] == calls["closure"]
        assert profiler.seconds["closure"] == 4.0 * calls["closure"]
        assert profiler.seconds["schedule"] == 3.0 * calls["after_performed"]
        assert profiler.seconds["rollback"] == profiler.seconds["certify"] == 0
        assert profiler.total() == clock.now

    @staticmethod
    def assert_restored(owners, before) -> None:
        """Each owner's ``vars()`` holds the same keys, each bound to
        the very object it held before the install."""
        for owner, held in zip(owners, before):
            after = vars(owner)
            assert after.keys() == held.keys(), type(owner).__name__
            assert all(after[key] is held[key] for key in held), (
                type(owner).__name__
            )

    @pytest.mark.parametrize("name", ["mla-detect", "mla-nested-lock", "2pl"])
    def test_uninstall_restores_every_attribute(self, bank, name):
        engine = bank.engine(SCHEDULER_ZOO[name](bank.nest), seed=5)
        # A proxy some harness swapped in first must come back, too.
        engine.scheduler.on_request = held = engine.scheduler.on_request
        engine.advance(until_tick=30)
        owners = [o for o in engine_owners(engine).values() if o is not None]
        before = [dict(vars(owner)) for owner in owners]
        profiler = PhaseProfiler().install(engine)
        assert engine.scheduler.on_request is not held
        assert "_rollback" in vars(engine)
        profiler.uninstall()
        self.assert_restored(owners, before)
        # Uninstalled mid-run, after the proxies ran.
        profiler.install(engine)
        engine.advance(until_tick=60)
        profiler.uninstall()
        assert profiler.calls["schedule"] > 0
        assert engine.scheduler.on_request is held
        swapped = {n for _, names in ENGINE_SITES.values() for n in names}
        for owner in owners:
            assert swapped & vars(owner).keys() <= {"on_request"}

    def test_uninstall_restores_a_cluster(self, bank):
        runtime = cluster(bank)
        runtime.start()
        runtime.pump(until=10.0)
        owners = list(cluster_owners(runtime).values())
        owners.append(runtime.network)
        before = [dict(vars(owner)) for owner in owners]
        handlers = dict(runtime.network._handlers)
        profiler = PhaseProfiler().install(runtime)
        wrapped = runtime.network._handlers
        assert all(wrapped[n] is not handlers[n] for n in handlers)
        runtime.pump(until=20.0)
        profiler.uninstall()
        assert profiler.calls["network"] > 0
        assert runtime.network._handlers == handlers
        assert all(
            runtime.network._handlers[n] is handlers[n] for n in handlers
        )
        swapped = {n for _, names in CLUSTER_SITES.values() for n in names}
        for owner in owners:
            assert not swapped & vars(owner).keys()
        before = [dict(vars(owner)) for owner in owners]
        profiler.install(runtime).uninstall()
        self.assert_restored(owners, before)

    def test_double_install_rejected(self, bank):
        engine = bank.engine(SCHEDULER_ZOO["mla-detect"](bank.nest), seed=5)
        other = bank.engine(SCHEDULER_ZOO["2pl"](bank.nest), seed=5)
        profiler = PhaseProfiler().install(engine)
        with pytest.raises(SpecificationError, match="already installed"):
            profiler.install(other)
        with pytest.raises(SpecificationError, match="already installed"):
            profiler.install(engine)
        profiler.uninstall()
        assert "_rollback" not in vars(engine)
        profiler.install(other).uninstall()

    @pytest.mark.parametrize("name", sorted(SCHEDULER_ZOO))
    def test_phase_calls_equal_hook_calls(self, bank, name):
        engine = bank.engine(
            SCHEDULER_ZOO[name](bank.nest), seed=5, recovery="segment"
        )
        counts = counting(engine_owners(engine), ENGINE_SITES)
        profiler = PhaseProfiler().install(engine)
        engine.run()
        assert {p: profiler.calls[p] for p in counts} == counts
        assert profiler.calls["network"] == 0
        assert counts["schedule"] > 0

    def test_phase_calls_equal_hook_calls_in_a_cluster(self, bank):
        runtime = cluster(bank)
        counts = counting(cluster_owners(runtime), CLUSTER_SITES)
        deliveries = []
        for node, handler in list(runtime.network._handlers.items()):
            def counted(message, _handler=handler):
                deliveries.append(message)
                return _handler(message)
            runtime.network._handlers[node] = counted
        profiler = PhaseProfiler().install(runtime)
        runtime.run()
        assert {p: profiler.calls[p] for p in counts} == counts
        assert profiler.calls["network"] == len(deliveries) > 0
        assert counts["closure"] > 0


# ---------------------------------------------------------------------------
# Exposition

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")"
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\})?"  # labels
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:e-?[0-9]+)?|\+Inf|-Inf|NaN))$"  # value
)


def _parse_prometheus(text: str) -> dict[str, dict]:
    """A strict parser for the subset of the text exposition format we
    emit: HELP/TYPE comments plus sample lines.  Raises on any line that
    does not conform, and returns {metric name: {"type", "samples"}}."""
    families: dict[str, dict] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name = rest.split(" ", 1)[0]
            families.setdefault(name, {"type": None, "samples": []})
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.split(" ", 1)
            assert kind in ("counter", "gauge", "histogram"), kind
            families.setdefault(name, {"type": None, "samples": []})
            families[name]["type"] = kind
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"unparseable exposition line: {line!r}"
            name, labels, value = match.groups()
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            owner = base if base in families else name
            assert owner in families, f"sample {name!r} before its # TYPE"
            families[owner]["samples"].append((name, labels, value))
    return families


class TestPrometheusExposition:
    def test_text_parses_with_strict_grammar(self):
        registry = MetricsRegistry()
        registry.put(
            "counter", "repro_commits_total", "Committed transactions.", 7,
            scheduler="mla-detect",
        )
        registry.put("gauge", "repro_ticks", "", 41, scheduler="mla-detect")
        registry.put(
            "histogram", "repro_commit_latency_ticks", "",
            histogram_of(0, 1, 5, 9, 9), scheduler="mla-detect",
        )

        families = _parse_prometheus(prometheus_text(registry))
        assert families["repro_commits_total"]["type"] == "counter"
        assert families["repro_ticks"]["type"] == "gauge"
        assert families["repro_commit_latency_ticks"]["type"] == "histogram"
        (sample,) = families["repro_commits_total"]["samples"]
        assert sample == (
            "repro_commits_total", 'scheduler="mla-detect"', "7"
        )

    def test_histogram_expansion_is_cumulative(self):
        registry = MetricsRegistry()
        registry.put("histogram", "repro_h", "", histogram_of(0, 1, 5, 9, 9))
        samples = _parse_prometheus(prometheus_text(registry))["repro_h"][
            "samples"
        ]
        buckets = [s for s in samples if s[0] == "repro_h_bucket"]
        counts = [int(s[2]) for s in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][1] == 'le="+Inf"'
        assert counts[-1] == 5
        # The finite bounds are the histogram's power-of-two upper edges.
        finite = [s[1] for s in buckets[:-1]]
        assert finite == ['le="0"', 'le="1"', 'le="3"', 'le="7"', 'le="15"']
        assert ("repro_h_sum", None, "24") in samples
        assert ("repro_h_count", None, "5") in samples

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.put(
            "counter", "repro_x_total", "", 1, node='we"ird\\name\nline'
        )
        families = _parse_prometheus(prometheus_text(registry))
        (sample,) = families["repro_x_total"]["samples"]
        assert sample[1] == 'node="we\\"ird\\\\name\\nline"'

    def test_json_snapshot_round_trips(self):
        registry = MetricsRegistry()
        registry.put("counter", "repro_c_total", "", 3, scheduler="2pl")
        registry.put(
            "histogram", "repro_h", "", histogram_of(1, 2, 300),
            scheduler="2pl",
        )
        snapshot = json_snapshot(registry)
        json.dumps(snapshot)  # must be JSON-serialisable as-is
        rebuilt = registry_from_snapshot(snapshot)
        assert json_snapshot(rebuilt) == snapshot
        assert rebuilt.value("repro_h", scheduler="2pl").total == 303


# ---------------------------------------------------------------------------
# Behaviour invariance + span validation


class TestMetricsDifferential:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_ZOO))
    def test_instrumented_engine_run_identical(self, bank, name):
        registry = MetricsRegistry()
        engine = bank.engine(
            SCHEDULER_ZOO[name](bank.nest), seed=5, registry=registry,
        )
        profiler = PhaseProfiler().install(engine)
        instrumented = engine.run()
        bare = bank.engine(SCHEDULER_ZOO[name](bank.nest), seed=5).run()

        assert instrumented.history_digest() == bare.history_digest()
        assert instrumented.commit_order == bare.commit_order
        assert instrumented.metrics.summary() == bare.metrics.summary()
        # The registry agrees with the engine's own counters.
        assert registry.value(
            "repro_commits_total", scheduler=name
        ) == bare.metrics.commits
        assert registry.value(
            "repro_steps_total", scheduler=name
        ) == bare.metrics.steps_performed
        # The profiler attributed real time to the scheduling phase.
        assert profiler.calls["schedule"] > 0

    def test_scrapes_are_idempotent_and_track_the_live_run(self, bank):
        """The registry renders the same exposition however often it is
        scraped, mid-run and after, and the series follow
        ``engine.metrics`` and the profiler between scrapes — every
        source sets its series on read."""
        registry = MetricsRegistry()
        engine = bank.engine(
            SCHEDULER_ZOO["mla-detect"](bank.nest), seed=5, registry=registry,
        )
        profiler = PhaseProfiler().install(engine)
        registry.derive("phases", profiler.publish)
        # Scraped before the first tick: every family is there, at zero.
        for series in ("repro_commits_total", "repro_parks_total"):
            assert registry.value(series, scheduler="mla-detect") == 0
        engine.advance(until_tick=40)

        def scrape() -> str:
            return prometheus_text(registry)

        midway = scrape()
        assert scrape() == midway == scrape()
        label = '{scheduler="mla-detect"}'
        commits = engine.metrics.commits
        assert f"repro_commits_total{label} {commits}\n" in midway
        assert f"repro_ticks{label} 40\n" in midway
        calls = profiler.calls["schedule"]
        assert (
            f'repro_phase_calls_total{{phase="schedule"}} {calls}\n' in midway
        )
        result = engine.run()
        final = scrape()
        assert scrape() == final != midway
        metrics = result.metrics
        for series, expected in {
            "repro_commits_total": metrics.commits,
            "repro_aborts_total": metrics.aborts,
            "repro_steps_undone_total": metrics.steps_undone,
            "repro_closure_checks_total": metrics.closure_checks,
            "repro_cycles_detected_total": metrics.cycles_detected,
        }.items():
            assert registry.value(series, scheduler="mla-detect") == expected
        latency = registry.value(
            "repro_commit_latency_ticks", scheduler="mla-detect"
        )
        assert latency.count == metrics.commits
        assert latency.total == metrics.latency_total

    def test_instrumented_cluster_identical_and_snapshot_stable(self, bank):
        registry = MetricsRegistry()
        runtime = cluster(bank, registry=registry)
        profiler = PhaseProfiler().install(runtime)
        registry.derive("phases", profiler.publish)
        assert runtime.registry is registry
        runtime.start()
        runtime.pump(until=20.0)
        # The network, the sequencer and every node are sources of the
        # one registry: scraping it twice changes nothing, mid-run and
        # after, and the series follow the run between scrapes.
        midway = json_snapshot(registry)
        assert json_snapshot(registry) == midway
        assert registry.value(
            "repro_net_messages_total", kind="request"
        ) == runtime.network.messages_by_kind["request"] > 0
        runtime.network.run()
        instrumented = runtime.finish()
        bare = cluster(bank).run()

        assert profiler.calls["network"] > 0
        assert instrumented.execution == bare.execution
        assert instrumented.results == bare.results
        assert instrumented.summary() == bare.summary()
        assert instrumented.messages_by_kind == bare.messages_by_kind
        assert instrumented.makespan == bare.makespan

        final = json_snapshot(registry)
        assert json_snapshot(registry) == final != midway
        assert registry.value(
            "repro_seq_commits_total", control="mla-prevent"
        ) == instrumented.commits
        performs = registry.get("repro_node_steps_performed_total")
        assert performs is not None
        series = performs.series()
        assert len(series) == 3, "every node must be a source"
        assert sum(child.value for _, child in series) == sum(
            node.performs for node in runtime.nodes
        ) > 0

    def test_engine_spans_validate_against_chrome_schema(self, bank, tmp_path):
        tracer = RingTracer(capacity=None)
        bank.engine(
            SCHEDULER_ZOO["mla-detect"](bank.nest), seed=5, tracer=tracer
        ).run()
        events = tracer.events()
        trace = chrome_trace(events)
        validate_trace(trace)  # raises on any schema violation
        assert trace["traceEvents"], "a real run must produce spans"

        path = tmp_path / "trace.json"
        written = write_chrome_trace(events, str(path))
        with open(path, encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert written == len(on_disk["traceEvents"])
        validate_trace(on_disk)

    def test_distributed_spans_validate(self, bank):
        tracer = RingTracer(capacity=None)
        DistributedRuntime(
            bank.programs,
            bank.accounts,
            DistributedPreventControl(bank.nest),
            nodes=3,
            seed=4,
            tracer=tracer,
        ).run()
        trace = chrome_trace(tracer.events())
        validate_trace(trace)
        names = {event.get("name") for event in trace["traceEvents"]}
        assert any("transfer" in str(name) or "audit" in str(name)
                   for name in names)


class TestValidateTraceRejections:
    def test_missing_required_key(self):
        with pytest.raises(SpecificationError):
            validate_trace({"traceEvents": [{"ph": "i", "pid": 1, "tid": 1}]})

    def test_non_monotone_ts(self):
        events = [
            {"ph": "i", "pid": 1, "tid": 1, "ts": 5, "s": "t"},
            {"ph": "i", "pid": 1, "tid": 1, "ts": 4, "s": "t"},
        ]
        with pytest.raises(SpecificationError):
            validate_trace({"traceEvents": events})

    def test_unbalanced_begin(self):
        events = [{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "x"}]
        with pytest.raises(SpecificationError):
            validate_trace({"traceEvents": events})
