"""Observability: the flight recorder and the metrics plane.

The *event* half (PR 4 — what happened, in what order):

* :mod:`repro.obs.events` — the typed event taxonomy and the JSONL wire
  format (emit -> dump -> parse round-trips).
* :mod:`repro.obs.tracer` — sinks: the allocation-free null tracer (the
  default everywhere), a bounded in-memory ring, a JSONL stream.
* :mod:`repro.obs.explain` — timeline playback and abort cause-chain
  reconstruction from an event stream alone, and the tracer that keeps
  of a live stream only what that reconstruction reads.

The *aggregate* half (how much, and where):

* :mod:`repro.obs.registry` — labeled Counter/Gauge/Histogram families
  whose every series a registered source sets when the registry is read
  (nothing pushes).
* :mod:`repro.obs.histogram` — the fixed-bucket latency histogram
  backing ``Metrics`` percentiles and registry histogram families.
* :mod:`repro.obs.profile` — the deterministic phase profiler
  (exclusive wall-time attribution over schedule / closure / rollback /
  certify / network), installed on an engine or a distributed runtime
  from outside and only on demand; ``profiler.publish`` is its registry
  source.
* :mod:`repro.obs.spans` — folds the event stream into per-transaction
  and per-message causal spans as Chrome trace-event JSON (Perfetto).
* :mod:`repro.obs.export` — Prometheus text exposition and lossless
  JSON snapshots of a registry.

Design rule: observability must be *behaviour-invariant*.  Emission,
recording and registry sources never consume engine or network
randomness and never mutate observed state, so an instrumented run
commits the same order with the same metrics as an uninstrumented one
(asserted by the differential tests in ``tests/obs``).
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_TAXONOMY,
    Event,
    dump_jsonl,
    event_from_dict,
    event_to_dict,
    load_jsonl,
)
from repro.obs.explain import (
    AbortCauses,
    aborted_transactions,
    explain_abort,
    format_timeline,
)
from repro.obs.export import (
    json_snapshot,
    prometheus_text,
    registry_from_snapshot,
    write_chrome_trace,
)
from repro.obs.histogram import Histogram
from repro.obs.profile import PHASES, PhaseProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    HistogramChild,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.spans import build_spans, chrome_trace, validate_trace
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    StreamTracer,
    Tracer,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_TAXONOMY",
    "AbortCauses",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "HistogramChild",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "PhaseProfiler",
    "RingTracer",
    "StreamTracer",
    "Tracer",
    "aborted_transactions",
    "build_spans",
    "chrome_trace",
    "dump_jsonl",
    "event_from_dict",
    "event_to_dict",
    "explain_abort",
    "format_timeline",
    "json_snapshot",
    "load_jsonl",
    "prometheus_text",
    "registry_from_snapshot",
    "validate_trace",
    "write_chrome_trace",
]
