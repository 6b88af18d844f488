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

from repro import _lazy_exports

_EXPORTS = {
    "EVENT_KINDS": "events",
    "EVENT_TAXONOMY": "events",
    "AbortCauses": "explain",
    "Counter": "registry",
    "Event": "events",
    "Gauge": "registry",
    "Histogram": "histogram",
    "HistogramChild": "registry",
    "MetricFamily": "registry",
    "MetricsRegistry": "registry",
    "NULL_TRACER": "tracer",
    "NullTracer": "tracer",
    "PHASES": "profile",
    "PhaseProfiler": "profile",
    "RingTracer": "tracer",
    "StreamTracer": "tracer",
    "Tracer": "tracer",
    "aborted_transactions": "explain",
    "build_spans": "spans",
    "chrome_trace": "spans",
    "dump_jsonl": "events",
    "event_from_dict": "events",
    "event_to_dict": "events",
    "explain_abort": "explain",
    "format_timeline": "explain",
    "json_snapshot": "export",
    "load_jsonl": "events",
    "prometheus_text": "export",
    "registry_from_snapshot": "export",
    "validate_trace": "spans",
    "write_chrome_trace": "export",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
