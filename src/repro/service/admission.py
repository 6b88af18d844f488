"""Admission control for the ingest server.

Two gates, checked in order at submit time:

* **schema** — the submission must be well-formed *for this service*:
  its path must match the service's nest depth, its name must be fresh
  (the engine's transaction identifiers are forever), and its op count
  must fit the configured ceiling.  Schema rejections are permanent —
  retrying the same submission can never succeed.
* **load** — once in-flight work (queued + running) reaches the
  configured window, further submissions are rejected with a
  ``retry_after`` hint instead of being queued.  Load rejections are
  transient: the client backs off and resubmits.  Bounding the window
  also bounds the engine's per-tick cost (the candidate scan is linear
  in the in-flight set) and the closure window the MLA schedulers
  maintain.

The controller also packages the E2 admission-rate measurement
(:func:`repro.workloads.admission_by_depth`) over a sliding sample of
recently admitted programs, serving the existing ``repro admission``
analysis live from the server's ``admission`` op.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.api import ProgramSpec, Submission
from repro.errors import SpecificationError

__all__ = ["AdmissionConfig", "AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission gate."""

    # 32 in-flight is the measured sweet spot for the tick engine under
    # 2PL: per-tick cost is O(window), and lock convoys make wider
    # windows *slower* (256 in flight over a small keyspace livelocks).
    window: int = 32
    max_ops: int = 256
    retry_after: float = 0.05
    report_sample: int = 12

    def __post_init__(self) -> None:
        if self.window < 1:
            raise SpecificationError("admission window must be at least 1")
        if self.max_ops < 1:
            raise SpecificationError("max_ops must be at least 1")


@dataclass(frozen=True)
class AdmissionDecision:
    """``admitted`` or a rejection with its kind and client guidance."""

    admitted: bool
    reason: str = ""
    #: "schema" rejections are permanent, "load" rejections transient.
    kind: str = ""
    #: Seconds the client should wait before retrying (load only).
    retry_after: float | None = None


class AdmissionController:
    """Stateless checks plus a sliding sample for the live E2 report."""

    def __init__(self, config: AdmissionConfig, nest_depth: int) -> None:
        self.config = config
        self.nest_depth = nest_depth
        self.admitted = 0
        self.rejected_schema = 0
        self.rejected_load = 0
        self._sample: deque[ProgramSpec] = deque(maxlen=config.report_sample)

    # ------------------------------------------------------------------

    def check(
        self,
        submission: Submission,
        known_names,
        in_flight: int,
    ) -> AdmissionDecision:
        """Gate one submission given the current service state.

        ``known_names`` is a membership-testable view of every
        transaction name the engine has ever seen; ``in_flight`` counts
        submissions accepted but not yet resolved.
        """
        spec = submission.program
        if len(spec.path) != self.nest_depth:
            return self._schema_reject(
                f"path depth {len(spec.path)} does not match the service "
                f"nest depth {self.nest_depth}"
            )
        if spec.name in known_names:
            return self._schema_reject(
                f"transaction name {spec.name!r} already used"
            )
        if len(spec.ops) > self.config.max_ops:
            return self._schema_reject(
                f"program has {len(spec.ops)} ops, limit is "
                f"{self.config.max_ops}"
            )
        if in_flight >= self.config.window:
            self.rejected_load += 1
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"in-flight window full ({in_flight} >= "
                    f"{self.config.window})"
                ),
                kind="load",
                retry_after=self.config.retry_after,
            )
        self.admitted += 1
        self._sample.append(spec)
        return AdmissionDecision(admitted=True)

    def _schema_reject(self, reason: str) -> AdmissionDecision:
        self.rejected_schema += 1
        return AdmissionDecision(admitted=False, reason=reason, kind="schema")

    # ------------------------------------------------------------------

    def report_rows(
        self, initial_value: int, samples: int = 20, seed: int = 0
    ) -> list[dict]:
        """E2 admission rates by nest depth over recently admitted
        programs — ``repro admission``, served live.

        Compiles the sliding sample into an application database (each
        spec's declared entities at the service's default initial value)
        and measures the fraction of random interleavings that are
        multilevel-atomic / correctable at each truncation depth.
        """
        from repro.model.appdb import ApplicationDatabase
        from repro.workloads.traces import admission_by_depth

        specs = list(self._sample)
        if not specs:
            return []
        programs = [spec.compile() for spec in specs]
        entities = {
            entity: initial_value
            for spec in specs
            for entity in sorted(spec.entities)
        }
        from repro.core.nests import KNest

        nest = KNest.from_paths({spec.name: spec.path for spec in specs})
        db = ApplicationDatabase(programs, entities, nest)
        return [
            {"depth": depth, "atomic": atomic, "correctable": correctable}
            for depth, atomic, correctable in admission_by_depth(
                db, samples=samples, seed=seed
            )
        ]

    def counters(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected_schema": self.rejected_schema,
            "rejected_load": self.rejected_load,
        }
