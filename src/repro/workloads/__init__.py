"""The paper's applications and workload generators.

* :mod:`~repro.workloads.banking` — the Big Bucks Bank (Application 1).
* :mod:`~repro.workloads.cad` — Utopian Planning, Inc. (Application 2).
* :mod:`~repro.workloads.paper` — every worked example from the text.
* :mod:`~repro.workloads.generators` — random hierarchical workloads.
* :mod:`~repro.workloads.traces` — admission-rate sampling (E2/E6).
* :mod:`~repro.workloads.traffic` — synthetic client traffic for the
  ingest server (E15).
"""

from repro import _lazy_exports

_EXPORTS = {
    "BankingConfig": "banking",
    "BankingWorkload": "banking",
    "transfer_program": "banking",
    "conditional_transfer_program": "banking",
    "bank_audit_program": "banking",
    "creditor_audit_program": "banking",
    "CADConfig": "cad",
    "CADWorkload": "cad",
    "modification_program": "cad",
    "snapshot_program": "cad",
    "FGLConfig": "fgl_audit",
    "FGLWorkload": "fgl_audit",
    "ledgered_transfer_program": "fgl_audit",
    "fgl_audit_program": "fgl_audit",
    "RandomWorkloadConfig": "generators",
    "random_workload": "generators",
    "random_dependency_pairs": "generators",
    "AdmissionStats": "traces",
    "classify_sample": "traces",
    "admission_by_depth": "traces",
    "TrafficConfig": "traffic",
    "traffic_specs": "traffic",
    "traffic_submissions": "traffic",
    "drive": "traffic",
    "drive_sync": "traffic",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
