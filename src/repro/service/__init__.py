"""Service mode: the long-running ingest server and its client.

The batch library runs a fixed program set to completion; this package
turns the same engine into an open system — submissions arrive over a
socket, pass an admission gate, are batched into engine tick slices, and
come back as typed :class:`repro.api.ResultEnvelope` results.  The
committed history of a zero-fault service run is bit-identical to the
library path replaying the same submissions at the recorded arrival
ticks (differential-tested), so every correctness result from the paper
carries over to served traffic unchanged.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AdmissionConfig": "admission",
    "AdmissionController": "admission",
    "AdmissionDecision": "admission",
    "ServiceClient": "client",
    "ServiceConfig": "server",
    "TransactionService": "server",
    "serve": "server",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
