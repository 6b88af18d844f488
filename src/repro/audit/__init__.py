"""The audit plane: portable histories, online correctability
monitoring, black-box classification and exhaustive interleaving
exploration (DESIGN.md §4i).

A history is exported from an engine's committed log, the one copy of
each commit: :class:`HistoryExport` writes the JSONL file when it is
closed, at the end of a run or at shutdown, and :func:`export_history`
builds the same history in memory.  :func:`load_history` reads either
file form back through one validator, :meth:`History.from_dict`.

Every name is loaded on first read (PEP 562, DESIGN.md §3).  The
engine and the service import :mod:`repro.audit.history` for their
capture seam, which must load neither the classifier nor the explorer:
the explorer drives the real engine via :mod:`repro.api`, so loading it
from the seam would be a cycle.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AuditReport": "classify",
    "CRITERIA": "classify",
    "ExplorationReport": "explore",
    "HISTORY_FORMAT_VERSION": "history",
    "History": "history",
    "HistoryExport": "history",
    "HistorySink": "history",
    "HistoryStep": "history",
    "NULL_HISTORY": "history",
    "OnlineMonitor": "monitor",
    "SMALL_CONFIGS": "explore",
    "audit_history": "classify",
    "explore": "explore",
    "export_history": "history",
    "load_history": "history",
    "make_config": "explore",
    "paths_from_nest": "history",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
