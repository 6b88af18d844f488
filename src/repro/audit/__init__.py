"""The audit plane: portable histories, online correctability
monitoring, black-box classification and exhaustive interleaving
exploration (DESIGN.md §4i).

A history is built in memory by :class:`HistoryRecorder` (or streamed
by :class:`HistoryWriter`, which keeps one) and read back by
:func:`load_history`, whose two file forms share one validator,
:meth:`History.from_dict`.

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
    "HistoryRecorder": "history",
    "HistorySink": "history",
    "HistoryStep": "history",
    "HistoryWriter": "history",
    "NULL_HISTORY": "history",
    "OnlineMonitor": "monitor",
    "SMALL_CONFIGS": "explore",
    "TeeHistory": "history",
    "audit_history": "classify",
    "explore": "explore",
    "load_history": "history",
    "make_config": "explore",
    "paths_from_nest": "history",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
