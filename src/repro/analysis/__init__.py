"""Offline checkers, graph exports and statistics for experiments."""

from repro import _lazy_exports

_EXPORTS = {
    "ScheduleReport": "checker",
    "serialization_graph": "checker",
    "is_conflict_serializable": "checker",
    "classify_execution": "checker",
    "to_dot": "graphs",
    "dependency_dot": "graphs",
    "condensed_transaction_order": "graphs",
    "ascii_schedule": "graphs",
    "mean": "stats",
    "stddev": "stats",
    "confidence_half_width": "stats",
    "Summary": "stats",
    "summarize": "stats",
    "format_table": "stats",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
