"""The audit plane: portable histories, online correctability
monitoring, black-box classification and exhaustive interleaving
exploration (DESIGN.md §4i).

A history is built in memory by :class:`HistoryRecorder` (or streamed
by :class:`HistoryWriter`, which keeps one) and read back by
:func:`load_history`, whose two file forms share one validator,
:meth:`History.from_dict`.

The explorer is loaded lazily (PEP 562): it drives the real engine via
:mod:`repro.api`, which itself imports the engine — and the engine
imports this package for its capture seam.  Deferring the explorer
import keeps that seam cycle-free.
"""

from repro.audit.classify import CRITERIA, AuditReport, audit_history
from repro.audit.history import (
    HISTORY_FORMAT_VERSION,
    History,
    HistoryRecorder,
    HistorySink,
    HistoryStep,
    HistoryWriter,
    NULL_HISTORY,
    TeeHistory,
    load_history,
    paths_from_nest,
)
from repro.audit.monitor import OnlineMonitor

__all__ = [
    "AuditReport",
    "CRITERIA",
    "ExplorationReport",
    "HISTORY_FORMAT_VERSION",
    "History",
    "HistoryRecorder",
    "HistorySink",
    "HistoryStep",
    "HistoryWriter",
    "NULL_HISTORY",
    "OnlineMonitor",
    "SMALL_CONFIGS",
    "TeeHistory",
    "audit_history",
    "explore",
    "load_history",
    "make_config",
    "paths_from_nest",
]

_LAZY = {"ExplorationReport", "SMALL_CONFIGS", "explore", "make_config"}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module("repro.audit.explore")
        # Cache the lazy names here; ``explore`` (the function) then
        # shadows the submodule attribute of the same name, which is
        # what ``from repro.audit import explore`` should resolve to.
        for lazy in _LAZY:
            globals()[lazy] = getattr(module, lazy)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
