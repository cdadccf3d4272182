"""Consistency checking: operation histories and a linearizability checker.

This package is how the repository *falsifies* (or fails to falsify) the
paper's central claim — that Clock-RSM provides the same strong consistency
as Paxos and Mencius — instead of merely measuring latency:

* :mod:`repro.checker.history` records an operation history (invoke / ok /
  fail events with per-site timing) plus the per-replica apply orders, on
  either experiment backend;
* :mod:`repro.checker.linearizability` decides whether a recorded history
  is linearizable with respect to the key-value model, using a fast
  total-order pre-pass (Clock-RSM commits form a single total order) and a
  key-partitioned Wing–Gong search as the general fallback.

The package deliberately imports nothing from :mod:`repro.experiment`; the
experiment layer depends on the checker, never the reverse.  To run a spec
and check its history in one call, use :func:`repro.experiment.check.check_spec`.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".history": ("HistoryRecorder", "OpHistory", "OpRecord"),
        ".linearizability": ("CheckReport", "CheckerError", "check_history"),
    },
)

__all__ = [
    "CheckReport",
    "CheckerError",
    "HistoryRecorder",
    "OpHistory",
    "OpRecord",
    "check_history",
]
