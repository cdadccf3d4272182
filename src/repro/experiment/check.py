"""Run an experiment spec and check its history for linearizability.

This is the glue between the declarative experiment API and
:mod:`repro.checker`: deploy a spec (with history recording forced on), then
decide whether the recorded history is linearizable under the key-value
model.  The ``repro check`` CLI subcommand and the consistency test-suites
both go through :func:`check_spec`, so a scenario that passes here passes
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..checker.linearizability import CheckReport, check_history
from .deployment import run_spec
from .result import ExperimentResult
from .spec import ExperimentSpec


@dataclass
class CheckedRun:
    """One experiment run together with its consistency verdict."""

    result: ExperimentResult
    report: CheckReport

    @property
    def linearizable(self) -> bool:
        return self.report.linearizable

    def describe(self) -> str:
        return (
            f"{self.result.name} [{self.result.backend}] "
            f"{self.result.protocol}: {self.report.describe()}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {"result": self.result.to_dict(), "check": self.report.to_dict()}


def check_spec(
    spec: ExperimentSpec, backend: str = "sim", **options: Any
) -> CheckedRun:
    """Run *spec* on *backend* with history recording and check the history."""
    recorded = replace(spec, record_history=True)
    result = run_spec(recorded, backend, **options)
    assert result.history is not None  # record_history guarantees it
    return CheckedRun(result=result, report=check_history(result.history))


__all__ = ["CheckedRun", "check_spec"]
