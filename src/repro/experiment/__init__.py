"""Declarative experiments: one spec, any backend.

This package is the single entry point for running Clock-RSM experiments:

* :class:`ExperimentSpec` — a frozen, serializable description of a
  deployment (protocol, sites + latency, clock models, workload, faults,
  durations) with ``from_dict``/``to_dict`` and TOML/JSON file loading;
* :class:`Deployment` — binds a spec to a backend (``sim``, ``async`` or
  ``proc``) and runs it;
* :class:`ExperimentResult` — the uniform result shape every backend returns.

Example::

    from repro.experiment import Deployment, ExperimentSpec

    spec = ExperimentSpec.from_file("examples/specs/fig1_balanced_5.toml")
    result = Deployment(spec).run()
    print(result.mean_ms("CA"))
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".check": ("CheckedRun", "check_spec"),
        ".deployment": ("BACKENDS", "Deployment", "run_comparison", "run_spec"),
        ".result": ("ExperimentResult", "SiteResult"),
        ".spec": (
            "APPS", "CLOCK_KINDS", "FAULT_KINDS", "SCENARIOS", "BatchingSpec",
            "ClockSpec", "CpuSpec", "ExperimentSpec", "FaultSpec", "ProcessesSpec",
            "WorkloadSpec",
        ),
    },
)

__all__ = [
    "APPS",
    "CLOCK_KINDS",
    "FAULT_KINDS",
    "SCENARIOS",
    "BACKENDS",
    "BatchingSpec",
    "CheckedRun",
    "ClockSpec",
    "CpuSpec",
    "Deployment",
    "check_spec",
    "ExperimentResult",
    "ExperimentSpec",
    "FaultSpec",
    "ProcessesSpec",
    "SiteResult",
    "WorkloadSpec",
    "run_comparison",
    "run_spec",
]
