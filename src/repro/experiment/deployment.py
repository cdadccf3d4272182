"""Backend-agnostic deployment runner for experiment specs.

:class:`Deployment` is the single entry point that turns a declarative
:class:`~repro.experiment.spec.ExperimentSpec` into an
:class:`~repro.experiment.result.ExperimentResult`::

    spec = ExperimentSpec.from_file("examples/specs/fig1_balanced_5.toml")
    result = Deployment(spec).run()                      # simulator
    result = Deployment(spec, backend="async", time_scale=20).run()  # asyncio

Backends are looked up by name in :data:`BACKENDS`; all three ship with the
library (``sim`` — the deterministic discrete-event simulator, ``async`` —
live asyncio services in this process, ``proc`` — one OS process per replica
over real TCP, see :mod:`repro.launch`) and all return the same result
shape.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from .result import ExperimentResult
from .spec import ExperimentSpec

# Each backend is imported when a deployment first asks for it: a simulator
# run never loads the asyncio runtime, a live run never loads the simulator,
# and repro.launch builds on this package, so importing it at the top of
# this module would be circular.


def _sim_backend(**options: Any) -> Any:
    from .sim_backend import SimBackend

    return SimBackend(**options)


def _async_backend(**options: Any) -> Any:
    from .async_backend import AsyncBackend

    return AsyncBackend(**options)


def _process_backend(**options: Any) -> Any:
    from ..launch.backend import ProcessBackend

    return ProcessBackend(**options)


#: Backend name -> factory; factories accept backend-specific options.
BACKENDS: dict[str, Callable[..., Any]] = {
    "sim": _sim_backend,
    "async": _async_backend,
    "proc": _process_backend,
}


class Deployment:
    """One experiment spec bound to a backend, ready to run."""

    def __init__(self, spec: ExperimentSpec, backend: str = "sim", **options: Any) -> None:
        factory = BACKENDS.get(backend)
        if factory is None:
            raise ConfigurationError(
                f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
            )
        try:
            self.backend = factory(**options)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid options for the {backend!r} backend: {exc}"
            ) from exc
        self.spec = spec

    def run(self) -> ExperimentResult:
        """Deploy, run the workload (and faults), and summarize the run."""
        return self.backend.run(self.spec)


def run_spec(
    spec: ExperimentSpec, backend: str = "sim", **options: Any
) -> ExperimentResult:
    """Convenience: ``Deployment(spec, backend, **options).run()``."""
    return Deployment(spec, backend, **options).run()


def run_comparison(
    spec: ExperimentSpec, protocols: Sequence[str]
) -> dict[str, ExperimentResult]:
    """Run the same experiment once per protocol on ``sim`` (the paper's figures)."""
    return {protocol: run_spec(spec.with_protocol(protocol)) for protocol in protocols}


__all__ = ["BACKENDS", "Deployment", "run_spec", "run_comparison"]
