"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single, serializable description of one
deployment of the replicated state machine: which protocol, which sites (and
the latency matrix between them), each site's clock model, the client
workload, an optional fault schedule, and the run durations.  The same spec
runs unchanged on the discrete-event simulator and on the asyncio runtime
(see :mod:`repro.experiment.deployment`), and round-trips through plain
dictionaries, JSON, and TOML files — every new scenario is a data file, not a
new code path.

Validation happens eagerly at construction time, using the protocol
capability metadata from :mod:`repro.protocols.registry`: a leaderless
protocol with a ``leader_site``, an imbalanced workload without an
``origin_site``, or a fault schedule naming an unknown site are all rejected
before anything is deployed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from ..analysis.ec2 import EC2_SITES, ec2_latency_matrix
from ..config import BatchingOptions, ClusterSpec, ProtocolConfig
from ..errors import ConfigurationError
from ..net.latency import LatencyMatrix
from ..protocols.registry import protocol_capabilities
from ..types import Micros, ReplicaId, ms_to_micros

#: Workload scenarios understood by the backends (see
#: :meth:`WorkloadSpec.population`).
SCENARIOS: tuple[str, ...] = ("balanced", "imbalanced", "saturating")

#: State-machine applications selectable per spec.
APPS: tuple[str, ...] = ("kv", "append-log", "null")

#: Clock model kinds selectable per site.
CLOCK_KINDS: tuple[str, ...] = ("perfect", "skewed", "drifting")

#: Fault event kinds understood by both experiment backends.
FAULT_KINDS: tuple[str, ...] = ("crash", "recover", "partition", "isolate", "clock-jump")


@dataclass(frozen=True, slots=True)
class ClockSpec:
    """Clock model of one site (perfect unless configured otherwise)."""

    kind: str = "perfect"
    offset_ms: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CLOCK_KINDS:
            raise ConfigurationError(
                f"unknown clock kind {self.kind!r}; one of {CLOCK_KINDS}"
            )
        if self.kind == "perfect" and (self.offset_ms or self.drift_ppm):
            raise ConfigurationError(
                "a perfect clock cannot have an offset or drift; "
                "use kind='skewed' or kind='drifting'"
            )
        if self.kind == "skewed" and self.drift_ppm:
            raise ConfigurationError("a skewed clock has no drift; use kind='drifting'")


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """The client workload attached to the deployment.

    ``scenario`` selects the paper's client models: ``balanced`` (closed-loop
    clients at every site, Figures 1-4), ``imbalanced`` (clients only at
    ``origin_site``, Figures 5-6), or ``saturating`` (window-based clients
    keeping every site saturated, Figure 8).  ``app`` selects the replicated
    application: the key-value store (``kv``, clients issue random updates),
    an append-only log over opaque payloads (``append-log``), or a no-op
    state machine (``null``, for pure protocol-throughput runs).
    """

    scenario: str = "balanced"
    clients_per_site: int = 12
    payload_size: int = 64
    think_time_min_ms: float = 0.0
    think_time_max_ms: float = 80.0
    origin_site: Optional[str] = None
    outstanding_per_site: int = 64
    app: str = "kv"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown workload scenario {self.scenario!r}; one of {SCENARIOS}"
            )
        if self.app not in APPS:
            raise ConfigurationError(f"unknown app {self.app!r}; one of {APPS}")
        if self.clients_per_site <= 0:
            raise ConfigurationError("clients_per_site must be positive")
        if self.outstanding_per_site <= 0:
            raise ConfigurationError("outstanding_per_site must be positive")
        if self.payload_size < 0:
            raise ConfigurationError("payload_size must be non-negative")
        if self.think_time_min_ms < 0:
            raise ConfigurationError("think_time_min_ms must be non-negative")
        if self.think_time_max_ms < self.think_time_min_ms:
            raise ConfigurationError("think_time_max_ms must be >= think_time_min_ms")
        if self.scenario == "imbalanced" and self.origin_site is None:
            raise ConfigurationError("an imbalanced workload needs an origin_site")
        if self.scenario != "imbalanced" and self.origin_site is not None:
            raise ConfigurationError(
                f"origin_site only applies to the imbalanced scenario, "
                f"not {self.scenario!r}"
            )

    def population(self, site: str) -> Optional[tuple[int, bool]]:
        """The clients *site* hosts as ``(count, think)``, or ``None`` for none.

        The one place a scenario's meaning lives: every backend's client
        engine asks this instead of branching on the scenario name.  Clients
        that ``think`` pause for a random think time before each command;
        the saturating scenario's never do.
        """
        if self.scenario == "imbalanced" and site != self.origin_site:
            return None
        if self.scenario == "saturating":
            return self.outstanding_per_site, False
        return self.clients_per_site, True


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scripted fault event (both backends understand every kind).

    ``clock-jump`` steps one site's physical clock by ``offset_ms`` (positive
    or negative) at ``at_s``; only protocols with the needs-clocks capability
    react to it, which is exactly what consistency checks want to probe.
    """

    kind: str
    at_s: float
    site: str
    peer: Optional[str] = None
    heal_at_s: Optional[float] = None
    rejoin: bool = False
    offset_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be non-negative")
        if self.kind == "partition" and self.peer is None:
            raise ConfigurationError("a partition fault needs a peer site")
        if self.kind != "partition" and self.peer is not None:
            raise ConfigurationError(f"peer only applies to partitions, not {self.kind!r}")
        if self.heal_at_s is not None and self.kind not in ("partition", "isolate"):
            raise ConfigurationError("heal_at_s only applies to partition/isolate faults")
        if self.heal_at_s is not None and self.heal_at_s <= self.at_s:
            raise ConfigurationError("heal_at_s must be after at_s")
        if self.rejoin and self.kind != "recover":
            raise ConfigurationError("rejoin only applies to recover faults")
        if self.kind == "clock-jump" and not self.offset_ms:
            raise ConfigurationError("a clock-jump fault needs a non-zero offset_ms")
        if self.kind != "clock-jump" and self.offset_ms:
            raise ConfigurationError(
                f"offset_ms only applies to clock-jump faults, not {self.kind!r}"
            )


@dataclass(frozen=True, slots=True)
class BatchingSpec:
    """The ``[batching]`` table: real command batching and pipelining.

    Both backends implement these semantics identically:

    * ``max_batch`` — most client commands agreed on as one
      :class:`~repro.protocols.records.CommandBatch` (one protocol round,
      one wire message per batch).  ``1`` disables batching.
    * ``window_us`` — opportunistic accumulation window.  ``0`` (the
      default) batches whatever is already queued and never waits; a
      positive window trades commit latency for larger batches.
    * ``pipeline_depth`` — commands each workload client keeps in flight
      without awaiting the previous commit (message pipelining; asyncio
      backend — the simulator's window/saturating clients already model
      outstanding windows explicitly).

    Consistency results are unchanged: the checker, the stable log, and the
    per-replica execution orders all see the constituent commands
    individually.
    """

    max_batch: int = 1
    window_us: int = 0
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        self.options()  # eager validation with the runtime's own rules

    def options(self) -> BatchingOptions:
        """The runtime-layer options object both backends consume."""
        return BatchingOptions(
            max_batch=self.max_batch,
            window_us=self.window_us,
            pipeline_depth=self.pipeline_depth,
        )


@dataclass(frozen=True, slots=True)
class CpuSpec:
    """Optional CPU/batching cost model (throughput experiments)."""

    recv_fixed: float = 6.0
    recv_per_byte: float = 0.006
    send_fixed: float = 6.0
    send_per_byte: float = 0.006
    client_fixed: float = 2.0


@dataclass(frozen=True, slots=True)
class ProcessesSpec:
    """The ``[processes]`` table: multi-process deployment parameters.

    Consumed by the ``proc`` backend (:mod:`repro.launch`), which runs every
    replica as its own OS process over real TCP.  Inert on the sim and async
    backends, so one spec file moves freely between all three.

    * ``host`` — the interface replicas bind and the supervisor listens on.
      Processes are always co-located on one machine in this repo, so the
      loopback default is right unless a firewall policy says otherwise.
    * ``startup_timeout_s`` — how long the supervisor waits for each phase of
      a worker's handshake (spawn → hello → bound → running) before declaring
      the deployment failed and tearing everything down.
    * ``shutdown_grace_s`` — how long a worker gets to drain and exit after
      the supervisor asks (then SIGTERM, then after another grace SIGKILL —
      teardown always terminates).
    """

    host: str = "127.0.0.1"
    startup_timeout_s: float = 20.0
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("processes.host must be non-empty")
        if self.startup_timeout_s <= 0:
            raise ConfigurationError("processes.startup_timeout_s must be positive")
        if self.shutdown_grace_s <= 0:
            raise ConfigurationError("processes.shutdown_grace_s must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, declarative description of one experiment run.

    The total simulated (or scaled wall-clock) run time is ``warmup_s +
    duration_s``; measurements taken during the warmup are discarded.
    """

    name: str
    protocol: str
    sites: tuple[str, ...]
    leader_site: Optional[str] = None
    latency: str = "ec2"
    one_way_ms: float = 0.05
    jitter_fraction: float = 0.02
    clocks: tuple[tuple[str, ClockSpec], ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: tuple[FaultSpec, ...] = ()
    cpu: Optional[CpuSpec] = None
    duration_s: float = 8.0
    warmup_s: float = 2.0
    seed: int = 42
    clocktime_interval_ms: float = 5.0
    wait_for_clock: bool = True
    cdf_sites: tuple[str, ...] = ()
    #: Record an operation history (invoke/ok/fail events plus per-replica
    #: apply orders) into the result, for :mod:`repro.checker`.
    record_history: bool = False
    #: Real command batching / pipelining on both backends; ``None`` (or
    #: ``max_batch = 1``) runs one protocol round per command.
    batching: Optional[BatchingSpec] = None
    #: Multi-process deployment parameters for the ``proc`` backend
    #: (:mod:`repro.launch`); ``None`` means its defaults.  Inert on the
    #: sim and async backends.
    processes: Optional[ProcessesSpec] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an experiment needs a non-empty name")
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "cdf_sites", tuple(self.cdf_sites))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(
            self,
            "clocks",
            tuple((site, clock) for site, clock in self.clocks),
        )
        if len(self.sites) == 0:
            raise ConfigurationError("an experiment needs at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ConfigurationError(f"duplicate sites: {list(self.sites)}")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.warmup_s < 0:
            raise ConfigurationError("warmup_s must be non-negative")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be within [0, 1]")
        if self.clocktime_interval_ms <= 0:
            raise ConfigurationError("clocktime_interval_ms must be positive")
        if self.latency not in ("ec2", "uniform"):
            raise ConfigurationError(
                f"unknown latency model {self.latency!r}; 'ec2' or 'uniform'"
            )
        if self.latency == "uniform" and self.one_way_ms < 0:
            raise ConfigurationError("one_way_ms must be non-negative")
        if self.latency == "ec2":
            unknown = [s for s in self.sites if s not in EC2_SITES]
            if unknown:
                raise ConfigurationError(
                    f"sites {unknown} are not EC2 sites {list(EC2_SITES)}; "
                    "use latency='uniform' for custom site names"
                )

        # Capability-driven protocol checks (raises on unknown protocols).
        caps = protocol_capabilities(self.protocol)
        if (
            self.batching is not None
            and self.batching.max_batch > 1
            and not caps.batching
        ):
            raise ConfigurationError(
                f"protocol {self.protocol!r} does not support command batching; "
                "remove the [batching] table or set max_batch = 1"
            )
        if caps.leader_based:
            if self.leader_site is not None and self.leader_site not in self.sites:
                raise ConfigurationError(
                    f"leader site {self.leader_site!r} is not among {list(self.sites)}"
                )
        elif self.leader_site is not None:
            raise ConfigurationError(
                f"protocol {self.protocol!r} is leaderless; remove leader_site"
            )
        if not caps.supports_reconfiguration and any(
            fault.rejoin for fault in self.faults
        ):
            raise ConfigurationError(
                f"protocol {self.protocol!r} does not support reconfiguration; "
                "recover faults cannot use rejoin=true"
            )

        # Cross-references between sections and the site list.
        for site, _clock in self.clocks:
            if site not in self.sites:
                raise ConfigurationError(f"clock for unknown site {site!r}")
        if len({site for site, _ in self.clocks}) != len(self.clocks):
            raise ConfigurationError("duplicate clock entries for a site")
        if (
            self.workload.origin_site is not None
            and self.workload.origin_site not in self.sites
        ):
            raise ConfigurationError(
                f"workload origin {self.workload.origin_site!r} is not among "
                f"{list(self.sites)}"
            )
        for fault in self.faults:
            if fault.site not in self.sites:
                raise ConfigurationError(f"fault names unknown site {fault.site!r}")
            if fault.peer is not None and fault.peer not in self.sites:
                raise ConfigurationError(f"fault names unknown peer {fault.peer!r}")
        unknown_cdf = [s for s in self.cdf_sites if s not in self.sites]
        if unknown_cdf:
            raise ConfigurationError(f"cdf_sites {unknown_cdf} are not deployed sites")

    # ------------------------------------------------------------------
    # Derived deployment objects
    # ------------------------------------------------------------------

    @property
    def total_runtime_micros(self) -> Micros:
        return int((self.warmup_s + self.duration_s) * 1_000_000)

    @property
    def warmup_micros(self) -> Micros:
        return int(self.warmup_s * 1_000_000)

    def effective_leader_site(self) -> Optional[str]:
        """The leader site, defaulting to the first site for leader-based
        protocols; ``None`` for leaderless ones."""
        if not protocol_capabilities(self.protocol).leader_based:
            return None
        return self.leader_site or self.sites[0]

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec.from_sites(list(self.sites))

    def latency_matrix(self) -> LatencyMatrix:
        if self.latency == "ec2":
            return ec2_latency_matrix(self.sites)
        return LatencyMatrix.uniform(self.sites, one_way=ms_to_micros(self.one_way_ms))

    def protocol_config(self) -> ProtocolConfig:
        spec = self.cluster_spec()
        leader_site = self.effective_leader_site()
        leader = spec.by_site(leader_site).replica_id if leader_site else 0
        return ProtocolConfig(
            leader=leader,
            clocktime_interval=ms_to_micros(self.clocktime_interval_ms),
            wait_for_clock=self.wait_for_clock,
        )

    def clock_offsets(self) -> dict[ReplicaId, Micros]:
        spec = self.cluster_spec()
        return {
            spec.by_site(site).replica_id: ms_to_micros(clock.offset_ms)
            for site, clock in self.clocks
            if clock.offset_ms
        }

    def clock_drift_ppm(self) -> dict[ReplicaId, float]:
        spec = self.cluster_spec()
        return {
            spec.by_site(site).replica_id: clock.drift_ppm
            for site, clock in self.clocks
            if clock.drift_ppm
        }

    def with_protocol(self, protocol: str) -> "ExperimentSpec":
        """A copy of this spec for a different protocol (comparison runs).

        The leader site is dropped when the target protocol is leaderless and
        defaulted when one is required, so one base spec can sweep all five
        protocols.
        """
        caps = protocol_capabilities(protocol)
        leader = (self.leader_site or self.sites[0]) if caps.leader_based else None
        return replace(self, protocol=protocol, leader_site=leader)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON/TOML-compatible dictionary representation."""
        return _table(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain dictionary (inverse of :meth:`to_dict`)."""
        unknown = sorted(set(data) - set(_shapes(cls)))
        if unknown:
            raise ConfigurationError(f"unknown experiment spec keys: {unknown}")
        for required in ("name", "protocol", "sites"):
            if required not in data:
                raise ConfigurationError(f"experiment spec needs a {required!r} key")
        try:
            return cls(**_values(cls, data, ""))
        except TypeError as exc:
            # e.g. duration_s = "2" in a TOML file: the key is known but the
            # value's type breaks validation arithmetic.
            raise ConfigurationError(f"invalid experiment spec value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"spec file {path} does not exist")
        text = path.read_text()
        if path.suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
        elif path.suffix == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
        else:
            raise ConfigurationError(
                f"unsupported spec file extension {path.suffix!r}; use .toml or .json"
            )
        # A file may omit `name`; it then defaults to the file's stem.
        data.setdefault("name", path.stem)
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# The spec-table codec: one walk over the spec dataclasses
# ----------------------------------------------------------------------


@cache
def _shapes(cls: type) -> dict[str, tuple[Optional[str], Any]]:
    """Each field of a spec dataclass as ``(shape, nested class)``.

    ``"table"``: a nested (possibly optional) spec dataclass ↔ a table;
    ``"list"``: ``tuple[X, ...]`` of one ↔ a list of tables; ``"sites"``:
    the ``(site, X)`` pairs of ``clocks`` ↔ a table keyed by site name;
    ``None``: a plain value (tuples of plain values ↔ lists).
    """
    shapes: dict[str, tuple[Optional[str], Any]] = {}
    for name, hint in get_type_hints(cls).items():
        if get_origin(hint) is Union:  # Optional[X]
            hint = get_args(hint)[0]
        item = get_args(hint)[0] if get_origin(hint) is tuple else None
        if is_dataclass(hint):
            shapes[name] = ("table", hint)
        elif is_dataclass(item):
            shapes[name] = ("list", item)
        elif get_origin(item) is tuple:
            shapes[name] = ("sites", get_args(item)[1])
        else:
            shapes[name] = (None, None)
    return shapes


def _table(spec: Any) -> dict[str, Any]:
    """One spec dataclass as a table; ``None`` values are omitted (TOML has
    no null)."""
    table: dict[str, Any] = {}
    for name, (shape, _cls) in _shapes(type(spec)).items():
        value = getattr(spec, name)
        if value is None:
            continue
        if shape == "table":
            value = _table(value)
        elif shape == "list":
            value = [_table(entry) for entry in value]
        elif shape == "sites":
            value = {site: _table(entry) for site, entry in value}
        elif isinstance(value, tuple):
            value = list(value)
        table[name] = value
    return table


def _values(cls: type, data: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """The constructor arguments of *cls* from a table (keys already checked)."""
    shapes = _shapes(cls)
    values: dict[str, Any] = {}
    for key, value in data.items():
        shape, nested = shapes[key]
        where = prefix + key
        if shape == "table":
            value = _build(nested, value, where)
        elif shape == "list":
            if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
                raise ConfigurationError(f"{where} must be a list of tables")
            value = tuple(
                _build(nested, entry, f"{where}[{index}]")
                for index, entry in enumerate(value)
            )
        elif shape == "sites":
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"{where} must map site name to a table")
            value = tuple(
                (site, _build(nested, entry, f"{where}.{site}"))
                for site, entry in value.items()
            )
        values[key] = value
    return values


def _build(cls: type, data: Any, where: str) -> Any:
    """Instantiate a nested spec dataclass from a mapping with key checking."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{where} must be a table/mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_shapes(cls)))
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {unknown}")
    try:
        return cls(**_values(cls, data, where + "."))
    except TypeError as exc:
        raise ConfigurationError(f"invalid value in {where}: {exc}") from exc


__all__ = [
    "SCENARIOS",
    "APPS",
    "CLOCK_KINDS",
    "FAULT_KINDS",
    "ClockSpec",
    "WorkloadSpec",
    "FaultSpec",
    "BatchingSpec",
    "CpuSpec",
    "ProcessesSpec",
    "ExperimentSpec",
]
