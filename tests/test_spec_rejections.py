"""Every rule the spec module enforces, reached from a malformed spec.

A spec file is the only input an experiment takes, so each of its
validation rules must turn bad input into a
:class:`~repro.errors.ConfigurationError` raised by ``experiment/spec.py``
itself — never a bare ``TypeError``/``KeyError`` from deep inside a
backend.  :data:`CASES` holds one malformed input per
``raise ConfigurationError`` statement in that module, and
:func:`test_every_rule_has_a_case` reads the module's syntax tree so that
a rule added without a case, or a case that stops reaching its rule,
fails here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.errors import ConfigurationError
from repro.experiment import ClockSpec, ExperimentSpec
from repro.experiment import spec as spec_module
from repro.protocols.registry import CAPABILITIES

SPEC_FILE = Path(spec_module.__file__).resolve()

BASE: dict[str, Any] = {
    "name": "rejections",
    "protocol": "clock-rsm",
    "sites": ["CA", "VA", "IR"],
}


def table(**extra: Any) -> Callable[[Path, pytest.MonkeyPatch], Any]:
    """A case that loads ``BASE`` updated by *extra* as a spec table."""
    return lambda _tmp, _patch: ExperimentSpec.from_dict({**BASE, **extra})


def without(key: str) -> Callable[[Path, pytest.MonkeyPatch], Any]:
    data = {name: value for name, value in BASE.items() if name != key}
    return lambda _tmp, _patch: ExperimentSpec.from_dict(data)


def spec_file(name: str, text: str) -> Callable[[Path, pytest.MonkeyPatch], Any]:
    def load(tmp: Path, _patch: pytest.MonkeyPatch) -> Any:
        path = tmp / name
        path.write_text(text)
        return ExperimentSpec.from_file(path)

    return load


def fault(**fields: Any) -> Callable[[Path, pytest.MonkeyPatch], Any]:
    return table(faults=[{"kind": "crash", "at_s": 1.0, "site": "CA", **fields}])


def workload(**fields: Any) -> Callable[[Path, pytest.MonkeyPatch], Any]:
    return table(workload=fields)


def missing_file(tmp: Path, _patch: pytest.MonkeyPatch) -> Any:
    return ExperimentSpec.from_file(tmp / "absent.toml")


def duplicate_clocks(_tmp: Path, _patch: pytest.MonkeyPatch) -> Any:
    # A table cannot name a site twice, so only the constructor reaches this.
    skewed = ClockSpec(kind="skewed", offset_ms=1.0)
    return ExperimentSpec(
        name="rejections",
        protocol="clock-rsm",
        sites=("CA", "VA", "IR"),
        clocks=(("VA", skewed), ("VA", skewed)),
    )


def unbatched_protocol(_tmp: Path, patch: pytest.MonkeyPatch) -> Any:
    # Every shipped protocol batches; the rule guards the next one that won't.
    patch.setitem(CAPABILITIES, "paxos", replace(CAPABILITIES["paxos"], batching=False))
    return ExperimentSpec.from_dict({**BASE, "protocol": "paxos", "batching": {"max_batch": 4}})


#: ``(id, input, fragment of the expected message)``, in source order.
CASES: list[tuple[str, Callable[[Path, pytest.MonkeyPatch], Any], str]] = [
    # [clocks.<site>]
    ("clock-kind", table(clocks={"VA": {"kind": "atomic"}}), "unknown clock kind 'atomic'"),
    ("clock-perfect-offset", table(clocks={"VA": {"offset_ms": 5.0}}), "a perfect clock cannot"),
    (
        "clock-skewed-drift",
        table(clocks={"VA": {"kind": "skewed", "offset_ms": 1.0, "drift_ppm": 50.0}}),
        "a skewed clock has no drift",
    ),
    # [workload]
    ("workload-scenario", workload(scenario="zipfian"), "unknown workload scenario 'zipfian'"),
    ("workload-app", workload(app="sql"), "unknown app 'sql'"),
    ("workload-clients", workload(clients_per_site=0), "clients_per_site must be positive"),
    (
        "workload-outstanding",
        workload(outstanding_per_site=0),
        "outstanding_per_site must be positive",
    ),
    ("workload-payload", workload(payload_size=-1), "payload_size must be non-negative"),
    (
        "workload-think-min",
        workload(think_time_min_ms=-1.0),
        "think_time_min_ms must be non-negative",
    ),
    (
        "workload-think-order",
        workload(think_time_min_ms=50.0, think_time_max_ms=10.0),
        "think_time_max_ms must be >= think_time_min_ms",
    ),
    ("workload-no-origin", workload(scenario="imbalanced"), "needs an origin_site"),
    ("workload-stray-origin", workload(origin_site="CA"), "origin_site only applies"),
    # [[faults]]
    ("fault-kind", fault(kind="meteor"), "unknown fault kind 'meteor'"),
    ("fault-at", fault(at_s=-1.0), "fault at_s must be non-negative"),
    ("fault-partition-peer", fault(kind="partition"), "a partition fault needs a peer"),
    ("fault-stray-peer", fault(peer="VA"), "peer only applies to partitions"),
    ("fault-stray-heal", fault(heal_at_s=2.0), "heal_at_s only applies"),
    (
        "fault-heal-order",
        fault(kind="isolate", at_s=2.0, heal_at_s=1.0),
        "heal_at_s must be after at_s",
    ),
    ("fault-stray-rejoin", fault(rejoin=True), "rejoin only applies to recover"),
    ("fault-jump-offset", fault(kind="clock-jump"), "needs a non-zero offset_ms"),
    ("fault-stray-offset", fault(offset_ms=5.0), "offset_ms only applies to clock-jump"),
    # [processes]
    ("processes-host", table(processes={"host": ""}), "processes.host must be non-empty"),
    (
        "processes-startup",
        table(processes={"startup_timeout_s": 0}),
        "startup_timeout_s must be positive",
    ),
    (
        "processes-grace",
        table(processes={"shutdown_grace_s": -1.0}),
        "shutdown_grace_s must be positive",
    ),
    # top-level fields
    ("name", table(name=""), "needs a non-empty name"),
    ("sites-empty", table(sites=[]), "needs at least one site"),
    ("sites-duplicate", table(sites=["CA", "VA", "CA"]), "duplicate sites"),
    ("duration", table(duration_s=0), "duration_s must be positive"),
    ("warmup", table(warmup_s=-0.5), "warmup_s must be non-negative"),
    ("jitter", table(jitter_fraction=1.5), "jitter_fraction must be within [0, 1]"),
    ("clocktime", table(clocktime_interval_ms=0), "clocktime_interval_ms must be positive"),
    ("latency-model", table(latency="starlink"), "unknown latency model 'starlink'"),
    (
        "latency-uniform-delay",
        table(latency="uniform", one_way_ms=-1.0),
        "one_way_ms must be non-negative",
    ),
    ("latency-ec2-sites", table(sites=["CA", "VA", "MOON"]), "['MOON'] are not EC2 sites"),
    # protocol capabilities
    ("batching-unsupported", unbatched_protocol, "does not support command batching"),
    ("leader-undeployed", table(protocol="paxos", leader_site="JP"), "leader site 'JP'"),
    ("leader-leaderless", table(leader_site="CA"), "is leaderless; remove leader_site"),
    (
        "rejoin-unsupported",
        table(
            protocol="mencius",
            faults=[{"kind": "recover", "at_s": 1.0, "site": "CA", "rejoin": True}],
        ),
        "does not support reconfiguration",
    ),
    # cross-references to the site list
    (
        "clock-site",
        table(clocks={"SG": {"kind": "skewed", "offset_ms": 1.0}}),
        "clock for unknown site 'SG'",
    ),
    ("clock-duplicate", duplicate_clocks, "duplicate clock entries"),
    (
        "workload-origin-site",
        workload(scenario="imbalanced", origin_site="SG"),
        "workload origin 'SG' is not among",
    ),
    ("fault-site", fault(site="SG"), "fault names unknown site 'SG'"),
    (
        "fault-peer-site",
        fault(kind="partition", peer="SG"),
        "fault names unknown peer 'SG'",
    ),
    ("cdf-sites", table(cdf_sites=["SG"]), "cdf_sites ['SG'] are not deployed"),
    # ExperimentSpec.from_dict
    ("unknown-key", table(scheduler="fifo"), "unknown experiment spec keys: ['scheduler']"),
    ("required-key", without("protocol"), "needs a 'protocol' key"),
    ("value-type", table(duration_s="2"), "invalid experiment spec value"),
    # ExperimentSpec.from_file
    ("file-missing", missing_file, "absent.toml does not exist"),
    ("file-toml", spec_file("broken.toml", "sites = [\n"), "invalid TOML in"),
    ("file-json", spec_file("broken.json", "{"), "invalid JSON in"),
    ("file-extension", spec_file("spec.yaml", "{}"), "unsupported spec file extension '.yaml'"),
    # the table codec
    ("faults-shape", table(faults="crash"), "faults must be a list of tables"),
    ("clocks-shape", table(clocks=["VA"]), "clocks must map site name to a table"),
    ("workload-shape", table(workload=3), "workload must be a table/mapping, got int"),
    ("workload-key", workload(clients=3), "unknown keys in workload: ['clients']"),
    (
        "fault-entry-type",
        table(faults=[{"kind": "crash", "at_s": "soon", "site": "CA"}]),
        "invalid value in faults[0]",
    ),
]


def _raise_line(error: BaseException) -> tuple[Path, int]:
    """Where *error* was raised: the innermost frame of its traceback."""
    tb = error.__traceback__
    assert tb is not None
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).resolve(), tb.tb_lineno


def _rejection(case, tmp_path, monkeypatch) -> ConfigurationError:
    with pytest.raises(ConfigurationError) as caught:
        case(tmp_path, monkeypatch)
    return caught.value


@pytest.mark.parametrize(
    "case, fragment", [(case, fragment) for _id, case, fragment in CASES],
    ids=[case_id for case_id, _case, _fragment in CASES],
)
def test_malformed_spec_is_rejected_by_the_spec_module(case, fragment, tmp_path, monkeypatch):
    error = _rejection(case, tmp_path, monkeypatch)
    assert re.search(re.escape(fragment), str(error)), str(error)
    where, _line = _raise_line(error)
    assert where == SPEC_FILE, f"raised in {where}, not by the spec module"


def test_every_rule_has_a_case(tmp_path, monkeypatch):
    rules = {
        node.lineno
        for node in ast.walk(ast.parse(SPEC_FILE.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ConfigurationError"
    }
    reached: dict[int, list[str]] = {}
    for case_id, case, _fragment in CASES:
        with monkeypatch.context() as patch:
            _where, line = _raise_line(_rejection(case, tmp_path, patch))
        reached.setdefault(line, []).append(case_id)
    assert sorted(rules - set(reached)) == [], "rules no case reaches"
    shared = {line: ids for line, ids in reached.items() if len(ids) > 1}
    assert shared == {}, "cases that reach the same rule"
    assert len(CASES) == len(rules)
