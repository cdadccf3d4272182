"""Tests for the declarative experiment specification."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiment import (
    ClockSpec,
    CpuSpec,
    ExperimentSpec,
    FaultSpec,
    ProcessesSpec,
    WorkloadSpec,
)
from repro.protocols.registry import (
    CAPABILITIES,
    PROTOCOLS,
    available_protocols,
    protocol_capabilities,
)


SHIPPED_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs").rglob("*.toml")
)


def full_spec() -> ExperimentSpec:
    """A spec exercising every section."""
    return ExperimentSpec(
        name="everything",
        protocol="clock-rsm",
        sites=("CA", "VA", "IR"),
        latency="ec2",
        jitter_fraction=0.05,
        clocks=(
            ("VA", ClockSpec(kind="skewed", offset_ms=20.0)),
            ("IR", ClockSpec(kind="drifting", offset_ms=-5.0, drift_ppm=100.0)),
        ),
        workload=WorkloadSpec(scenario="imbalanced", origin_site="CA", clients_per_site=3),
        faults=(
            FaultSpec(kind="crash", at_s=1.0, site="IR"),
            FaultSpec(kind="recover", at_s=2.0, site="IR", rejoin=True),
            FaultSpec(kind="partition", at_s=0.5, site="CA", peer="VA", heal_at_s=0.8),
        ),
        cpu=CpuSpec(recv_fixed=10.0),
        duration_s=2.0,
        warmup_s=0.5,
        seed=9,
        cdf_sites=("CA",),
    )


class TestRegistryCapabilities:
    def test_every_protocol_has_capabilities(self):
        assert set(CAPABILITIES) == set(PROTOCOLS)
        assert available_protocols() == tuple(sorted(PROTOCOLS))

    def test_capability_values_match_the_paper(self):
        assert protocol_capabilities("clock-rsm").needs_clocks
        assert not protocol_capabilities("clock-rsm").leader_based
        assert protocol_capabilities("paxos").leader_based
        assert not protocol_capabilities("paxos").broadcast_variant
        assert protocol_capabilities("paxos-bcast").broadcast_variant
        assert not protocol_capabilities("mencius").leader_based
        assert protocol_capabilities("clock-rsm").supports_reconfiguration

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            protocol_capabilities("raft")


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        spec = full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self, tmp_path):
        spec = full_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_file(path) == spec

    def test_toml_file_loading(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text(
            """
            name = "from-toml"
            protocol = "paxos-bcast"
            sites = ["CA", "VA", "IR"]
            leader_site = "VA"
            duration_s = 1.0
            warmup_s = 0.25

            [workload]
            scenario = "balanced"
            clients_per_site = 5

            [clocks.CA]
            kind = "skewed"
            offset_ms = 3.5

            [[faults]]
            kind = "crash"
            at_s = 0.5
            site = "IR"
            """
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "from-toml"
        assert spec.leader_site == "VA"
        assert dict(spec.clocks)["CA"].offset_ms == 3.5
        assert spec.faults[0].kind == "crash"
        # And it survives another full round trip.
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_and_toml_safe(self):
        data = full_spec().to_dict()
        json.dumps(data)  # raises on non-serializable values

        def no_nones(value):
            if isinstance(value, dict):
                for inner in value.values():
                    assert inner is not None
                    no_nones(inner)
            elif isinstance(value, list):
                for inner in value:
                    no_nones(inner)

        no_nones(data)  # TOML has no null

    @pytest.mark.parametrize(
        "path", SHIPPED_SPECS, ids=[path.stem for path in SHIPPED_SPECS]
    )
    def test_shipped_spec_round_trips(self, path, tmp_path):
        spec = ExperimentSpec.from_file(path)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        copy = tmp_path / f"{path.stem}.json"
        copy.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_file(copy) == spec

    def test_missing_file_and_bad_extension(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ExperimentSpec.from_file(tmp_path / "nope.toml")
        bad = tmp_path / "spec.yaml"
        bad.write_text("name: x")
        with pytest.raises(ConfigurationError, match="extension"):
            ExperimentSpec.from_file(bad)

    def test_name_defaults_to_the_file_stem(self, tmp_path):
        path = tmp_path / "my_experiment.toml"
        path.write_text('protocol = "clock-rsm"\nsites = ["CA", "VA", "IR"]\n')
        assert ExperimentSpec.from_file(path).name == "my_experiment"

    def test_invalid_toml_reported(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = ")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            ExperimentSpec.from_file(path)


class TestProcessesTable:
    def base(self, **overrides) -> ExperimentSpec:
        return ExperimentSpec(
            name="proc-spec",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            duration_s=1.0,
            **overrides,
        )

    def test_round_trips_through_dict_and_toml(self, tmp_path):
        spec = self.base(
            processes=ProcessesSpec(startup_timeout_s=8.0, shutdown_grace_s=2.0)
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        path = tmp_path / "proc.toml"
        path.write_text(
            """
            name = "proc-spec"
            protocol = "clock-rsm"
            sites = ["CA", "VA", "IR"]
            duration_s = 1.0

            [processes]
            startup_timeout_s = 8.0
            shutdown_grace_s = 2.0
            """
        )
        assert ExperimentSpec.from_file(path) == spec

    def test_omitted_table_stays_none_and_out_of_to_dict(self):
        spec = self.base()
        assert spec.processes is None
        assert "processes" not in spec.to_dict()

    def test_defaults(self):
        table = ProcessesSpec()
        assert table.host == "127.0.0.1"
        assert table.startup_timeout_s == 20.0
        assert table.shutdown_grace_s == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="host"):
            ProcessesSpec(host="")
        with pytest.raises(ConfigurationError, match="startup_timeout_s"):
            ProcessesSpec(startup_timeout_s=0)
        with pytest.raises(ConfigurationError, match="shutdown_grace_s"):
            ProcessesSpec(shutdown_grace_s=-1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys in processes"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "protocol": "clock-rsm",
                    "sites": ["CA", "VA", "IR"],
                    "processes": {"workers": 4},
                }
            )


class TestValidation:
    def base(self, **overrides):
        kwargs = dict(name="v", protocol="clock-rsm", sites=("CA", "VA", "IR"))
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            self.base(protocol="raft")

    def test_leaderless_protocol_rejects_leader_site(self):
        with pytest.raises(ConfigurationError, match="leaderless"):
            self.base(leader_site="CA")

    def test_leader_must_be_a_deployed_site(self):
        with pytest.raises(ConfigurationError, match="leader site"):
            self.base(protocol="paxos", leader_site="JP")

    def test_leader_defaults_to_first_site(self):
        spec = self.base(protocol="paxos")
        assert spec.effective_leader_site() == "CA"
        assert self.base().effective_leader_site() is None

    def test_rejoin_needs_reconfiguration_support(self):
        fault = FaultSpec(kind="recover", at_s=1.0, site="CA", rejoin=True)
        with pytest.raises(ConfigurationError, match="reconfiguration"):
            self.base(protocol="paxos", leader_site="CA", faults=(fault,))

    def test_imbalanced_needs_origin(self):
        with pytest.raises(ConfigurationError, match="origin_site"):
            WorkloadSpec(scenario="imbalanced")

    def test_origin_must_be_deployed(self):
        workload = WorkloadSpec(scenario="imbalanced", origin_site="SG")
        with pytest.raises(ConfigurationError, match="origin"):
            self.base(workload=workload)

    def test_origin_rejected_outside_imbalanced(self):
        with pytest.raises(ConfigurationError, match="origin_site only applies"):
            WorkloadSpec(scenario="balanced", origin_site="CA")

    def test_non_ec2_sites_need_uniform_latency(self):
        with pytest.raises(ConfigurationError, match="not EC2 sites"):
            self.base(sites=("dc0", "dc1", "dc2"))
        spec = self.base(sites=("dc0", "dc1", "dc2"), latency="uniform", one_way_ms=0.5)
        assert spec.latency_matrix().delay(0, 1) == 500

    def test_clock_and_fault_sites_must_exist(self):
        with pytest.raises(ConfigurationError, match="unknown site"):
            self.base(clocks=(("SG", ClockSpec(kind="skewed", offset_ms=1.0)),))
        with pytest.raises(ConfigurationError, match="unknown site"):
            self.base(faults=(FaultSpec(kind="crash", at_s=1.0, site="SG"),))

    def test_perfect_clock_rejects_offset(self):
        with pytest.raises(ConfigurationError, match="perfect clock"):
            ClockSpec(offset_ms=5.0)

    def test_partition_needs_peer(self):
        with pytest.raises(ConfigurationError, match="peer"):
            FaultSpec(kind="partition", at_s=1.0, site="CA")

    def test_fault_kind_typo_lists_valid_kinds(self):
        with pytest.raises(ConfigurationError, match="clock-jump"):
            self.base(faults=(FaultSpec(kind="clockjump", at_s=1.0, site="CA"),))

    def test_unknown_scenario_and_app(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            WorkloadSpec(scenario="zipfian")
        with pytest.raises(ConfigurationError, match="app"):
            WorkloadSpec(app="sql")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment spec keys"):
            ExperimentSpec.from_dict(
                {"name": "x", "protocol": "paxos", "sites": ["CA"], "sched": 1}
            )

    @pytest.mark.parametrize(
        "key, table",
        [("runtime", {"uvloop": True}), ("sharding", {"shards": 2})],
        ids=["runtime", "sharding"],
    )
    def test_retired_table_is_an_unknown_key(self, key, table):
        with pytest.raises(
            ConfigurationError, match=re.escape(f"unknown experiment spec keys: ['{key}']")
        ):
            ExperimentSpec.from_dict(
                {"name": "x", "protocol": "clock-rsm", "sites": ["CA", "VA", "IR"], key: table}
            )

    def test_negative_think_time_rejected(self):
        # A negative draw is a negative delay on sim (the run dies mid-way)
        # and a silent zero sleep on async: the spec must refuse it up front.
        with pytest.raises(ConfigurationError, match="think_time_min_ms"):
            WorkloadSpec(think_time_min_ms=-50.0, think_time_max_ms=10.0)
        assert WorkloadSpec(think_time_min_ms=0.0, think_time_max_ms=0.0)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError, match="workload"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "protocol": "clock-rsm",
                    "sites": ["CA", "VA", "IR"],
                    "workload": {"clients": 3},
                }
            )

    def test_wrongly_typed_values_get_a_clean_error(self, tmp_path):
        path = tmp_path / "typed.toml"
        path.write_text(
            'protocol = "clock-rsm"\nsites = ["CA", "VA", "IR"]\nduration_s = "2"\n'
        )
        with pytest.raises(ConfigurationError, match="invalid experiment spec value"):
            ExperimentSpec.from_file(path)
        with pytest.raises(ConfigurationError, match="invalid value in workload"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "protocol": "clock-rsm",
                    "sites": ["CA", "VA", "IR"],
                    "workload": {"clients_per_site": "five"},
                }
            )

    def test_cdf_sites_must_be_deployed(self):
        with pytest.raises(ConfigurationError, match="cdf_sites"):
            self.base(cdf_sites=("SG",))

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="duration_s"):
            self.base(duration_s=0)


class TestWithProtocol:
    def test_sweeping_protocols_adjusts_the_leader(self):
        base = ExperimentSpec(
            name="sweep", protocol="paxos", sites=("CA", "VA", "IR"), leader_site="VA"
        )
        leaderless = base.with_protocol("clock-rsm")
        assert leaderless.leader_site is None
        back = leaderless.with_protocol("paxos-bcast")
        assert back.leader_site == "CA"  # defaults to the first site

    def test_derived_config_objects(self):
        spec = full_spec()
        assert spec.cluster_spec().sites == ("CA", "VA", "IR")
        offsets = spec.clock_offsets()
        assert offsets[spec.cluster_spec().by_site("VA").replica_id] == 20_000
        drift = spec.clock_drift_ppm()
        assert drift[spec.cluster_spec().by_site("IR").replica_id] == 100.0
        config = spec.protocol_config()
        assert config.clocktime_interval == 5_000
