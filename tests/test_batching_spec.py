"""The ``[batching]`` experiment table: validation, round-trips, overrides."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiment import BatchingSpec, ExperimentSpec, WorkloadSpec
from repro.protocols.registry import capability_rows, protocol_capabilities


def _spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        name="batching-spec-test",
        protocol="clock-rsm",
        sites=("S0", "S1", "S2"),
        latency="uniform",
        one_way_ms=0.1,
        duration_s=0.2,
        warmup_s=0.05,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestValidation:
    def test_defaults_are_the_unbatched_deployment(self):
        batching = BatchingSpec()
        assert batching.max_batch == 1
        assert batching.window_us == 0
        assert batching.pipeline_depth == 1
        assert not batching.options().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": -3},
            {"window_us": -1},
            {"pipeline_depth": 0},
            {"max_batch": True},
            {"max_batch": 2.5},
        ],
    )
    def test_bad_values_rejected_eagerly(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchingSpec(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="batching"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "protocol": "paxos",
                    "sites": ["S0", "S1", "S2"],
                    "latency": "uniform",
                    "batching": {"max_batch": 4, "windows_us": 100},
                }
            )

    def test_every_registered_protocol_supports_batching(self):
        for row in capability_rows():
            assert row["batching"] == "yes"
            assert protocol_capabilities(row["protocol"]).batching

    def test_batched_spec_accepted_for_all_protocols(self):
        for row in capability_rows():
            spec = _spec(
                protocol=row["protocol"],
                leader_site=(
                    "S0"
                    if protocol_capabilities(row["protocol"]).leader_based
                    else None
                ),
                batching=BatchingSpec(max_batch=8),
            )
            assert spec.batching.max_batch == 8


class TestRoundTrips:
    def test_dict_and_json_round_trip(self):
        spec = _spec(batching=BatchingSpec(max_batch=16, window_us=250, pipeline_depth=4))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_omitted_table_round_trips_as_none(self):
        spec = _spec()
        data = spec.to_dict()
        assert "batching" not in data
        assert ExperimentSpec.from_dict(data).batching is None

    def test_toml_file_round_trip(self, tmp_path):
        spec = _spec(batching=BatchingSpec(max_batch=8, window_us=100, pipeline_depth=2))
        data = spec.to_dict()
        lines = []
        for key in ("name", "protocol", "latency"):
            lines.append(f'{key} = "{data[key]}"')
        lines.append(f"sites = {json.dumps(list(data['sites']))}")
        lines.append(f"one_way_ms = {data['one_way_ms']}")
        lines.append(f"duration_s = {data['duration_s']}")
        lines.append(f"warmup_s = {data['warmup_s']}")
        lines.append("[batching]")
        for key, value in data["batching"].items():
            lines.append(f"{key} = {value}")
        path = tmp_path / "batched.toml"
        path.write_text("\n".join(lines) + "\n")
        loaded = ExperimentSpec.from_file(path)
        assert loaded.batching == spec.batching


class TestCliOverride:
    def _write_spec(self, tmp_path, batching: BatchingSpec | None = None) -> str:
        spec = _spec(
            workload=WorkloadSpec(
                scenario="saturating", outstanding_per_site=8, app="null"
            ),
            batching=batching,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_run_batch_override(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert cli_main(["run", path, "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "total committed" in out

    def test_run_batch_one_disables_a_batched_spec(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, BatchingSpec(max_batch=64))
        assert cli_main(["run", path, "--batch", "1"]) == 0

    def test_invalid_batch_override_is_a_clean_error(self, tmp_path):
        path = self._write_spec(tmp_path)
        with pytest.raises(SystemExit, match="error: "):
            cli_main(["run", path, "--batch", "0"])

    def test_protocols_table_lists_batching_column(self, capsys):
        assert cli_main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "batching" in out
        assert "clock-rsm" in out
