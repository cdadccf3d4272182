"""Tests for cluster and protocol configuration."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.config import ClusterSpec, ProtocolConfig, ReplicaSpec, validate_active_config
from repro.errors import ConfigurationError


class TestReplicaSpec:
    def test_valid(self):
        spec = ReplicaSpec(0, "CA")
        assert spec.replica_id == 0
        assert spec.site == "CA"

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaSpec(-1, "CA")

    def test_empty_site_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaSpec(0, "")


class TestClusterSpec:
    def test_from_sites_assigns_sequential_ids(self):
        spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
        assert spec.replica_ids == (0, 1, 2)
        assert spec.sites == ("CA", "VA", "IR")
        assert spec.size == 3

    def test_quorum_size(self):
        assert ClusterSpec.from_sites(["a", "b", "c"]).quorum_size == 2
        assert ClusterSpec.from_sites(["a", "b", "c", "d", "e"]).quorum_size == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec((ReplicaSpec(0, "CA"), ReplicaSpec(0, "VA")))

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.from_sites(["CA", "CA"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(())

    def test_replica_lookup(self):
        spec = ClusterSpec.from_sites(["CA", "VA"])
        assert spec.replica(1).site == "VA"
        assert spec.by_site("CA").replica_id == 0
        with pytest.raises(ConfigurationError):
            spec.replica(9)
        with pytest.raises(ConfigurationError):
            spec.by_site("XX")

    def test_others(self):
        spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
        assert spec.others(1) == (0, 2)
        with pytest.raises(ConfigurationError):
            spec.others(7)

    def test_spec_is_immutable(self):
        # Reconfiguration changes the active set, never the spec itself.
        spec = ClusterSpec.from_sites(["CA", "VA"])
        with pytest.raises(FrozenInstanceError):
            spec.replicas = ()
        with pytest.raises(FrozenInstanceError):
            spec.replica(0).site = "IR"
        assert spec.sites == ("CA", "VA")

    def test_equal_sites_give_equal_specs(self):
        assert ClusterSpec.from_sites(["CA", "VA"]) == ClusterSpec.from_sites(["CA", "VA"])
        assert ClusterSpec.from_sites(["CA", "VA"]) != ClusterSpec.from_sites(["VA", "CA"])


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        config = ProtocolConfig()
        assert config.clocktime_interval == 5_000  # 5 ms, the paper's Δ
        assert config.enable_clocktime_broadcast is True
        assert config.wait_for_clock is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clocktime_interval": 0},
            {"clocktime_interval": -5},
            {"leader": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(**kwargs)

    def test_config_is_immutable(self):
        config = ProtocolConfig(leader=2)
        with pytest.raises(FrozenInstanceError):
            config.leader = 0
        assert config.leader == 2


class TestValidateActiveConfig:
    def test_full_spec_is_valid(self):
        spec = ClusterSpec.from_sites(["a", "b", "c", "d", "e"])
        assert validate_active_config(spec, [4, 2, 0, 1, 3]) == (0, 1, 2, 3, 4)

    def test_majority_subset_is_valid(self):
        spec = ClusterSpec.from_sites(["a", "b", "c", "d", "e"])
        assert validate_active_config(spec, [0, 2, 4]) == (0, 2, 4)

    def test_minority_subset_rejected(self):
        spec = ClusterSpec.from_sites(["a", "b", "c", "d", "e"])
        with pytest.raises(ConfigurationError):
            validate_active_config(spec, [0, 1])

    def test_a_repeated_replica_counts_once(self):
        spec = ClusterSpec.from_sites(["a", "b", "c", "d", "e"])
        assert validate_active_config(spec, [2, 0, 2, 1]) == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            validate_active_config(spec, [0, 0, 0])

    def test_unknown_replica_rejected(self):
        spec = ClusterSpec.from_sites(["a", "b", "c"])
        with pytest.raises(ConfigurationError):
            validate_active_config(spec, [0, 1, 7])
