"""Cross-validation: simulated latencies match the analytical model.

These tests close the loop between the two halves of the reproduction: the
discrete-event simulation (which produced the experimental figures) and the
closed-form Table II model (which produced the numerical comparison).  For
imbalanced single-origin workloads the analytical prediction is exact, so the
simulated mean must sit within a small tolerance of it; for balanced
workloads the model's value is an upper envelope that the simulation should
approach but not exceed by much.
"""

from __future__ import annotations

import pytest

from repro.analysis.ec2 import ec2_latency_matrix
from repro.analysis.latency_model import (
    clock_rsm_balanced,
    clock_rsm_imbalanced,
    mencius_bcast_imbalanced,
    paxos_bcast_latency,
    paxos_latency,
)
from repro.experiment import Deployment, ExperimentSpec, WorkloadSpec
from repro.types import micros_to_ms

FIVE = ("CA", "VA", "IR", "JP", "SG")

#: Tolerance (ms) between simulated means and analytical predictions: covers
#: the CLOCKTIME quantisation, the one-microsecond clock waits, and sampling.
TOLERANCE_MS = 8.0


def _run(protocol: str, *, balanced: bool, origin: str | None = None, leader: str = "CA"):
    workload = (
        WorkloadSpec(clients_per_site=8)
        if balanced
        else WorkloadSpec(scenario="imbalanced", origin_site=origin, clients_per_site=8)
    )
    spec = ExperimentSpec(
        name="sim-vs-model",
        protocol="paxos-bcast",
        sites=FIVE,
        leader_site=leader,
        jitter_fraction=0.0,
        workload=workload,
        duration_s=5.0,
        warmup_s=1.0,
        seed=13,
    )
    # with_protocol drops the leader for the leaderless protocols.
    return Deployment(spec.with_protocol(protocol), backend="sim").run()


class TestImbalancedMatchesModelExactly:
    @pytest.mark.parametrize("origin", ["CA", "SG"])
    def test_clock_rsm(self, origin):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("clock-rsm", balanced=False, origin=origin)
        predicted = micros_to_ms(clock_rsm_imbalanced(matrix, FIVE.index(origin)))
        assert result.mean_ms(origin) == pytest.approx(predicted, abs=TOLERANCE_MS)

    @pytest.mark.parametrize("origin", ["CA", "SG"])
    def test_mencius_bcast(self, origin):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("mencius-bcast", balanced=False, origin=origin)
        predicted = micros_to_ms(mencius_bcast_imbalanced(matrix, FIVE.index(origin)))
        assert result.mean_ms(origin) == pytest.approx(predicted, abs=TOLERANCE_MS)

    @pytest.mark.parametrize("origin,leader", [("CA", "CA"), ("SG", "CA"), ("VA", "VA")])
    def test_paxos(self, origin, leader):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("paxos", balanced=False, origin=origin, leader=leader)
        predicted = micros_to_ms(
            paxos_latency(matrix, FIVE.index(origin), FIVE.index(leader))
        )
        assert result.mean_ms(origin) == pytest.approx(predicted, abs=TOLERANCE_MS)

    @pytest.mark.parametrize("origin,leader", [("CA", "CA"), ("JP", "CA"), ("CA", "VA")])
    def test_paxos_bcast(self, origin, leader):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("paxos-bcast", balanced=False, origin=origin, leader=leader)
        predicted = micros_to_ms(
            paxos_bcast_latency(matrix, FIVE.index(origin), FIVE.index(leader))
        )
        assert result.mean_ms(origin) == pytest.approx(predicted, abs=TOLERANCE_MS)


class TestBalancedWorkloadBounds:
    def test_clock_rsm_balanced_stays_between_imbalanced_and_worst_case(self):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("clock-rsm", balanced=True)
        for site in FIVE:
            origin = FIVE.index(site)
            lower = micros_to_ms(clock_rsm_imbalanced(matrix, origin))
            upper = micros_to_ms(clock_rsm_balanced(matrix, origin))
            assert result.mean_ms(site) >= lower - TOLERANCE_MS
            assert result.mean_ms(site) <= upper + TOLERANCE_MS

    def test_paxos_bcast_balanced_matches_model_at_every_site(self):
        matrix = ec2_latency_matrix(FIVE)
        result = _run("paxos-bcast", balanced=True, leader="VA")
        for site in FIVE:
            predicted = micros_to_ms(
                paxos_bcast_latency(matrix, FIVE.index(site), FIVE.index("VA"))
            )
            assert result.mean_ms(site) == pytest.approx(predicted, abs=TOLERANCE_MS)


class TestPaperHeadlineClaims:
    """The qualitative claims of the paper's evaluation, checked in-simulator."""

    def test_clock_rsm_beats_paxos_bcast_at_non_leader_replicas_with_five_sites(self):
        clock = _run("clock-rsm", balanced=True, leader="VA")
        paxos = _run("paxos-bcast", balanced=True, leader="VA")
        non_leader_sites = [s for s in FIVE if s != "VA"]
        wins = sum(1 for s in non_leader_sites if clock.mean_ms(s) < paxos.mean_ms(s))
        assert wins >= 3  # the paper: lower at non-leader replicas in most cases

    def test_clock_rsm_never_loses_to_mencius_bcast(self):
        clock = _run("clock-rsm", balanced=True, leader="CA")
        mencius = _run("mencius-bcast", balanced=True, leader="CA")
        for site in FIVE:
            assert clock.mean_ms(site) <= mencius.mean_ms(site) + TOLERANCE_MS

    def test_mencius_bcast_tail_is_wider_than_clock_rsm(self):
        clock = _run("clock-rsm", balanced=True, leader="CA")
        mencius = _run("mencius-bcast", balanced=True, leader="CA")
        clock_spread = sum(clock.p95_ms(s) - clock.mean_ms(s) for s in FIVE)
        mencius_spread = sum(mencius.p95_ms(s) - mencius.mean_ms(s) for s in FIVE)
        assert mencius_spread > clock_spread
