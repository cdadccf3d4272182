"""Property-based tests of Clock-RSM's replication guarantees.

Hypothesis drives randomized command schedules (origins, submission times,
clock skews, network jitter) through the deterministic simulator and checks
the properties the paper proves in its appendix:

* commands execute in strictly increasing timestamp order at every replica
  (Claim 1 / Claim 2: total order);
* every command committed anywhere is eventually executed by every replica
  (agreement, in failure-free runs);
* the committed order respects the real-time order observed by clients
  (linearizability of non-overlapping commands, Claim 5).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.types import seconds_to_micros

from tests.helpers import make_cluster, sim_command, submit_at

# A randomized schedule: a list of (origin, submit-offset µs) pairs.
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=200_000)),
    min_size=1,
    max_size=15,
)

skew_sets = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-30_000, max_value=30_000),
    max_size=3,
)


def run_schedule(schedule, skews, seed, jitter=0.0):
    cluster = make_cluster(
        "clock-rsm",
        sites=("CA", "VA", "IR"),
        seed=seed,
        clock_offsets=skews,
        jitter_fraction=jitter,
    )
    cluster.start()
    commands = []
    for index, (origin, offset) in enumerate(schedule):
        command = sim_command(cluster, bytes([index]), client=f"client-{origin}")
        submit_at(cluster, offset, origin, command)
        commands.append((origin, command))
    cluster.run_for(seconds_to_micros(3.0))
    return cluster, commands


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedules, skews=skew_sets, seed=st.integers(min_value=0, max_value=1_000))
def test_total_order_and_agreement_hold_for_random_schedules(schedule, skews, seed):
    cluster, commands = run_schedule(schedule, skews, seed, jitter=0.05)
    # Agreement: every submitted command commits at its origin and executes
    # at every replica (failure-free run, CLOCKTIME keeps idle replicas live).
    assert len(cluster.replies) == len(commands)
    for replica in cluster.replicas():
        assert replica.executed_count == len(commands)
    # Total order: identical execution sequences everywhere.
    cluster.assert_consistent_order()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedules, seed=st.integers(min_value=0, max_value=1_000))
def test_execution_order_matches_timestamp_order(schedule, seed):
    cluster, _ = run_schedule(schedule, skews={}, seed=seed)
    replica = cluster.replica(0)
    # Reconstruct the committed timestamps from the log: COMMIT marks must be
    # appended in strictly increasing timestamp order (Claim 1).
    from repro.core.messages import CommitRecord

    commit_ts = [r.ts for r in replica.log.records() if isinstance(r, CommitRecord)]
    assert commit_ts == sorted(commit_ts)
    assert len(set(commit_ts)) == len(commit_ts)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sequential_client_commands_respect_real_time_order(seed):
    """A client that waits for each reply before issuing the next command
    must see its commands applied in issue order at every replica."""
    import random

    rng = random.Random(seed)
    cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR"), seed=seed)
    cluster.start()
    issued = []
    # Issue five commands sequentially, each from a (possibly different)
    # replica, only after the previous one committed.
    for index in range(5):
        origin = rng.randrange(3)
        command = sim_command(cluster, bytes([index]), client="sequential-client")
        issued.append(command.command_id)
        cluster.submit(origin, command)
        before = len(cluster.replies)
        cluster.run_for(seconds_to_micros(1.0))
        assert len(cluster.replies) == before + 1
    for replica in cluster.replicas():
        order = [cid for cid in replica.execution_order if cid in set(issued)]
        assert order == issued
