#!/usr/bin/env python3
"""Failure handling: crash a replica, reconfigure it out, reintegrate it.

Demonstrates the Clock-RSM reconfiguration protocol (Algorithm 3 of the
paper).  Clock-RSM stalls when a replica in the current configuration fails,
because committing needs a clock promise from *every* active replica; the
reconfiguration protocol removes the failed replica so the survivors can
continue, and later reintegrates it after it recovers from its on-disk log.

Run with::

    python examples/failover_reconfiguration.py
"""

from __future__ import annotations

from repro import ClusterSpec, ProtocolConfig, SimulatedCluster
from repro.analysis import ec2_latency_matrix
from repro.kvstore import KVStateMachine, SimKVClient
from repro.sim.failures import FailureSchedule
from repro.types import micros_to_ms, seconds_to_micros


def banner(text: str) -> None:
    print(f"\n--- {text} ---")


def main() -> None:
    sites = ["CA", "VA", "IR"]
    spec = ClusterSpec.from_sites(sites)
    cluster = SimulatedCluster(
        spec,
        ec2_latency_matrix(sites),
        "clock-rsm",
        ProtocolConfig(),
        state_machine_factory=lambda _rid: KVStateMachine(),
    )
    client = SimKVClient(cluster, replica_id=spec.by_site("CA").replica_id)
    ir = spec.by_site("IR").replica_id

    banner("normal operation with three replicas")
    for account, balance in [("alice", b"100"), ("bob", b"250"), ("carol", b"75")]:
        start = cluster.now
        client.put(account, balance)
        print(f"  put {account:<6} committed in {micros_to_ms(cluster.now - start):6.1f} ms")

    banner("the Ireland replica crashes")
    cluster.crash(ir)
    print(f"  t={micros_to_ms(cluster.now):9.1f} ms  IR is down; new commands cannot commit yet")

    # IR is known to have crashed, so CA runs the reconfiguration protocol to
    # drop it from the active configuration.
    survivors = tuple(r for r in spec.replica_ids if r != ir)
    FailureSchedule().reconfigure(cluster.now + 1_000, initiator=0, new_config=survivors).install(cluster)
    cluster.run_for(seconds_to_micros(1.0))
    ca_replica = cluster.replica(0)
    print(
        f"  t={micros_to_ms(cluster.now):9.1f} ms  reconfigured to epoch {ca_replica.epoch}, "
        f"active config {ca_replica.active_config}"
    )

    banner("service continues with two replicas")
    for account, balance in [("alice", b"90"), ("dave", b"500")]:
        start = cluster.now
        client.put(account, balance)
        print(f"  put {account:<6} committed in {micros_to_ms(cluster.now - start):6.1f} ms")

    banner("Ireland recovers from its log and rejoins")
    FailureSchedule().recover(cluster.now + 10_000, ir, rejoin=True).install(cluster)
    cluster.run_for(seconds_to_micros(2.0))
    recovered = cluster.replica(ir)
    print(
        f"  IR is back in epoch {recovered.epoch} with config {recovered.active_config}; "
        f"it has executed {recovered.executed_count} commands after state transfer"
    )

    start = cluster.now
    client.put("eve", b"10")
    print(f"  put eve    committed in {micros_to_ms(cluster.now - start):6.1f} ms (three replicas again)")

    cluster.run_for(seconds_to_micros(1.0))
    cluster.assert_consistent_order()
    values = {
        site: cluster.replica_by_site(site).state_machine.get("alice")
        for site in sites
    }
    print(f"\nalice's balance at every site: {values} — all replicas agree.")


if __name__ == "__main__":
    main()
