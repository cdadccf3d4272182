"""One link model under two clocks: the simulator's and the asyncio loop's.

:class:`~repro.sim.network.SimulatedNetwork` is the channel and fault model
of both the simulator and the asyncio backend's in-process cluster; only the
timer differs (:class:`~repro.sim.environment.SimulationEnvironment` vs
:class:`~repro.sim.scheduler.LoopTimer`).  One script — a burst on one
channel from a single callback, traffic on several other channels, a
partition that starts while messages are in flight and then heals, a crash
and recovery of one endpoint — must deliver the same sequence to every
destination on both, FIFO per channel, with the same drop and park counts.

The loop side runs on an event loop whose clock ticks in whole
milliseconds, as on hosts with a coarse monotonic clock: every send of one
callback then gets one deadline, which integer-µs times and the FIFO clamp
make routine on any host.  asyncio's own timer heap does not keep equal
deadlines in call order, so this is what a loop timer handing each delivery
to ``loop.call_at`` gets wrong.
"""

from __future__ import annotations

import asyncio
import itertools
import math

import pytest

from repro.net.latency import LatencyMatrix
from repro.net.message import Envelope
from repro.sim.environment import SimulationEnvironment
from repro.sim.network import NetworkOptions, SimulatedNetwork
from repro.sim.scheduler import LoopTimer

SITES = ("a", "b", "c", "d")
A, B, C, D = range(4)


class _CoarseClockLoop(asyncio.SelectorEventLoop):
    def time(self) -> float:
        return math.floor(super().time() * 1000) / 1000


def _parked(network: SimulatedNetwork) -> int:
    return sum(len(channel.parked) for channel in network._channels.values())


def _script(timer, network: SimulatedNetwork, gap: int, finish) -> dict:
    """Play the scenario on *network*; each step arms the next *gap* µs on."""
    received: dict[int, list[tuple[int, int, int]]] = {rid: [] for rid in range(4)}
    for rid in received:
        network.attach(
            rid, lambda envelope, _time, rid=rid: received[rid].append(envelope.message)
        )
    numbers = itertools.count()
    outcome = {"received": received, "parked": []}

    def send(src: int, dst: int, count: int) -> None:
        for _ in range(count):
            network.send(Envelope(src, dst, (src, dst, next(numbers))))

    def then(step) -> None:
        timer.schedule(gap, step)

    def burst() -> None:
        send(A, B, 60)
        for src, dst in ((C, B), (D, A), (B, C), (A, C), (C, A), (B, A)):
            send(src, dst, 5)
        network.partition(A, C)  # A→C and C→A messages are in flight
        then(during_partition)

    def during_partition() -> None:
        outcome["parked"].append(_parked(network))
        send(A, C, 5)
        send(C, A, 5)
        send(B, D, 5)
        network.set_down(D, True)  # B→D messages are in flight
        send(D, A, 3)
        send(A, D, 3)
        send(B, C, 5)
        then(heal)

    def heal() -> None:
        outcome["parked"].append(_parked(network))
        network.heal(A, C)
        send(A, C, 5)  # must arrive after the released ones
        network.set_down(D, False)
        send(A, D, 5)
        send(D, B, 5)
        send(A, B, 5)
        then(lambda: finish(outcome))

    then(burst)
    return outcome


def _network(timer, delay: int) -> SimulatedNetwork:
    return SimulatedNetwork(
        timer, LatencyMatrix.uniform(SITES, delay), NetworkOptions(partition_mode="buffer")
    )


def _on_simulator(delay: int, gap: int) -> dict:
    env = SimulationEnvironment(seed=0)
    network = _network(env, delay)
    outcome = _script(env, network, gap, lambda _outcome: None)
    env.run_until_idle()
    outcome["dropped"] = network.dropped_count
    return outcome


def _on_loop(delay: int, gap: int) -> dict:
    async def scenario() -> dict:
        timer = LoopTimer()
        network = _network(timer, delay)
        finished = asyncio.get_running_loop().create_future()
        _script(timer, network, gap, finished.set_result)
        outcome = await asyncio.wait_for(finished, timeout=10)
        outcome["dropped"] = network.dropped_count
        return outcome

    with asyncio.Runner(loop_factory=_CoarseClockLoop) as runner:
        return runner.run(scenario())


@pytest.mark.parametrize("delay_ms", [0, 2])
def test_loop_and_simulator_deliver_the_same_sequences(delay_ms):
    delay = delay_ms * 1000
    gap = delay + 3000  # every step runs after the previous step's deliveries
    expected = _on_simulator(delay, gap)
    observed = _on_loop(delay, gap)

    assert observed["received"] == expected["received"]
    # Drops: 5 in flight to the crashed D, 3 sent to it and 3 from it.
    assert observed["dropped"] == expected["dropped"] == 11
    assert observed["parked"] == expected["parked"] == [10, 20]
    for dst, messages in expected["received"].items():
        for src in range(4):
            numbers = [number for s, _d, number in messages if s == src]
            assert numbers == sorted(numbers), f"channel {src}->{dst} reordered"
    assert len(expected["received"][B]) == 60 + 5 + 5 + 5
