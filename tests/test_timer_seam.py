"""The timer seam: one contract under the simulator's clock and the loop's.

:class:`~repro.sim.environment.SimulationEnvironment` (virtual time) and
:class:`~repro.sim.scheduler.LoopTimer` (the running asyncio loop) are the
two :class:`~repro.sim.scheduler.Timer` implementations the link model and
:class:`~repro.net.batching.BatchAccumulator` are written against.  Every
test below plays one script on both and expects the same log: callbacks in
(deadline, scheduling order), a zero delay after the scheduling callback,
cancelled events silent — and the accumulator's flushes in the same order
relative to other events.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import BatchingOptions
from repro.net.batching import BatchAccumulator
from repro.sim.environment import SimulationEnvironment
from repro.sim.scheduler import LoopTimer


def _on_simulator(script, entries: int) -> list:
    env = SimulationEnvironment(seed=0)
    log: list = []
    script(env, log)
    env.run_until_idle()
    return log


def _on_loop(script, entries: int) -> list:
    async def scenario() -> list:
        timer = LoopTimer()
        log: list = []
        script(timer, log)
        while len(log) < entries:
            await asyncio.sleep(0.001)
        await asyncio.sleep(0.02)  # room for anything logged that should not be
        return log

    return asyncio.run(asyncio.wait_for(scenario(), timeout=10))


CLOCKS = {"simulator": _on_simulator, "loop": _on_loop}


@pytest.fixture(params=sorted(CLOCKS))
def play(request):
    return CLOCKS[request.param]


class TestTimer:
    def test_equal_deadlines_fire_in_scheduling_order(self, play):
        def script(timer, log):
            at = timer.now + 2_000
            for index in range(50):
                timer.schedule_at(at, lambda index=index: log.append(index))

        assert play(script, 50) == list(range(50))

    def test_callbacks_fire_in_deadline_order_and_now_never_goes_back(self, play):
        delays = [4_000, 1_000, 3_000, 1_000, 2_000, 0, 5_000, 2_000]

        def script(timer, log):
            for delay in delays:
                timer.schedule(delay, lambda delay=delay: log.append((delay, timer.now)))

        log = play(script, len(delays))
        assert [delay for delay, _now in log] == sorted(delays)
        nows = [now for _delay, now in log]
        assert nows == sorted(nows)

    def test_a_zero_delay_fires_after_the_scheduling_callback_returns(self, play):
        def script(timer, log):
            def first():
                timer.schedule(0, lambda: log.append("zero"))
                log.append("first done")

            timer.schedule(1_000, first)

        assert play(script, 2) == ["first done", "zero"]

    def test_an_event_for_the_current_instant_fires_after_those_already_due(self, play):
        def script(timer, log):
            at = timer.now + 2_000

            def first():
                log.append("a")
                timer.schedule(0, lambda: log.append("zero"))

            timer.schedule_at(at, first)
            timer.schedule_at(at, lambda: log.append("b"))

        assert play(script, 3) == ["a", "b", "zero"]

    def test_a_cancelled_event_never_fires(self, play):
        def script(timer, log):
            earliest = timer.schedule(1_000, lambda: log.append("earliest"))
            timer.schedule(3_000, lambda: log.append("late"))
            zero = timer.schedule(0, lambda: log.append("zero"))
            earliest.cancel()
            zero.cancel()

        assert play(script, 1) == ["late"]


class TestAccumulatorOnTheTimer:
    def test_window_zero_flushes_once_after_the_adding_callback(self, play):
        def script(timer, log):
            accumulator = BatchAccumulator(BatchingOptions(max_batch=64), log.append, timer)

            def add():
                accumulator.add(1)
                accumulator.add(2)
                log.append("added")

            timer.schedule(1_000, add)

        assert play(script, 2) == ["added", [1, 2]]

    def test_size_flush_cancels_the_window_timer(self, play):
        # Item 1 arms a window due at +10 ms.  At +4 ms item 2 fills the
        # batch (a size flush, which must disarm it) and item 3 arms a fresh
        # one due at +14 ms; a probe at +12 ms sits between the two.
        def script(timer, log):
            options = BatchingOptions(max_batch=2, window_us=10_000)
            accumulator = BatchAccumulator(options, log.append, timer)

            def fill():
                accumulator.add(2)
                accumulator.add(3)
                timer.schedule(8_000, lambda: log.append("probe"))

            accumulator.add(1)
            timer.schedule(4_000, fill)

        assert play(script, 3) == [[1, 2], "probe", [3]]

    def test_clear_disarms_the_window_timer(self, play):
        def script(timer, log):
            options = BatchingOptions(max_batch=8, window_us=4_000)
            accumulator = BatchAccumulator(options, log.append, timer)

            def refill():
                accumulator.add(2)  # arms a window due at +6 ms
                timer.schedule(3_000, lambda: log.append("probe"))

            accumulator.add(1)
            accumulator.clear()  # the window due at +4 ms must not fire
            timer.schedule(2_000, refill)

        assert play(script, 2) == ["probe", [2]]
