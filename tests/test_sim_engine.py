"""The simulator's event path: heap order, the one run loop, the delay table.

``tests/test_sim_core.py`` covers the everyday behaviour; this file pins what
an optimisation of the engine could silently move — tie order, cancelled
heads, the ``run_until`` boundary, the jitter draw, and the network's
no-fault fast path noticing a fault armed in the middle of a run.  The two
property tests drive the engine against deliberately naive reference models.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.net.latency import LatencyMatrix
from repro.net.message import Envelope
from repro.sim.environment import SimulationEnvironment
from repro.sim.network import SimulatedNetwork, _Channel
from repro.sim.scheduler import EventScheduler

# ---------------------------------------------------------------------------
# Scheduler and run loop
# ---------------------------------------------------------------------------


class TestEventOrder:
    def test_equal_time_events_fire_in_scheduling_order(self):
        env = SimulationEnvironment()
        fired = []
        for index in range(200):
            # Three interleaved timestamps, many ties on each.
            env.schedule_at(10 * (index % 3), lambda i=index: fired.append(i))
        env.run_until_idle()
        assert fired == sorted(range(200), key=lambda i: (i % 3, i))

    def test_events_scheduled_for_now_by_a_running_event_run_after_it(self):
        env = SimulationEnvironment()
        fired = []

        def first():
            fired.append("first")
            env.schedule(0, lambda: fired.append("child"))

        env.schedule_at(5, first)
        env.schedule_at(5, lambda: fired.append("second"))
        env.run_until(5)
        assert fired == ["first", "second", "child"]

    def test_handle_keeps_its_fields(self):
        scheduler = EventScheduler()
        callback = lambda: None
        first = scheduler.schedule_at(7, callback)
        second = scheduler.schedule_at(7, callback)
        assert (first.time, first.callback, first.cancelled) == (7, callback, False)
        assert second.seq == first.seq + 1
        first.cancel()
        assert first.cancelled and not second.cancelled

    def test_scheduling_in_the_past_raises(self):
        env = SimulationEnvironment()
        env.run_until(100)
        with pytest.raises(SimulationError):
            env.schedule_at(99, lambda: None)
        with pytest.raises(SimulationError):
            env.schedule(-1, lambda: None)
        with pytest.raises(SimulationError):
            EventScheduler().schedule_at(-1, lambda: None)
        env.schedule_at(100, lambda: None)  # "now" is not the past


def _env_with_cancelled_head():
    env = SimulationEnvironment()
    fired = []
    head = env.schedule_at(10, lambda: fired.append("cancelled"))
    env.schedule_at(20, lambda: fired.append("live"))
    head.cancel()
    return env, fired


class TestCancelledHead:
    def test_not_counted_by_len(self):
        env, _ = _env_with_cancelled_head()
        assert len(env.scheduler) == 1

    def test_skipped_by_peek_time(self):
        env, _ = _env_with_cancelled_head()
        assert env.scheduler.peek_time() == 20

    def test_skipped_by_pop(self):
        env, _ = _env_with_cancelled_head()
        event = env.scheduler.pop()
        assert event.time == 20 and not event.cancelled
        assert env.scheduler.pop() is None

    def test_skipped_by_step(self):
        env, fired = _env_with_cancelled_head()
        assert env.step() is True
        assert fired == ["live"] and env.now == 20
        assert env.scheduler.executed_count == 1
        assert env.step() is False

    def test_skipped_by_run_until(self):
        env, fired = _env_with_cancelled_head()
        # The cancelled head lies inside the window, the live event past it.
        assert env.run_until(15) == 0
        assert fired == [] and env.now == 15
        assert env.run_until(20) == 1
        assert fired == ["live"]
        assert env.scheduler.executed_count == 1

    def test_skipped_by_run_until_idle(self):
        env, fired = _env_with_cancelled_head()
        assert env.run_until_idle() == 1
        assert fired == ["live"] and env.now == 20
        assert env.scheduler.executed_count == 1
        assert len(env.scheduler) == 0

    def test_cancelling_a_later_event_from_a_running_one(self):
        env = SimulationEnvironment()
        fired = []
        victim = env.schedule_at(10, lambda: fired.append("victim"))
        env.schedule_at(5, victim.cancel)
        assert env.run_until_idle() == 1
        assert fired == []


class TestRunUntil:
    def test_never_runs_an_event_past_the_bound(self):
        env = SimulationEnvironment()
        fired = []
        for time in (10, 20, 20, 21, 30):
            env.schedule_at(time, lambda t=time: fired.append((t, env.now)))
        assert env.run_until(20) == 3
        assert fired == [(10, 10), (20, 20), (20, 20)]
        assert env.now == 20
        assert env.scheduler.peek_time() == 21

    def test_leaves_now_at_the_bound_when_the_queue_runs_dry(self):
        env = SimulationEnvironment()
        env.schedule_at(10, lambda: None)
        assert env.run_until(500) == 1
        assert env.now == 500
        assert env.run_until(400) == 0  # never moves time backwards
        assert env.now == 500

    def test_honours_max_events(self):
        env = SimulationEnvironment()
        for time in (1, 2, 3, 4):
            env.schedule_at(time, lambda: None)
        assert env.run_until(10, max_events=3) == 3
        assert len(env.scheduler) == 1
        # Time stops at the last event run, not at the bound: jumping to 10
        # would leave the fourth event in the past.
        assert env.now == 3
        assert env.run_until(10, max_events=0) == 0
        assert len(env.scheduler) == 1 and env.now == 3
        assert env.run_until(10, max_events=1) == 1
        assert env.now == 10

    def test_run_for_is_run_until_from_now(self):
        env = SimulationEnvironment()
        env.run_until(100)
        env.schedule(50, lambda: None)
        env.schedule(51, lambda: None)
        assert env.run_for(50) == 1
        assert env.now == 150

    def test_run_until_idle_raises_at_the_event_bound(self):
        env = SimulationEnvironment()
        for time in range(5):
            env.schedule_at(time, lambda: None)
        with pytest.raises(SimulationError):
            env.run_until_idle(max_events=5)
        env = SimulationEnvironment()
        for time in range(5):
            env.schedule_at(time, lambda: None)
        assert env.run_until_idle(max_events=6) == 5

    def test_an_exception_leaves_the_engine_consistent(self):
        env = SimulationEnvironment()

        def boom():
            raise RuntimeError("boom")

        env.schedule_at(5, boom)
        env.schedule_at(6, lambda: None)
        with pytest.raises(RuntimeError):
            env.run_until(10)
        assert env.now == 5 and env.scheduler.executed_count == 1
        assert env.run_until(10) == 1


# -- property: random schedule / cancel / run interleavings ------------------


class _ReferenceEngine:
    """A sorted-list discrete-event loop: O(n) everywhere, obviously right."""

    def __init__(self) -> None:
        self.now = 0
        self.entries: list[list] = []  # [time, seq, ident, cancelled]
        self.seq = 0
        self.executed = 0
        self.fired: list[tuple[int, int]] = []

    def schedule(self, delay: int, ident: int) -> None:
        self.entries.append([self.now + delay, self.seq, ident, False])
        self.seq += 1

    def cancel(self, ident: int) -> None:
        for entry in self.entries:
            if entry[2] == ident:
                entry[3] = True

    def live(self) -> list[list]:
        return sorted(entry for entry in self.entries if not entry[3])

    def run(self, until, max_events) -> int:
        count = 0
        while True:
            live = self.live()
            if not live or (max_events is not None and count >= max_events):
                break
            if until is not None and live[0][0] > until:
                break
            entry = live[0]
            self.entries.remove(entry)
            self.now = entry[0]
            self.executed += 1
            count += 1
            self.fired.append((entry[2], self.now))
        live = self.live()
        if until is not None and until > self.now and (not live or live[0][0] > until):
            self.now = until
        return count


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 40)),
        st.tuples(st.just("cancel"), st.integers(0, 60)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("run_until"), st.tuples(st.integers(0, 60), st.one_of(st.none(), st.integers(0, 5)))),
        st.tuples(st.just("run_for"), st.tuples(st.integers(0, 60), st.one_of(st.none(), st.integers(0, 5)))),
        st.tuples(st.just("run_until_idle"), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_OPERATIONS)
def test_engine_matches_a_sorted_list_reference(operations):
    env, reference = SimulationEnvironment(), _ReferenceEngine()
    fired: list[tuple[int, int]] = []
    handles = []
    for name, argument in operations:
        if name == "schedule":
            ident = len(handles)
            handles.append(env.schedule(argument, lambda i=ident: fired.append((i, env.now))))
            reference.schedule(argument, ident)
        elif name == "cancel":
            if argument < len(handles):
                handles[argument].cancel()
                reference.cancel(argument)
        elif name == "step":
            assert env.step() == (reference.run(None, 1) == 1)
        elif name == "peek":
            live = reference.live()
            assert env.scheduler.peek_time() == (live[0][0] if live else None)
        elif name == "run_until":
            offset, max_events = argument
            # An absolute bound that may lie before ``now``.
            bound = max(0, env.now - 20) + offset
            assert env.run_until(bound, max_events) == reference.run(bound, max_events)
        elif name == "run_for":
            duration, max_events = argument
            assert env.run_for(duration, max_events) == reference.run(
                reference.now + duration, max_events
            )
        else:
            assert env.run_until_idle() == reference.run(None, None)
        assert fired == reference.fired
        assert env.now == reference.now
        assert env.scheduler.executed_count == reference.executed
        assert len(env.scheduler) == len(reference.live())


# ---------------------------------------------------------------------------
# The jitter draw
# ---------------------------------------------------------------------------


def test_randrange_makes_the_draws_randint_made():
    """``randint(0, n - 1)`` is ``randrange(0, n)``, which is
    ``_randbelow(n)``: draw ``n.bit_length()`` bits until the value is below
    ``n``.  The network makes that draw itself, with ``getrandbits`` and the
    bit count kept per channel.  All of them must consume the stream
    identically on every supported interpreter, or every jittered figure
    moves."""
    a, b, c = random.Random(2024), random.Random(2024), random.Random(2024)
    spans = [1, 2, 3, 7, 41, 1000, 1601, 2**20 + 1]
    channels = [_Channel(0, span) for span in spans]
    draws_a = [a.randrange(spans[i % len(spans)]) for i in range(10_000)]
    draws_b = [b.randint(0, spans[i % len(spans)] - 1) for i in range(10_000)]
    draws_c = [channels[i % len(spans)].sample_delay(c) for i in range(10_000)]
    assert draws_a == draws_b == draws_c
    assert a.random() == b.random() == c.random()  # the streams are still aligned


def _one_way_delay(network: SimulatedNetwork, src: int, dst: int) -> int:
    """Sample the delay of one message on the (src, dst) channel (base + jitter)."""
    channel = network._channels.get((src, dst)) or network._open_channel(src, dst)
    return channel.sample_delay(network._env.random)


def test_one_way_delay_draws_base_plus_uniform_jitter():
    matrix = LatencyMatrix.uniform(["A", "B"], one_way=10_000)
    env = SimulationEnvironment(seed=5)
    network = SimulatedNetwork(env, matrix, jitter_fraction=0.1)
    twin = random.Random(5)
    for _ in range(200):
        assert _one_way_delay(network, 0, 1) == 10_000 + twin.randint(0, 1_000)
    # The local link has base 0, so its jitter bound is 0: no draw at all.
    assert [_one_way_delay(network, 0, 0) for _ in range(20)] == [0] * 20
    assert env.random.random() == twin.random()
    # Both ends of the range are drawn (an off-by-one span would never
    # draw the 3 of a 30 µs link's 10 %).
    short = SimulatedNetwork(
        SimulationEnvironment(seed=5), LatencyMatrix.uniform(["A", "B"], 30), 0.1
    )
    twin = random.Random(5)
    delays = [_one_way_delay(short, 0, 1) for _ in range(200)]
    assert delays == [30 + twin.randint(0, 3) for _ in range(200)]
    assert set(delays) == {30, 31, 32, 33}


def test_no_jitter_consumes_no_randomness():
    matrix = LatencyMatrix.uniform(["A", "B"], one_way=10_000)
    env = SimulationEnvironment(seed=5)
    network = SimulatedNetwork(env, matrix)
    network.attach(1, lambda envelope, time: None)
    for _ in range(10):
        assert _one_way_delay(network, 0, 1) == 10_000
        network.send(Envelope(0, 1, "m"))
    assert env.random.random() == random.Random(5).random()


# ---------------------------------------------------------------------------
# The network with faults armed mid-run
# ---------------------------------------------------------------------------


class _ReferenceNetwork:
    """The network written the slow way — every send and every delivery asks
    whether the channel is blocked, delays are recomputed from the matrix per
    message and jitter is a ``randint`` — as the executable specification the
    optimised :class:`SimulatedNetwork` is compared against."""

    def __init__(self, env, latency, jitter_fraction) -> None:
        self.env, self.latency, self.jitter_fraction = env, latency, jitter_fraction
        self.handlers = {}
        self.partitions: set[frozenset] = set()
        self.down: set[int] = set()
        self.parked: dict[tuple, list] = {}
        self.send_seq: dict[tuple, int] = {}
        self.last_delivery: dict[tuple, int] = {}
        self.sent_count = self.delivered_count = self.dropped_count = self.bytes_sent = 0

    def attach(self, replica_id, handler) -> None:
        self.handlers[replica_id] = handler

    def partition(self, a, b) -> None:
        self.partitions.add(frozenset((a, b)))

    def heal(self, a, b) -> None:
        self.partitions.discard(frozenset((a, b)))
        self._release(a, b)
        self._release(b, a)

    def set_down(self, replica_id, down) -> None:
        (self.down.add if down else self.down.discard)(replica_id)

    def _release(self, src, dst) -> None:
        for seq, envelope in sorted(self.parked.pop((src, dst), [])):
            self._schedule(envelope, self.env.now, seq)

    def _blocked(self, envelope, seq) -> bool:
        src, dst = envelope.src, envelope.dst
        if src in self.down or dst in self.down:
            self.dropped_count += 1
            return True
        if frozenset((src, dst)) in self.partitions:
            self.parked.setdefault((src, dst), []).append((seq, envelope))
            return True
        return False

    def send(self, envelope, send_time=None) -> None:
        self.sent_count += 1
        self.bytes_sent += envelope.size_hint
        key = (envelope.src, envelope.dst)
        seq = self.send_seq.get(key, 0)
        self.send_seq[key] = seq + 1
        if self._blocked(envelope, seq):
            return
        departure = self.env.now if send_time is None else max(send_time, self.env.now)
        self._schedule(envelope, departure, seq)

    def _schedule(self, envelope, departure, seq) -> None:
        base = self.latency.delay(envelope.src, envelope.dst)
        bound = int(base * self.jitter_fraction)
        delay = base if bound <= 0 else base + self.env.random.randint(0, bound)
        key = (envelope.src, envelope.dst)
        delivery = max(departure + delay, self.last_delivery.get(key, 0))
        self.last_delivery[key] = delivery
        self.env.schedule_at(delivery, lambda: self._deliver(envelope, delivery, seq))

    def _deliver(self, envelope, delivery, seq) -> None:
        if self._blocked(envelope, seq):
            return
        handler = self.handlers.get(envelope.dst)
        if handler is None:
            self.dropped_count += 1
            return
        self.delivered_count += 1
        handler(envelope, delivery)


_SITES = ["A", "B", "C", "D"]
_MATRIX = LatencyMatrix.from_rtt_ms(_SITES, {
    ("A", "B"): 20.0, ("A", "C"): 60.0, ("A", "D"): 90.0,
    ("B", "C"): 30.0, ("B", "D"): 70.0, ("C", "D"): 10.0,
})


def _play(network_class, jitter_fraction, seed, script):
    """Run *script* on a fresh network; return its delivery log and counters."""
    env = SimulationEnvironment(seed=seed)
    network = network_class(env, _MATRIX, jitter_fraction)
    log = []
    for rid in range(3):  # replica 3 never attaches: "no handler" drops
        network.attach(rid, lambda e, t, r=rid: log.append((r, e.src, e.message, t, env.now)))
    serial = 0
    for name, a, b in script:
        if name == "send":
            network.send(Envelope(a, b, serial, size_hint=10 + serial % 7))
            serial += 1
        elif name == "send_later":
            network.send(Envelope(a, b, serial), send_time=env.now + 5_000)
            serial += 1
        elif name == "partition":
            network.partition(a, b)
        elif name == "heal":
            network.heal(a, b)
        elif name == "down":
            network.set_down(a, True)
        elif name == "up":
            network.set_down(a, False)
        else:
            env.run_for(a)
    env.run_until_idle()
    return log, (
        network.sent_count, network.delivered_count, network.dropped_count,
        network.bytes_sent, env.scheduler.executed_count, env.now,
    )


_REPLICA = st.integers(0, 3)
_SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["send", "send", "send", "send_later"]), _REPLICA, _REPLICA),
        st.tuples(st.sampled_from(["partition", "heal"]), _REPLICA, _REPLICA).filter(
            lambda step: step[1] != step[2]  # a pair is two replicas
        ),
        st.tuples(st.sampled_from(["down", "up"]), _REPLICA, st.just(0)),
        st.tuples(st.just("run"), st.integers(0, 40_000), st.just(0)),
    ),
    max_size=80,
)
_JITTER = st.sampled_from([0.0, 0.02, 0.5])


@settings(max_examples=150, deadline=None)
@given(_JITTER, st.integers(0, 2**16), _SCRIPT)
def test_network_matches_the_always_checking_reference(jitter_fraction, seed, script):
    assert _play(SimulatedNetwork, jitter_fraction, seed, script) == _play(
        _ReferenceNetwork, jitter_fraction, seed, script
    )


def _network(jitter_fraction=0.0, seed=0):
    env = SimulationEnvironment(seed=seed)
    network = SimulatedNetwork(env, _MATRIX, jitter_fraction)
    received = []
    for rid in range(4):
        network.attach(rid, lambda e, t, r=rid: received.append((r, e.message, t)))
    return env, network, received


class TestFaultsArmedMidRun:
    def test_fifo_per_channel_under_jitter_across_a_fault(self):
        env, network, received = _network(jitter_fraction=0.5, seed=3)
        for index in range(40):
            network.send(Envelope(0, 1, index))
            env.run_for(300)
            if index == 10:
                network.partition(0, 1)
            if index == 25:
                network.heal(0, 1)
        env.run_until_idle()
        assert [m for _, m, _ in received] == list(range(40))
        times = [t for _, _, t in received]
        assert times == sorted(times)

    def test_buffer_mode_parks_in_flight_and_new_messages_then_releases_in_send_order(self):
        env, network, received = _network()
        network.send(Envelope(0, 1, "in-flight-1"))
        network.send(Envelope(0, 1, "in-flight-2"))
        env.run_for(5_000)  # one-way A->B is 10 ms: both still in flight
        network.partition(0, 1)
        network.send(Envelope(0, 1, "parked-at-send"))
        env.run_for(50_000)
        assert received == [] and network.dropped_count == 0
        network.heal(0, 1)
        healed_at = env.now
        env.run_until_idle()
        assert [m for _, m, _ in received] == ["in-flight-1", "in-flight-2", "parked-at-send"]
        assert all(t == healed_at + 10_000 for _, _, t in received)
        assert network.delivered_count == 3

    def test_crash_mid_flight_drops_at_delivery_and_at_send(self):
        env, network, received = _network()
        network.send(Envelope(0, 1, "to-the-crashed"))
        network.send(Envelope(1, 2, "from-the-crashed"))
        env.run_for(5_000)
        network.set_down(1, True)
        network.send(Envelope(0, 1, "sent-while-down"))
        env.run_until_idle()
        assert received == [] and network.dropped_count == 3
        network.set_down(1, False)
        network.send(Envelope(0, 1, "after-recovery"))
        env.run_until_idle()
        assert [m for _, m, _ in received] == ["after-recovery"]
