"""Hypothesis property tests for Clock-RSM log replay (core/recovery.py).

For arbitrary valid interleavings of PREPARE entries and COMMIT marks —
prepares in any order, commits in timestamp order after their prepare —
``replay_log`` must be idempotent and must agree with a state machine that
applied the same commands live, at commit time, during normal operation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import CommitRecord, PrepareRecord
from repro.core.recovery import replay_log
from repro.kvstore.commands import encode_put
from repro.kvstore.kv import KVStateMachine
from repro.types import Command, CommandId, Timestamp, ZERO_TS

from tests.helpers import log_of


@st.composite
def log_interleavings(draw):
    """A valid Clock-RSM log: shuffled prepares, ordered commit marks.

    Returns ``(records, committed_ts)`` where *records* respects the two log
    invariants replay relies on — a COMMIT mark appears after its PREPARE,
    and COMMIT marks appear in ascending timestamp order — while PREPARE
    entries land in arbitrary positions, as concurrent originators produce.
    """
    micros = draw(
        st.lists(
            st.integers(min_value=1, max_value=50_000),
            unique=True,
            min_size=0,
            max_size=16,
        )
    )
    entries = []
    for index, m in enumerate(micros):
        replica = draw(st.integers(min_value=0, max_value=2))
        key = f"key-{draw(st.integers(min_value=0, max_value=3))}"
        value = bytes([index % 251]) * draw(st.integers(min_value=0, max_value=4))
        command = Command(CommandId(f"client-{replica}", index + 1), encode_put(key, value))
        entries.append(PrepareRecord(command, Timestamp(m, replica)))

    committed = [e for e in entries if draw(st.booleans())]
    committed.sort(key=lambda e: e.ts)

    records: list = draw(st.permutations(entries)) if entries else []
    # Insert each COMMIT mark (ascending ts) at a position after both its
    # own PREPARE and the previous COMMIT mark.
    floor = 0
    for entry in committed:
        lowest = max(records.index(entry) + 1, floor)
        position = draw(st.integers(min_value=lowest, max_value=len(records)))
        records.insert(position, CommitRecord(entry.ts))
        floor = position + 1
    return records, tuple(e.ts for e in committed)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=log_interleavings())
def test_replay_is_idempotent(data):
    records, _committed = data
    log = log_of(records)
    first = replay_log(log)
    second = replay_log(log)
    assert first == second
    assert len(log) == len(records)  # replay never mutates the log


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=log_interleavings())
def test_replay_executes_exactly_the_committed_prefix_in_ts_order(data):
    records, committed = data
    recovered = replay_log(log_of(records))
    assert tuple(r.ts for r in recovered.executed) == committed
    # Orphans are the uncommitted prepares, in timestamp order.
    prepared = {r.ts for r in records if isinstance(r, PrepareRecord)}
    assert tuple(r.ts for r in recovered.orphans) == tuple(
        sorted(prepared - set(committed))
    )
    assert recovered.last_committed_ts == (committed[-1] if committed else ZERO_TS)
    highest = max(prepared, default=ZERO_TS)
    assert recovered.highest_ts == max(highest, recovered.last_committed_ts)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=log_interleavings())
def test_replay_agrees_with_the_live_state_machine(data):
    """Replaying after a crash reproduces the live apply path exactly.

    The "live" replica applies each command the moment its COMMIT mark is
    written (normal operation); the recovering replica replays the whole log
    afterwards.  Both must end with identical state machines.
    """
    records, _committed = data
    live = KVStateMachine()
    pending: dict[Timestamp, PrepareRecord] = {}
    applied_live = []
    for record in records:
        if isinstance(record, PrepareRecord):
            pending.setdefault(record.ts, record)
        else:
            entry = pending.pop(record.ts)
            applied_live.append(live.apply(entry.command))

    recovered = replay_log(log_of(records))
    replayed = KVStateMachine()
    applied_replay = [replayed.apply(r.command) for r in recovered.executed]

    assert applied_replay == applied_live  # same outputs (previous values)
    assert replayed.snapshot() == live.snapshot()  # same final state
