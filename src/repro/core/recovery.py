"""Recovery from the stable command log (paper Section V-B).

A Clock-RSM log contains two record types: :class:`PrepareRecord` entries,
which may appear in any order, and :class:`CommitRecord` marks, which appear
in timestamp order and always after the matching PREPARE.  Recovery scans the
log once, buffering PREPARE entries in a hash table keyed by timestamp and
executing them when the corresponding COMMIT mark is encountered — exactly
the procedure the paper describes.  PREPARE entries left over at the end
("orphans") correspond to commands whose fate is unknown; the recovering
replica either re-acquires them via reconfiguration / RETRIEVECMDS or commits
them normally once it rejoins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LogCorruptionError
from ..storage.memory_log import InMemoryLog
from ..types import Timestamp, ZERO_TS
from .messages import CommitRecord, PrepareRecord


@dataclass(frozen=True)
class RecoveredState:
    """Result of replaying a Clock-RSM log.

    Attributes:
        executed: Committed commands in commit (= timestamp) order.
        orphans: PREPARE entries without a COMMIT mark, in timestamp order.
        last_committed_ts: Timestamp of the last COMMIT mark (ZERO_TS if none).
        highest_ts: The largest timestamp seen anywhere in the log; the
            recovering replica must never issue a smaller timestamp again.
    """

    executed: tuple[PrepareRecord, ...]
    orphans: tuple[PrepareRecord, ...]
    last_committed_ts: Timestamp
    highest_ts: Timestamp


def replay_log(log: InMemoryLog) -> RecoveredState:
    """Replay *log* and return the recovered execution state."""
    pending: dict[Timestamp, PrepareRecord] = {}
    executed: list[PrepareRecord] = []
    last_committed = ZERO_TS
    highest = ZERO_TS
    for record in log.records():
        if isinstance(record, PrepareRecord):
            pending.setdefault(record.ts, record)
            if record.ts > highest:
                highest = record.ts
        elif isinstance(record, CommitRecord):
            prepare = pending.pop(record.ts, None)
            if prepare is None:
                raise LogCorruptionError(
                    f"COMMIT mark for {record.ts} has no preceding PREPARE entry"
                )
            if record.ts < last_committed:
                raise LogCorruptionError(
                    f"COMMIT marks out of order: {record.ts} after {last_committed}"
                )
            executed.append(prepare)
            last_committed = record.ts
            if record.ts > highest:
                highest = record.ts
        else:
            raise LogCorruptionError(f"foreign record in Clock-RSM log: {record!r}")
    orphans = tuple(pending[ts] for ts in sorted(pending))
    return RecoveredState(
        executed=tuple(executed),
        orphans=orphans,
        last_committed_ts=last_committed,
        highest_ts=highest,
    )


__all__ = ["RecoveredState", "replay_log"]
