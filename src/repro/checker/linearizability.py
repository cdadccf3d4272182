"""Linearizability checking for recorded key-value histories.

Two cooperating strategies decide whether an :class:`~repro.checker.history.OpHistory`
is linearizable with respect to the key-value model:

1. **Total-order pre-pass.**  Clock-RSM (and every other protocol in the
   registry) commits commands in a single total order, so a recorded history
   normally carries per-replica apply orders.  The pre-pass verifies that
   those orders are prefix-consistent, that every acknowledged operation
   appears in the order, that replaying the order through a model key-value
   store reproduces every observed output, and that the order respects
   real-time precedence (an operation that returned before another was
   invoked must come first).  When all four hold, the apply order itself is a
   linearization witness and the check is O(n).

2. **Wing–Gong search.**  Without apply orders — or when the pre-pass finds
   an output or real-time discrepancy — the checker falls back to the
   classic Wing & Gong (1993) search, made tractable by linearizability's
   locality: each key is an independent object, so the history is partitioned
   per key and each partition searched separately with memoization on
   (remaining operations, key value).  Operations the client gave up on
   (timeouts, run cut-offs) may or may not have taken effect; the search
   accounts for both possibilities.

Divergent apply orders are reported as a violation without a fallback: two
state machines that executed different command sequences have already broken
the protocol's total-order contract, whatever the clients observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import CodecError, ReproError
from ..kvstore.commands import DELETE, GET, PUT, KvOp, decode_op
from ..types import CommandId
from .history import OK, OpHistory

#: Sentinel "never returned" time, larger than any microsecond reading.
_NEVER = float("inf")


class CheckerError(ReproError):
    """The checker was given a history it cannot decide (not a violation)."""


@dataclass
class CheckReport:
    """The verdict of one history check."""

    linearizable: bool
    method: str
    ops: int
    completed: int
    pending: int
    failed: int
    keys: int
    violation: Optional[str] = None

    @property
    def verdict(self) -> str:
        if self.linearizable:
            return "linearizable"
        return f"NOT linearizable: {self.violation}"

    def describe(self) -> str:
        return (
            f"{self.verdict} ({self.ops} ops: {self.completed} ok, "
            f"{self.pending} pending, {self.failed} timed out; "
            f"{self.keys} keys, method {self.method})"
        )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "linearizable": self.linearizable,
            "method": self.method,
            "ops": self.ops,
            "completed": self.completed,
            "pending": self.pending,
            "failed": self.failed,
            "keys": self.keys,
        }
        if self.violation is not None:
            data["violation"] = self.violation
        return data


# ---------------------------------------------------------------------------
# KV model
# ---------------------------------------------------------------------------


def _apply_model(value: Optional[bytes], op: KvOp) -> tuple[Optional[bytes], Any]:
    """Apply *op* to a single key's value; return (new value, output)."""
    if op.op == PUT:
        return op.value if op.value is not None else b"", value
    if op.op == GET:
        return value, value
    if op.op == DELETE:
        return None, value is not None
    raise AssertionError(f"unreachable operation {op.op!r}")


def _decode_ops(history: OpHistory) -> Optional[dict[CommandId, KvOp]]:
    """Decode every payload as a KV operation, or ``None`` if any is opaque."""
    try:
        return {record.command_id: decode_op(record.payload) for record in history.ops}
    except CodecError:
        return None


# ---------------------------------------------------------------------------
# Total-order pre-pass
# ---------------------------------------------------------------------------


def _reference_order(history: OpHistory) -> tuple[Optional[tuple[CommandId, ...]], Optional[str]]:
    """The longest apply order, after checking prefix consistency."""
    orders = list(history.apply_orders.values())
    if not orders:
        return None, None
    reference = max(orders, key=len)
    for rid, order in history.apply_orders.items():
        if tuple(order) != tuple(reference[: len(order)]):
            return None, (
                f"divergent apply orders: replica {rid} executed "
                f"{[str(c) for c in order[:5]]}... which is not a prefix of the "
                f"longest order {[str(c) for c in reference[:5]]}..."
            )
    return reference, None


def _integrity_pass(
    history: OpHistory, reference: tuple[CommandId, ...]
) -> Optional[str]:
    """Hard total-order integrity checks (no fallback can excuse these).

    An acknowledged operation that no replica ever executed means its reply
    was fabricated — a broken state machine, whatever the clients could
    observe — so it is reported as a violation outright, like divergent
    apply orders.
    """
    positions = set(reference)
    for record in history.ops:
        if record.status == OK and record.command_id not in positions:
            return (
                f"operation {record.command_id} returned ok but never appears "
                "in any replica's apply order"
            )
    return None


def _total_order_pass(
    history: OpHistory,
    reference: tuple[CommandId, ...],
    decoded: Optional[dict[CommandId, KvOp]],
) -> Optional[str]:
    """Validate the apply order as a linearization witness.

    Returns ``None`` on success or a human-readable discrepancy.  With
    *decoded* set, outputs are checked against the KV model; opaque histories
    (append-log / null apps) only get the order and real-time checks.

    Output checking also stands down when the apply order contains commands
    the history never recorded (a partial recording, e.g. one
    :class:`~repro.kvstore.client.SimKVClient` session among other traffic):
    those foreign commands mutate state the model cannot reproduce, so
    comparing outputs against it would reject correct histories.
    """
    if decoded is not None and all(history.get(cid) is not None for cid in reference):
        values: dict[str, bytes] = {}
        for cid in reference:
            record = history.get(cid)
            op = decoded[cid]
            expected: Any
            if op.op == PUT:
                expected = values.get(op.key)
                values[op.key] = op.value if op.value is not None else b""
            elif op.op == GET:
                expected = values.get(op.key)
            else:
                expected = values.pop(op.key, None) is not None
            if record.status == OK and record.output != expected:
                return (
                    f"output mismatch at {cid} ({op.op} {op.key!r}): observed "
                    f"{record.output!r}, the apply order implies {expected!r}"
                )

    # Real-time precedence: no operation may be ordered after one that was
    # invoked only after it had already returned.  Scanning the order from
    # the end with the minimum return time of the suffix makes this O(n).
    sequence = [history.get(cid) for cid in reference]
    min_suffix_return = _NEVER
    for record in reversed(sequence):
        if record is None:
            continue
        if min_suffix_return < record.invoked_at:
            return (
                f"real-time order violated around {record.command_id}: an "
                "operation ordered later returned before this one was invoked"
            )
        if record.status == OK and record.returned_at is not None:
            min_suffix_return = min(min_suffix_return, record.returned_at)
    return None


# ---------------------------------------------------------------------------
# Wing–Gong search (per key)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Entry:
    """One operation prepared for the per-key search."""

    invoked: float
    returned: float  # _NEVER while pending
    op: KvOp
    output: Any
    completed: bool
    command_id: CommandId


def _search_key(entries: list[_Entry], max_states: int = 2_000_000) -> bool:
    """Wing–Gong search over one key's operations.

    An operation is a *candidate* for the next linearization point when every
    other remaining operation was still outstanding at its invocation (no
    remaining op returned before it was invoked).  Completed candidates must
    reproduce their observed output; operations the client never saw return
    may either take effect (linearized like any other) or be left behind —
    leftovers are harmless because only completed operations must be placed.
    """
    indexed = tuple(range(len(entries)))
    seen: set[tuple[frozenset[int], Optional[bytes]]] = set()

    def recurse(remaining: frozenset[int], value: Optional[bytes]) -> bool:
        if not any(entries[i].completed for i in remaining):
            return True
        state = (remaining, value)
        if state in seen:
            return False
        if len(seen) >= max_states:
            raise CheckerError(
                f"linearizability search exceeded {max_states} states for one key"
            )
        seen.add(state)
        for i in sorted(remaining):
            entry = entries[i]
            if any(
                entries[j].returned < entry.invoked for j in remaining if j != i
            ):
                continue
            new_value, output = _apply_model(value, entry.op)
            if entry.completed and output != entry.output:
                continue
            if recurse(remaining - {i}, new_value):
                return True
        return False

    return recurse(frozenset(indexed), None)


def _wing_gong_pass(
    history: OpHistory, decoded: dict[CommandId, KvOp]
) -> tuple[bool, Optional[str], int]:
    """Per-key Wing–Gong search; returns (ok, violation, key count)."""
    by_key: dict[str, list[_Entry]] = {}
    for record in history.ops:
        op = decoded[record.command_id]
        completed = record.status == OK
        by_key.setdefault(op.key, []).append(
            _Entry(
                invoked=record.invoked_at,
                returned=record.returned_at if completed and record.returned_at is not None else _NEVER,
                op=op,
                output=record.output,
                completed=completed,
                command_id=record.command_id,
            )
        )
    for key, entries in sorted(by_key.items()):
        entries.sort(key=lambda e: (e.invoked, e.returned))
        if not _search_key(entries):
            return False, (
                f"no linearization exists for key {key!r} "
                f"({len(entries)} operations)"
            ), len(by_key)
    return True, None, len(by_key)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_history(history: OpHistory) -> CheckReport:
    """Decide whether *history* is linearizable under the KV model.

    The history should record *all* client traffic of the run (the
    experiment backends do).  A partial recording alongside unrecorded
    traffic is still checked for total-order integrity and real-time
    precedence via its apply orders, but output validation stands down —
    and without apply orders, the Wing–Gong search may reject a correct
    partial history whose reads observed unrecorded writes.
    """
    decoded = _decode_ops(history)
    counts = dict(
        ops=len(history),
        completed=history.count(OK),
        pending=history.count("pending"),
        failed=history.count("fail"),
    )
    keys = len({op.key for op in decoded.values()}) if decoded is not None else 0

    reference, divergence = _reference_order(history)
    if divergence is not None:
        return CheckReport(
            linearizable=False, method="total-order", keys=keys,
            violation=divergence, **counts,
        )

    if reference is not None:
        integrity = _integrity_pass(history, reference)
        if integrity is not None:
            return CheckReport(
                linearizable=False, method="total-order", keys=keys,
                violation=integrity, **counts,
            )
        discrepancy = _total_order_pass(history, reference, decoded)
        if discrepancy is None:
            return CheckReport(
                linearizable=True, method="total-order", keys=keys, **counts
            )
        if decoded is None:
            # Opaque history: no model to search against, the order evidence
            # is all there is.
            return CheckReport(
                linearizable=False, method="total-order", keys=keys,
                violation=discrepancy, **counts,
            )
        ok, violation, keys = _wing_gong_pass(history, decoded)
        return CheckReport(
            linearizable=ok, method="total-order+wing-gong", keys=keys,
            violation=violation if not ok else None, **counts,
        )

    if decoded is None:
        raise CheckerError(
            "history has neither decodable KV operations nor apply orders; "
            "nothing to check"
        )
    ok, violation, keys = _wing_gong_pass(history, decoded)
    return CheckReport(
        linearizable=ok, method="wing-gong", keys=keys,
        violation=violation if not ok else None, **counts,
    )


__all__ = ["CheckReport", "CheckerError", "check_history"]
