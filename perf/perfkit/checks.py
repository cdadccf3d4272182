"""Correctness checks every run makes after drain, off the timed path.

A benchmark number from a run that lost a write or diverged is not a number;
the runner reports ``failed_share = 1.0`` and exits non-zero when any check
here fails.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.checker import OpHistory, OpRecord, check_history
from repro.checker.history import FAILED, OK
from repro.types import CommandId, majority

from .loadgen import OpSample


def check_orders(
    orders: Mapping[int, list[CommandId]], acked: Iterable[tuple[CommandId, int]]
) -> list[str]:
    """Execution orders are duplicate-free prefixes of the longest one, and
    every acknowledged command was executed by its origin and by a majority."""
    reference = max(orders.values(), key=len)
    for rid, order in orders.items():
        if order != reference[: len(order)]:
            return [f"replica {rid}'s execution order is not a prefix of the longest"]
    position = {command_id: index for index, command_id in enumerate(reference)}
    if len(position) != len(reference):
        return ["a command was executed twice"]
    # Orders are prefixes of one sequence, so "replica r executed it" is
    # "its position is below len(orders[r])".
    lengths = {rid: len(order) for rid, order in orders.items()}
    quorum_length = sorted(lengths.values(), reverse=True)[majority(len(orders)) - 1]
    for command_id, origin in acked:
        index = position.get(command_id)
        if index is None or index >= lengths[origin]:
            return [f"{command_id} was acknowledged but its origin {origin} never executed it"]
        if index >= quorum_length:
            return [f"{command_id} was acknowledged but no majority executed it"]
    return []


def check_snapshots(snapshots: Optional[Mapping[int, bytes]]) -> list[str]:
    """After quiescence every replica's state machine serialises identically."""
    if snapshots is None:
        return ["replicas did not reach the same executed count before the drain deadline"]
    if len(set(snapshots.values())) != 1:
        return ["state-machine snapshots differ between replicas after quiescence"]
    return []


def build_history(
    samples: Sequence[OpSample], orders: Mapping[int, Sequence[CommandId]], origin: float
) -> OpHistory:
    """The checker's history of a live run, in integer µs since *origin*."""
    history = OpHistory()
    for sample in samples:
        command_id = sample.command_id
        sent = int((sample.sent - origin) * 1e6)
        if sample.replied is None:
            record = OpRecord(
                command_id.client, command_id.seqno, sample.replica_id, sample.payload,
                sent, returned_at=sent, status=FAILED,
            )
        else:
            record = OpRecord(
                command_id.client, command_id.seqno, sample.replica_id, sample.payload,
                sent, returned_at=int((sample.replied - origin) * 1e6),
                output=sample.output, status=OK,
            )
        history.add(record)
    history.record_apply_orders(orders)
    return history


def timed_check(histories: Sequence[OpHistory], budget_s: float) -> tuple[list[str], float, int]:
    """Check every history; repeat until *budget_s* of checking has been timed.

    Returns (problems, median ops/s over the passes, passes).
    """
    problems: list[str] = []
    ops = sum(len(history) for history in histories)
    rates: list[float] = []
    spent = 0.0
    while not rates or spent < budget_s:
        start = time.perf_counter()
        reports = [check_history(history) for history in histories]
        elapsed = time.perf_counter() - start
        spent += elapsed
        rates.append(ops / elapsed)
        if len(rates) == 1:
            problems = [r.describe() for r in reports if not r.linearizable]
    return problems, statistics.median(rates), len(rates)


def verify(
    orders: Mapping[int, Sequence[CommandId]],
    acked: Iterable[tuple[CommandId, int]],
    snapshots: Optional[Mapping[int, bytes]],
) -> list[str]:
    """Order, acknowledgement and state checks of one cluster."""
    return check_orders(orders, acked) + check_snapshots(snapshots)
