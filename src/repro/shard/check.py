"""Consistency checking for sharded deployments.

Linearizability is a *local* property: a history over many objects is
linearizable iff its per-object sub-histories are (Herlihy & Wing 1990,
Theorem 1), and the shard router keeps every key on exactly one shard.  A
sharded run is therefore checked shard by shard — each shard group's
history, with its own apply orders, goes through the ordinary
:func:`repro.checker.check_history` — plus one cross-shard sanity pass over
client ordering, because the per-shard checks silently assume a sane client
harness and a broken one would otherwise vacuously pass.  The pass adapts to
the workload: closed-loop clients must be *sequential* (never invoking an
operation before the previous one returned), while open-loop clients
(saturating windows, pipelined submissions) are only required to invoke in
submission (seqno) order — demanding sequentiality of them would false-flag
healthy runs (see :func:`spec_is_closed_loop`).

What sharding deliberately gives up is also visible here: there is no total
order *across* shards, so no cross-shard snapshot guarantee is checked —
only per-key linearizability and per-client ordering, which is the
consistency contract a sharded Clock-RSM offers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

from ..checker.history import OpHistory
from ..checker.linearizability import CheckerError, CheckReport, check_history
from ..experiment.check import CheckedRun
from ..experiment.spec import ExperimentSpec
from ..kvstore.commands import read_op
from .deployment import ShardedDeployment
from .router import ShardRouter


def split_history(history: OpHistory, router: ShardRouter) -> dict[int, OpHistory]:
    """Partition one recorded history by the shard that owns each op's key.

    This is for histories recorded through a shared
    :class:`~repro.shard.client.ShardedKVClient` session; apply orders are
    per shard group and must be recorded onto the returned histories by the
    caller (they are not derivable from the merged history).
    """
    shards: dict[int, OpHistory] = {index: OpHistory() for index in range(router.shards)}
    for op in history:
        try:
            _, key, _ = read_op(op.payload)
        except Exception as exc:
            raise CheckerError(
                f"cannot route op {op.command_id} to a shard: {exc}"
            ) from exc
        shards[router.shard_of(key)].add(op)
    return shards


def client_order_violation(
    histories: Sequence[OpHistory], closed_loop: bool = True
) -> Optional[str]:
    """Check that every client's operation stream is properly ordered.

    With ``closed_loop=True`` (the default), a client must be *sequential*:
    it never invokes an operation before its previous operation (possibly on
    another shard) returned.  Operations still pending when the run ended
    terminate their client's stream, so they constrain nothing.

    With ``closed_loop=False`` — saturating workloads and pipelined clients,
    which intentionally keep a window of operations outstanding — the
    sequential condition does not hold and must not be demanded: the
    invariant an open-loop client still guarantees is that its seqnos are
    assigned in submission order, so invocation times must be non-decreasing
    in seqno.  Demanding the closed-loop condition of an open-loop run
    false-flags perfectly healthy histories (the PR-4 gap).

    Returns a description of the first violation, or ``None``.
    """
    by_client: dict[str, list] = {}
    for history in histories:
        for op in history:
            by_client.setdefault(op.client, []).append(op)
    for client, ops in by_client.items():
        ops.sort(key=lambda op: op.seqno)
        previous = None
        for op in ops:
            if previous is not None:
                if closed_loop:
                    if (
                        previous.returned_at is not None
                        and op.invoked_at < previous.returned_at
                    ):
                        return (
                            f"client {client!r} invoked op #{op.seqno} at "
                            f"{op.invoked_at} before op #{previous.seqno} returned "
                            f"at {previous.returned_at}"
                        )
                elif op.invoked_at < previous.invoked_at:
                    return (
                        f"client {client!r} invoked op #{op.seqno} at "
                        f"{op.invoked_at}, before op #{previous.seqno} invoked at "
                        f"{previous.invoked_at} (submission order broken)"
                    )
            previous = op
    return None


def spec_is_closed_loop(spec: ExperimentSpec) -> bool:
    """Whether *spec*'s clients await each commit before the next invocation.

    Saturating workloads keep a window of outstanding commands per site, and
    a ``pipeline_depth`` above one lets even think-time clients race several
    submissions — both are open-loop in the sense the cross-shard
    client-order pass cares about.
    """
    if spec.workload.scenario == "saturating":
        return False
    if spec.batching is not None and spec.batching.pipeline_depth > 1:
        return False
    return True


@dataclass
class ShardedCheckReport:
    """The verdict of a sharded run: one report per shard plus the
    cross-shard client-order pass.  Mirrors the
    :class:`~repro.checker.linearizability.CheckReport` interface so CLI and
    tests treat sharded and single-group verdicts uniformly."""

    shard_reports: list[CheckReport]
    client_order: Optional[str] = None
    #: Which client-order condition was applied: sequential (closed-loop) or
    #: submission-order (open-loop; saturating / pipelined clients).
    closed_loop: bool = True

    @property
    def linearizable(self) -> bool:
        return self.client_order is None and all(
            report.linearizable for report in self.shard_reports
        )

    @property
    def violation(self) -> Optional[str]:
        for index, report in enumerate(self.shard_reports):
            if not report.linearizable:
                return f"shard {index}: {report.violation}"
        if self.client_order is not None:
            return f"cross-shard client order: {self.client_order}"
        return None

    @property
    def ops(self) -> int:
        return sum(report.ops for report in self.shard_reports)

    def describe(self) -> str:
        mode = "sequential" if self.closed_loop else "open-loop"
        if self.linearizable:
            per_shard = ", ".join(
                f"s{index}:{report.ops}" for index, report in enumerate(self.shard_reports)
            )
            return (
                f"linearizable on every shard ({len(self.shard_reports)} shards, "
                f"{self.ops} ops: {per_shard}; cross-shard client order ok, "
                f"{mode})"
            )
        return f"NOT linearizable: {self.violation}"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "linearizable": self.linearizable,
            "method": "per-shard",
            "shards": [report.to_dict() for report in self.shard_reports],
            "client_order_ok": self.client_order is None,
            "client_order_mode": "sequential" if self.closed_loop else "open-loop",
        }
        if self.violation is not None:
            data["violation"] = self.violation
        return data


def check_sharded_spec(
    spec: ExperimentSpec, backend: str = "sim", **options: Any
) -> CheckedRun:
    """Run a sharded *spec* with history recording and check every shard.

    The returned :class:`~repro.experiment.check.CheckedRun` carries the
    aggregate result (per-shard results under ``result.shards``) and a
    :class:`ShardedCheckReport` verdict.
    """
    recorded = replace(spec, record_history=True)
    result = ShardedDeployment(recorded, backend, **options).run()
    assert result.shards is not None  # sharded deployments always attach them
    histories = []
    shard_reports = []
    for shard_result in result.shards:
        assert shard_result.history is not None  # record_history guarantees it
        histories.append(shard_result.history)
        shard_reports.append(check_history(shard_result.history))
    closed_loop = spec_is_closed_loop(spec)
    report = ShardedCheckReport(
        shard_reports=shard_reports,
        client_order=client_order_violation(histories, closed_loop=closed_loop),
        closed_loop=closed_loop,
    )
    return CheckedRun(result=result, report=report)


__all__ = [
    "ShardedCheckReport",
    "check_sharded_spec",
    "client_order_violation",
    "spec_is_closed_loop",
    "split_history",
]
