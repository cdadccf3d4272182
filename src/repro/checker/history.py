"""Operation histories: what clients invoked, what came back, and when.

An :class:`OpHistory` is the raw material of consistency checking: one
:class:`OpRecord` per client operation (its payload, the site it was
submitted at, invoke/return times in experiment microseconds, and the
observed output), plus the per-replica *apply orders* — the sequence in which
each replica's state machine executed committed commands.  Both experiment
backends emit one when a spec sets ``record_history``; the
:class:`HistoryRecorder` helper captures one from any
:class:`~repro.sim.cluster.SimulatedCluster` (workload generators and
:class:`~repro.kvstore.client.SimKVClient` sessions alike).

Histories serialize to plain dictionaries so adversarial cases can be
committed as fixtures and replayed through the checker without re-running
the experiment that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional

from ..types import Command, CommandId, Micros, ReplicaId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a heavy import
    from ..sim.cluster import ReplyEvent, SimulatedCluster

#: Op lifecycle states.
PENDING = "pending"  #: invoked, fate unknown when the run ended
OK = "ok"  #: returned a committed result to the client
FAILED = "fail"  #: the client gave up (timeout); the op may still commit


@dataclass
class OpRecord:
    """One client operation: invocation, and (maybe) its response."""

    client: str
    seqno: int
    replica_id: ReplicaId
    payload: bytes
    invoked_at: Micros
    returned_at: Optional[Micros] = None
    output: Any = None
    status: str = PENDING

    @property
    def command_id(self) -> CommandId:
        return CommandId(self.client, self.seqno)

    @property
    def completed(self) -> bool:
        return self.status == OK

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "client": self.client,
            "seqno": self.seqno,
            "replica_id": self.replica_id,
            "payload": self.payload.hex(),
            "invoked_at": self.invoked_at,
            "status": self.status,
        }
        if self.returned_at is not None:
            data["returned_at"] = self.returned_at
        if self.status == OK:
            data["output"] = _encode_output(self.output)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OpRecord":
        return cls(
            client=str(data["client"]),
            seqno=int(data["seqno"]),
            replica_id=int(data["replica_id"]),
            payload=bytes.fromhex(data["payload"]),
            invoked_at=int(data["invoked_at"]),
            returned_at=(
                int(data["returned_at"]) if data.get("returned_at") is not None else None
            ),
            output=_decode_output(data.get("output")),
            status=str(data.get("status", PENDING)),
        )


def _encode_output(output: Any) -> dict[str, Any]:
    """JSON-safe tagged encoding of a state-machine output."""
    if output is None:
        return {"t": "none"}
    if isinstance(output, bool):
        return {"t": "bool", "v": output}
    if isinstance(output, int):
        return {"t": "int", "v": output}
    if isinstance(output, (bytes, bytearray)):
        return {"t": "bytes", "v": bytes(output).hex()}
    if isinstance(output, str):
        return {"t": "str", "v": output}
    return {"t": "repr", "v": repr(output)}


def _decode_output(data: Any) -> Any:
    if data is None:
        return None
    tag = data["t"]
    if tag == "none":
        return None
    if tag == "bytes":
        return bytes.fromhex(data["v"])
    return data["v"]


class OpHistory:
    """A recorded operation history plus per-replica apply orders."""

    def __init__(self) -> None:
        self.ops: list[OpRecord] = []
        self._index: dict[CommandId, int] = {}
        #: Replica id -> the command ids its state machine applied, in order.
        self.apply_orders: dict[ReplicaId, tuple[CommandId, ...]] = {}

    # -- recording -----------------------------------------------------------

    def invoke(
        self, command_id: CommandId, replica_id: ReplicaId, payload: bytes, at: Micros
    ) -> None:
        """Record an operation leaving a client toward *replica_id*."""
        if command_id in self._index:
            return
        self._index[command_id] = len(self.ops)
        self.ops.append(
            OpRecord(
                client=command_id.client,
                seqno=command_id.seqno,
                replica_id=replica_id,
                payload=payload,
                invoked_at=at,
            )
        )

    def complete(self, command_id: CommandId, output: Any, at: Micros) -> None:
        """Record the committed response of a previously invoked operation.

        An operation the client already gave up on (:meth:`fail`) stays
        failed even if its commit reply arrives later: the client never
        observed the response, so treating it as an ``ok`` would invent a
        real-time constraint that did not exist.
        """
        index = self._index.get(command_id)
        if index is None:
            return
        record = self.ops[index]
        if record.status != PENDING:
            return
        record.returned_at = at
        record.output = output
        record.status = OK

    def fail(self, command_id: CommandId, at: Micros) -> None:
        """Record that the client gave up on an operation (it may still commit)."""
        index = self._index.get(command_id)
        if index is None:
            return
        record = self.ops[index]
        if record.status == PENDING:
            record.returned_at = at
            record.status = FAILED

    def record_apply_orders(
        self, orders: Mapping[ReplicaId, Iterable[CommandId]]
    ) -> None:
        """Record the per-replica state-machine apply orders (end of run)."""
        self.apply_orders = {rid: tuple(order) for rid, order in orders.items()}

    def add(self, record: OpRecord) -> None:
        """Append an existing record (splitting/merging histories)."""
        if record.command_id in self._index:
            return
        self._index[record.command_id] = len(self.ops)
        self.ops.append(record)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.ops)

    def get(self, command_id: CommandId) -> Optional[OpRecord]:
        index = self._index.get(command_id)
        return self.ops[index] if index is not None else None

    def count(self, status: str) -> int:
        return sum(1 for op in self.ops if op.status == status)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops": [op.to_dict() for op in self.ops],
            "apply_orders": {
                str(rid): [[cid.client, cid.seqno] for cid in order]
                for rid, order in self.apply_orders.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OpHistory":
        history = cls()
        for entry in data.get("ops", []):
            record = OpRecord.from_dict(entry)
            history._index[record.command_id] = len(history.ops)
            history.ops.append(record)
        history.apply_orders = {
            int(rid): tuple(CommandId(str(c), int(s)) for c, s in order)
            for rid, order in data.get("apply_orders", {}).items()
        }
        return history


class HistoryRecorder:
    """Captures an :class:`OpHistory` from a simulated cluster.

    Hooks the cluster's submit and reply paths, so every client command —
    whether issued by the workload generators or a
    :class:`~repro.kvstore.client.SimKVClient` — is recorded with its invoke
    and return times.  Call :meth:`finish` once the run is over to snapshot
    the per-replica apply orders and obtain the final history.
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self._cluster = cluster
        self.history = OpHistory()
        cluster.on_submit(self._on_submit)
        cluster.on_reply(self._on_reply)

    def _on_submit(self, replica_id: ReplicaId, command: Command, at: Micros) -> None:
        self.history.invoke(command.command_id, replica_id, command.payload, at)

    def _on_reply(self, event: "ReplyEvent") -> None:
        self.history.complete(event.command_id, event.output, event.time)

    def finish(self) -> OpHistory:
        """Snapshot apply orders from the cluster and return the history."""
        self.history.record_apply_orders(self._cluster.execution_orders())
        return self.history


__all__ = [
    "PENDING",
    "OK",
    "FAILED",
    "OpRecord",
    "OpHistory",
    "HistoryRecorder",
]
