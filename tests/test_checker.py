"""Unit tests for the consistency checker (histories + linearizability).

Includes the committed negative case the acceptance criteria require: a
seeded history with a stale read is rejected by the checker.
"""

from __future__ import annotations

import pytest

from repro.checker import CheckerError, HistoryRecorder, OpHistory, check_history
from repro.kvstore.client import SimKVClient
from repro.kvstore.commands import encode_delete, encode_get, encode_put
from repro.types import CommandId

from tests.helpers import make_cluster


def record(
    history: OpHistory,
    client: str,
    seq: int,
    payload: bytes,
    invoked: int,
    returned: int | None = None,
    output=None,
    status: str = "ok",
    replica: int = 0,
) -> CommandId:
    """Append one op to *history* through its public recording API."""
    cid = CommandId(client, seq)
    history.invoke(cid, replica, payload, invoked)
    if status == "ok":
        history.complete(cid, output, returned)
    elif status == "fail":
        history.fail(cid, returned)
    return cid


class TestWingGongSearch:
    """Histories without apply orders exercise the search directly."""

    def test_sequential_session_is_linearizable(self):
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        record(h, "a", 2, encode_get("k"), 20, 30, b"1")
        record(h, "a", 3, encode_put("k", b"2"), 40, 50, b"1")
        record(h, "a", 4, encode_delete("k"), 60, 70, True)
        record(h, "a", 5, encode_get("k"), 80, 90, None)
        report = check_history(h)
        assert report.linearizable
        assert report.method == "wing-gong"
        assert report.keys == 1

    def test_concurrent_overlapping_ops_allowed(self):
        # Two puts overlap in real time; a get overlapping both may return
        # either value — here the second one.
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, 50, None)
        record(h, "b", 1, encode_put("k", b"2"), 10, 60, b"1")
        record(h, "c", 1, encode_get("k"), 20, 70, b"2")
        assert check_history(h).linearizable

    def test_stale_read_is_rejected(self):
        # The committed negative case: a get invoked strictly after a later
        # put returned must not observe the overwritten value.
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"old"), 0, 10, None)
        record(h, "a", 2, encode_put("k", b"new"), 20, 30, b"old")
        record(h, "b", 1, encode_get("k"), 40, 50, b"old")  # stale!
        report = check_history(h)
        assert not report.linearizable
        assert "k" in report.violation

    def test_lost_update_is_rejected(self):
        # Two non-overlapping puts whose outputs both claim the key was
        # empty: the second writer must have seen the first one's value.
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        record(h, "b", 1, encode_put("k", b"2"), 20, 30, None)  # lost update
        assert not check_history(h).linearizable

    def test_pending_op_may_take_effect(self):
        # A put whose client never saw the reply still explains the read.
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, None, status="pending")
        record(h, "b", 1, encode_get("k"), 100, 110, b"1")
        assert check_history(h).linearizable

    def test_pending_op_may_be_dropped(self):
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, None, status="pending")
        record(h, "b", 1, encode_get("k"), 100, 110, None)
        assert check_history(h).linearizable

    def test_failed_op_is_not_a_real_time_anchor(self):
        # A timed-out op may commit arbitrarily late; its give-up time must
        # not be treated as an observed return.
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, 10, None, status="fail")
        record(h, "b", 1, encode_get("k"), 100, 110, None)
        record(h, "c", 1, encode_get("k"), 120, 130, b"1")
        assert check_history(h).linearizable

    def test_keys_are_checked_independently(self):
        h = OpHistory()
        record(h, "a", 1, encode_put("x", b"1"), 0, 10, None)
        record(h, "a", 2, encode_put("y", b"1"), 20, 30, None)
        record(h, "b", 1, encode_get("x"), 40, 50, b"1")
        record(h, "b", 2, encode_get("y"), 60, 70, None)  # stale on y only
        report = check_history(h)
        assert not report.linearizable
        assert "y" in report.violation

    def test_empty_history(self):
        assert check_history(OpHistory()).linearizable

    def test_opaque_history_without_apply_orders_is_undecidable(self):
        h = OpHistory()
        record(h, "a", 1, b"\xff\xff-not-wire-format", 0, 10, None)
        with pytest.raises(CheckerError):
            check_history(h)

    def test_opaque_history_with_apply_orders_gets_order_checks(self):
        # Non-KV apps (append-log / null) still get the total-order and
        # real-time checks from their apply orders; only the model-output
        # comparison needs decodable KV payloads.
        from repro.experiment import ExperimentSpec, WorkloadSpec, check_spec

        spec = ExperimentSpec(
            name="opaque",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2, app="append-log"),
            duration_s=0.6,
            warmup_s=0.1,
            seed=2,
        )
        run = check_spec(spec)
        assert run.linearizable
        assert run.report.method == "total-order"
        assert run.report.keys == 0

    @pytest.mark.parametrize(
        "backend,options",
        [("sim", {}), ("async", {"time_scale": 50, "submit_timeout": 5.0})],
    )
    def test_check_spec_reports_one_verdict_per_run(self, backend, options):
        from repro.checker.linearizability import CheckReport
        from repro.experiment import ExperimentSpec, WorkloadSpec, check_spec

        spec = ExperimentSpec(
            name="one-group",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2, think_time_max_ms=30.0),
            duration_s=0.6,
            warmup_s=0.1,
            seed=5,
        )
        run = check_spec(spec, backend=backend, **options)
        assert isinstance(run.report, CheckReport)
        assert run.linearizable, run.report.violation
        assert run.report.completed > 0
        assert run.describe() == f"one-group [{backend}] clock-rsm: {run.report.describe()}"
        payload = run.to_dict()
        assert payload["check"] == run.report.to_dict()
        assert payload["result"]["name"] == "one-group"


class TestTotalOrderPass:
    """Histories carrying apply orders take the O(n) pre-pass."""

    @staticmethod
    def base_history() -> tuple[OpHistory, list[CommandId]]:
        h = OpHistory()
        c1 = record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        c2 = record(h, "b", 1, encode_put("k", b"2"), 20, 30, b"1")
        c3 = record(h, "a", 2, encode_get("k"), 40, 50, b"2")
        return h, [c1, c2, c3]

    def test_consistent_orders_accepted(self):
        h, order = self.base_history()
        h.record_apply_orders({0: order, 1: order[:2], 2: order})
        report = check_history(h)
        assert report.linearizable
        assert report.method == "total-order"

    def test_divergent_orders_rejected_outright(self):
        h, order = self.base_history()
        h.record_apply_orders({0: order, 1: [order[1], order[0]]})
        report = check_history(h)
        assert not report.linearizable
        assert "divergent" in report.violation

    def test_committed_op_missing_from_order_rejected(self):
        h, order = self.base_history()
        h.record_apply_orders({0: order[:2]})  # the acked get never executed
        report = check_history(h)
        assert not report.linearizable
        assert "never appears" in report.violation

    def test_real_time_anomaly_falls_back_to_search(self):
        # The apply order contradicts real time (c2 ordered before c1 even
        # though c1 returned before c2 was invoked), so the order is not a
        # usable witness — but the history itself is linearizable (in the
        # order c1, c2, c3), which the Wing–Gong fallback establishes.
        h, order = self.base_history()
        c1, c2, c3 = order
        h.record_apply_orders({0: [c2, c1, c3]})
        report = check_history(h)
        assert report.linearizable
        assert report.method == "total-order+wing-gong"

    def test_output_mismatch_falls_back_and_rejects(self):
        h = OpHistory()
        c1 = record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        c2 = record(h, "b", 1, encode_get("k"), 20, 30, b"9")  # impossible value
        h.record_apply_orders({0: [c1, c2]})
        report = check_history(h)
        assert not report.linearizable

    def test_partial_recording_with_foreign_commands_is_not_rejected(self):
        # A history recorded for one client while other (unrecorded) traffic
        # ran: the apply order contains a foreign PUT whose effect the model
        # cannot reproduce, so output validation stands down and a GET that
        # correctly observed the foreign value is NOT a violation.
        h = OpHistory()
        mine = record(h, "mine", 1, encode_get("k"), 100, 120, b"v1")
        foreign = CommandId("other-client", 1)
        h.record_apply_orders({0: [foreign, mine]})
        report = check_history(h)
        assert report.linearizable
        assert report.method == "total-order"

    def test_unacked_op_in_order_is_fine(self):
        # An op the client gave up on may still appear in the apply order
        # (it committed); its effect must be replayed, its output ignored.
        h = OpHistory()
        c1 = record(h, "a", 1, encode_put("k", b"1"), 0, 5, None, status="fail")
        c2 = record(h, "b", 1, encode_get("k"), 100, 110, b"1")
        h.record_apply_orders({0: [c1, c2]})
        report = check_history(h)
        assert report.linearizable
        assert report.method == "total-order"


class TestHistorySerialization:
    def test_round_trip(self):
        h = OpHistory()
        c1 = record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        record(h, "b", 1, encode_get("k"), 20, None, status="pending")
        record(h, "c", 1, encode_delete("k"), 30, 40, True)
        h.record_apply_orders({0: [c1], 1: []})
        back = OpHistory.from_dict(h.to_dict())
        assert [op.to_dict() for op in back.ops] == [op.to_dict() for op in h.ops]
        assert back.apply_orders == h.apply_orders
        assert check_history(back).linearizable == check_history(h).linearizable

    def test_counts(self):
        h = OpHistory()
        record(h, "a", 1, encode_put("k", b"1"), 0, 10, None)
        record(h, "a", 2, encode_put("k", b"2"), 20, None, status="pending")
        record(h, "a", 3, encode_put("k", b"3"), 30, 40, status="fail")
        assert (h.count("ok"), h.count("pending"), h.count("fail")) == (1, 1, 1)


class TestKVClientHistoryHook:
    """SimKVClient sessions record checkable histories."""

    def test_scripted_session_checks_out(self, any_protocol):
        cluster = make_cluster(any_protocol, use_kv=True)
        recorder = HistoryRecorder(cluster)
        client = SimKVClient(cluster, replica_id=0)
        assert client.put("user:1", b"ada") is None
        assert client.get("user:1") == b"ada"
        assert client.put("user:1", b"grace") == b"ada"
        assert client.delete("user:1") is True
        assert client.get("user:1") is None
        report = check_history(recorder.finish())
        assert report.linearizable
        assert report.completed == 5

    def test_recorder_captures_cluster_wide_traffic(self):
        cluster = make_cluster("clock-rsm", use_kv=True)
        recorder = HistoryRecorder(cluster)
        a = SimKVClient(cluster, replica_id=0)
        b = SimKVClient(cluster, replica_id=1)
        a.put("k", b"1")
        assert b.get("k") == b"1"
        history = recorder.finish()
        assert len(history) == 2
        assert check_history(history).linearizable
