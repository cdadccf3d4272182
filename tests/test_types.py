"""Tests for repro.types: timestamps, commands, and helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ClientError
from repro.types import (
    Command,
    CommandId,
    Timestamp,
    ZERO_TS,
    check_seqno,
    majority,
    micros_to_ms,
    micros_to_seconds,
    ms_to_micros,
    seconds_to_micros,
)


class TestTimestamp:
    def test_ordering_by_micros_first(self):
        assert Timestamp(5, 3) < Timestamp(6, 0)
        assert Timestamp(6, 0) > Timestamp(5, 3)

    def test_ties_broken_by_replica_id(self):
        assert Timestamp(5, 1) < Timestamp(5, 2)
        assert Timestamp(5, 2) > Timestamp(5, 1)

    def test_equality(self):
        assert Timestamp(5, 1) == Timestamp(5, 1)
        assert Timestamp(5, 1) != Timestamp(5, 2)

    def test_zero_ts_is_smaller_than_any_real_timestamp(self):
        assert ZERO_TS < Timestamp(0, 0)
        assert ZERO_TS < Timestamp(1, 0)

    def test_hashable_and_usable_as_dict_key(self):
        d = {Timestamp(1, 0): "a", Timestamp(1, 1): "b"}
        assert d[Timestamp(1, 0)] == "a"
        assert d[Timestamp(1, 1)] == "b"

    def test_immutable(self):
        with pytest.raises(Exception):
            Timestamp(1, 0).micros = 5  # type: ignore[misc]

    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=0, max_value=100),
    )
    def test_total_order_is_lexicographic(self, m1, r1, m2, r2):
        a, b = Timestamp(m1, r1), Timestamp(m2, r2)
        assert (a < b) == ((m1, r1) < (m2, r2))
        assert (a == b) == ((m1, r1) == (m2, r2))


class TestTimeConversions:
    def test_ms_to_micros(self):
        assert ms_to_micros(1.0) == 1_000
        assert ms_to_micros(0.5) == 500
        assert ms_to_micros(83.0) == 83_000

    def test_micros_to_ms(self):
        assert micros_to_ms(1_000) == 1.0
        assert micros_to_ms(1_500) == 1.5

    def test_seconds_round_trip(self):
        assert seconds_to_micros(2.5) == 2_500_000
        assert micros_to_seconds(2_500_000) == 2.5

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_ms_round_trip_within_microsecond(self, ms):
        assert abs(micros_to_ms(ms_to_micros(ms)) - ms) <= 0.001


class TestMajority:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (9, 5)]
    )
    def test_majority_sizes(self, n, expected):
        assert majority(n) == expected

    def test_majority_rejects_non_positive(self):
        with pytest.raises(ValueError):
            majority(0)
        with pytest.raises(ValueError):
            majority(-3)

    @given(st.integers(min_value=1, max_value=1000))
    def test_majority_properties(self, n):
        m = majority(n)
        # Any two majorities intersect: 2m > n.
        assert 2 * m > n
        # A majority is never larger than the cluster.
        assert m <= n


class TestCommands:
    def test_command_size_is_payload_length(self):
        cmd = Command(CommandId("c", 1), b"abcde")
        assert cmd.size == 5

    def test_command_id_is_hashable(self):
        assert {CommandId("c", 1): 1}[CommandId("c", 1)] == 1

    def test_check_seqno_accepts_exactly_the_signed_64_bit_range(self):
        for seqno in (-(2**63), 0, 2**63 - 1):
            check_seqno(CommandId("c", seqno))
        for seqno in (-(2**63) - 1, 2**63):
            with pytest.raises(ClientError):
                check_seqno(CommandId("c", seqno))
