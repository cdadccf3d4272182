"""Wire-level batch envelopes: framing, reassembly, and ordering properties.

The batch frame (one length prefix, a header value, then N concatenated
message values) must round-trip exactly, survive arbitrary TCP segmentation,
interoperate with single-message frames on the same stream, and — the
property batching must never violate — preserve the per-client submission
order of commands however a stream is split into batches and merged back.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BatchingOptions
from repro.core.messages import Prepare
from repro.errors import TransportError
from repro.net.message import Envelope, EnvelopeBatch, global_registry
from repro.net.tcp import (
    TcpTransport,
    decode_frame_envelopes,
    encode_batch_frame,
    encode_frame,
    read_envelopes,
)
from repro.net.wire import decode_many, encode_many
from repro.protocols.records import CommandBatch, make_unit, unit_commands
from repro.types import Command, CommandId, Timestamp


def _prepare(seqno: int) -> Prepare:
    return Prepare(Command(CommandId("wire", seqno), b"p%d" % seqno), Timestamp(seqno + 1, 0))


def run(coro):
    return asyncio.run(coro)


class TestWireStream:
    def test_encode_decode_many_round_trips(self):
        values = [1, "two", b"three", [4, 5], {"six": 7}, None, True]
        assert decode_many(encode_many(values)) == values

    def test_decode_many_empty(self):
        assert decode_many(b"") == []


class TestBatchFrames:
    def test_batch_frame_round_trips(self):
        messages = [_prepare(i) for i in range(4)]
        batch = EnvelopeBatch.of([Envelope(0, 1, m) for m in messages])
        frame = encode_batch_frame(batch, global_registry)
        envelopes = decode_frame_envelopes(frame[4:], global_registry)
        assert [e.message for e in envelopes] == messages
        assert all(e.src == 0 and e.dst == 1 for e in envelopes)

    def test_single_frame_still_decodes(self):
        envelope = Envelope(2, 0, _prepare(9))
        frame = encode_frame(envelope, global_registry)
        decoded = decode_frame_envelopes(frame[4:], global_registry)
        assert len(decoded) == 1 and decoded[0].message == envelope.message

    def test_nested_command_batch_round_trips(self):
        unit = CommandBatch(tuple(Command(CommandId("c", i), b"x") for i in range(3)))
        message = Prepare(unit, Timestamp(5, 1))
        batch = EnvelopeBatch.of([Envelope(1, 2, message)])
        frame = encode_batch_frame(batch, global_registry)
        decoded = decode_frame_envelopes(frame[4:], global_registry)
        assert decoded[0].message == message

    def test_mixed_channel_batch_rejected(self):
        with pytest.raises(Exception):
            EnvelopeBatch.of([Envelope(0, 1, _prepare(0)), Envelope(0, 2, _prepare(1))])

    def test_miscounted_batch_frame_rejected(self):
        body = global_registry.encode_many(
            [{"src": 0, "dst": 1, "batch": 3}, _prepare(0)]
        )
        with pytest.raises(TransportError):
            decode_frame_envelopes(body, global_registry)

    def test_empty_and_malformed_bodies_rejected(self):
        with pytest.raises(TransportError):
            decode_frame_envelopes(b"", global_registry)
        with pytest.raises(TransportError):
            decode_frame_envelopes(global_registry.encode({"nope": 1}), global_registry)


class TestPartialReadReassembly:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_batch_frame_split_across_segments(self, chunk):
        messages = [_prepare(i) for i in range(5)]
        frame = encode_batch_frame(
            EnvelopeBatch.of([Envelope(0, 1, m) for m in messages]), global_registry
        )

        async def scenario():
            reader = asyncio.StreamReader()
            pending = asyncio.ensure_future(read_envelopes(reader, global_registry))
            for start in range(0, len(frame), chunk):
                reader.feed_data(frame[start : start + chunk])
                await asyncio.sleep(0)
            return await pending

        envelopes = run(scenario())
        assert [e.message for e in envelopes] == messages

    def test_mixed_single_and_batch_frames_on_one_stream(self):
        singles = [Envelope(0, 1, _prepare(i)) for i in range(2)]
        batch = EnvelopeBatch.of([Envelope(0, 1, _prepare(10 + i)) for i in range(3)])
        stream = (
            encode_frame(singles[0], global_registry)
            + encode_batch_frame(batch, global_registry)
            + encode_frame(singles[1], global_registry)
        )

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(stream)
            reader.feed_eof()
            received = []
            for _ in range(3):
                received.extend(await read_envelopes(reader, global_registry))
            return received

        received = run(scenario())
        seqnos = [e.message.command.command_id.seqno for e in received]
        assert seqnos == [0, 10, 11, 12, 1]


class TestTransportCoalescing:
    def test_one_tick_of_sends_arrives_as_one_ordered_group(self):
        async def scenario():
            sender = TcpTransport(
                0, "127.0.0.1:0", {},
                batching=BatchingOptions(max_batch=8, window_us=0),
            )
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(
                lambda env: (received.append(env.message), done.is_set() or (
                    done.set() if len(received) == 12 else None
                ))
            )
            sender.set_handler(lambda env: None)
            await sender.start()
            await receiver.start()
            sender.set_peers({1: receiver.bound_address})
            try:
                for i in range(12):  # one tick: 8 + 4 after chunking
                    sender.send(Envelope(0, 1, _prepare(i)))
                await asyncio.wait_for(done.wait(), timeout=5)
            finally:
                await sender.stop()
                await receiver.stop()
            return received

        received = run(scenario())
        assert [m.command.command_id.seqno for m in received] == list(range(12))


# ---------------------------------------------------------------------------
# The ordering property
# ---------------------------------------------------------------------------

# A client's stream is a list of seqnos; the split is a list of cut sizes.
_streams = st.dictionaries(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.integers(min_value=1, max_value=12),
    min_size=1,
    max_size=3,
)


@given(streams=_streams, data=st.data())
@settings(max_examples=60, deadline=None)
def test_splitting_and_merging_batches_never_reorders_a_client(streams, data):
    """However the submission stream is cut into units (and however those
    units' frames are decoded back), each client's commands come out in
    submission order — batching must never reorder one client's pipeline."""
    # Interleave the clients' commands round-robin into one submission stream.
    submission: list[Command] = []
    progress = {client: 0 for client in streams}
    while any(progress[c] < n for c, n in streams.items()):
        for client, total in sorted(streams.items()):
            if progress[client] < total:
                submission.append(Command(CommandId(client, progress[client]), b""))
                progress[client] += 1

    # Cut the stream into arbitrary non-empty batches.
    units = []
    index = 0
    while index < len(submission):
        cut = data.draw(
            st.integers(min_value=1, max_value=len(submission) - index),
            label="cut",
        )
        units.append(make_unit(submission[index : index + cut]))
        index += cut

    # Ship every unit through the batch frame codec and merge back.
    wrapped = [Envelope(0, 1, unit) for unit in units]
    frame = encode_batch_frame(EnvelopeBatch.of(wrapped), global_registry)
    decoded = decode_frame_envelopes(frame[4:], global_registry)
    merged = [
        command
        for envelope in decoded
        for command in unit_commands(envelope.message)
    ]

    assert merged == submission  # global order preserved end to end
    for client, total in streams.items():
        seqnos = [c.command_id.seqno for c in merged if c.command_id.client == client]
        assert seqnos == list(range(total))
