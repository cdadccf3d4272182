"""Wire-level batch envelopes: framing, reassembly, and ordering properties.

The batch frame (one length prefix, a header value, then N concatenated
message values) must round-trip exactly, survive arbitrary TCP segmentation,
interoperate with single-message frames on the same stream, and — the
property batching must never violate — preserve the per-client submission
order of commands however a stream is split into batches and merged back.
"""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BatchingOptions
from repro.core.messages import ClockTime, Prepare, PrepareOk
from repro.errors import TransportError
from repro.net.message import Envelope, EnvelopeBatch, global_registry
from repro.net.tcp import (
    HELLO_BYTES,
    MAX_FRAME_BYTES,
    READ_BUFFER_BYTES,
    FrameParser,
    TcpTransport,
    decode_frame_envelopes,
    encode_batch_frame,
    encode_frame,
    encode_hello,
)
from repro.net.wire import WireEncoder, decode_many
from repro.protocols.records import CommandBatch, make_unit, unit_commands
from repro.types import Command, CommandId, Timestamp

from tests.wire_reference import WireReference, library_classes

# Type ids are positions in the whole table: the reference knows every class.
_REFERENCE = WireReference(library_classes())


def _prepare(seqno: int) -> Prepare:
    return Prepare(Command(CommandId("wire", seqno), b"p%d" % seqno), Timestamp(seqno + 1, 0))


def run(coro):
    return asyncio.run(coro)


HELLO = encode_hello(global_registry)


def _read(parser: FrameParser, data: bytes) -> None:
    """Land *data* in *parser* as socket reads would: each read fills at
    most the free tail ``get_buffer`` hands out, then ``buffer_updated``."""
    while data:
        free = parser.get_buffer()
        count = min(len(free), len(data))
        free[:count] = data[:count]
        parser.buffer_updated(count)
        data = data[count:]


def _reader(received: list) -> FrameParser:
    """A parser past its peer's hello, dispatching into *received*."""
    parser = FrameParser(global_registry, received.append)
    _read(parser, HELLO)
    return parser


class TestWireStream:
    def test_encode_decode_many_round_trips(self):
        values = [1, "two", b"three", [4, 5], {"six": 7}, None, True]
        buf = bytearray()
        WireEncoder().encode_many_into(buf, values)
        assert decode_many(bytes(buf)) == values

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
        body = _REFERENCE.encode_many([{"src": 0, "dst": 1, "batch": 3}, _prepare(0)])
        with pytest.raises(TransportError):
            decode_frame_envelopes(body, global_registry)

    @pytest.mark.parametrize(
        "src, dst", [("0", 1), (0, None), (1.0, 2), (True, 1), (0, [1])], ids=repr
    )
    def test_a_header_naming_no_replica_ids_is_rejected(self, src, dst):
        # The receiving replica takes the sender from the header: it must be an id.
        for header in ({"src": src, "dst": dst, "message": ClockTime(1)}, {"src": src, "dst": dst, "batch": 1}):
            body = _REFERENCE.encode_many([header, ClockTime(1)][: 2 - ("message" in header)])
            with pytest.raises(TransportError, match="not replica ids"):
                decode_frame_envelopes(body, global_registry)

    def test_empty_and_malformed_bodies_rejected(self):
        with pytest.raises(TransportError):
            decode_frame_envelopes(b"", global_registry)
        with pytest.raises(TransportError):
            decode_frame_envelopes(global_registry.encode({"nope": 1}), global_registry)


class TestFramesSpellTheGrammar:
    """A frame is its length prefix, then the grammar's spelling of its values
    (the independent reference codec's bytes): the header's in-place MAP path
    changes no byte."""

    def test_single_frame_is_prefix_and_reference_body(self):
        envelope = Envelope(2, 0, _prepare(9))
        body = _REFERENCE.encode({"src": 2, "dst": 0, "message": envelope.message})
        assert encode_frame(envelope, global_registry) == struct.pack(">I", len(body)) + body

    def test_batch_frame_is_prefix_and_reference_stream(self):
        messages = [_prepare(1), PrepareOk(Timestamp(5, 1), 2**40), ClockTime(7)]
        batch = EnvelopeBatch.of([Envelope(1, 2, m) for m in messages])
        body = _REFERENCE.encode_many([{"src": 1, "dst": 2, "batch": 3}, *messages])
        assert encode_batch_frame(batch, global_registry) == struct.pack(">I", len(body)) + body

    def test_maps_mixing_header_pairs_with_other_pairs_match_the_reference(self):
        # In-place pairs (STR key, int64 or registered object), then the rest
        # through the generic coder: the pair order is the dict's either way.
        value = {
            "src": 0, "message": ClockTime(3), "dst": -(2**63), "big": 2**70,
            "none": None, 7: "int key", "flag": True, "after": ClockTime(4),
        }  # fmt: skip
        data = global_registry.encode(value)
        assert data == _REFERENCE.encode(value)
        decoded = global_registry.decode(data)
        assert repr(decoded) == repr(_REFERENCE.decode(data)) == repr(value)
        assert list(decoded) == list(value)


class TestFrameParserReassembly:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_batch_frame_split_across_segments(self, chunk):
        messages = [_prepare(i) for i in range(5)]
        frame = encode_batch_frame(
            EnvelopeBatch.of([Envelope(0, 1, m) for m in messages]), global_registry
        )
        envelopes: list = []
        parser = _reader(envelopes)
        for start in range(0, len(frame), chunk):
            _read(parser, frame[start : start + chunk])
        assert [e.message for e in envelopes] == messages

    def test_mixed_single_and_batch_frames_on_one_stream(self):
        singles = [Envelope(0, 1, _prepare(i)) for i in range(2)]
        batch = EnvelopeBatch.of([Envelope(0, 1, _prepare(10 + i)) for i in range(3)])
        stream = (
            encode_frame(singles[0], global_registry)
            + encode_batch_frame(batch, global_registry)
            + encode_frame(singles[1], global_registry)
        )
        received: list = []
        _read(_reader(received), stream)
        seqnos = [e.message.command.command_id.seqno for e in received]
        assert seqnos == [0, 10, 11, 12, 1]

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_split_inside_the_length_prefix(self, cut):
        first, second = (encode_frame(Envelope(0, 1, _prepare(i)), global_registry) for i in range(2))
        stream = first + second
        at = len(first) + cut  # inside the second frame's prefix
        received: list = []
        parser = _reader(received)
        _read(parser, stream[:at])
        assert [e.message for e in received] == [_prepare(0)]
        _read(parser, stream[at:])
        assert [e.message for e in received] == [_prepare(0), _prepare(1)]

    def test_an_oversize_prefix_is_refused_before_its_body(self):
        parser = _reader([])
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        _read(parser, prefix[:3])
        with pytest.raises(TransportError):
            _read(parser, prefix[3:])
        # Refused before the buffer grew: it still holds its base size.
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES - 3


class TestReadBuffer:
    """The one buffer a connection reads into, and what leaves it."""

    def test_a_frame_larger_than_the_buffer_grows_it_exactly_then_it_shrinks_back(self):
        message = Prepare(Command(CommandId("big", 1), b"x" * 3 * READ_BUFFER_BYTES), Timestamp(1, 0))
        frame = encode_frame(Envelope(0, 1, message), global_registry)
        after = encode_frame(Envelope(0, 1, ClockTime(5)), global_registry)
        received: list = []
        parser = _reader(received)
        _read(parser, frame[:10])
        # The whole frame fits from here on, and nothing more.
        assert len(parser.get_buffer()) == len(frame) - 10
        _read(parser, frame[10:] + after[:2])
        assert [e.message for e in received] == [message]
        # Consumed: back to the base size, the next frame's start kept.
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES - 2
        _read(parser, after[2:])
        assert [e.message for e in received] == [message, ClockTime(5)]
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES

    def test_an_incomplete_frame_moves_to_the_front_only_when_it_does_not_fit(self):
        frame = encode_frame(Envelope(0, 1, _prepare(1)), global_registry)
        received: list = []
        parser = _reader(received)
        _read(parser, frame + frame[:5])
        # The rest of the frame fits behind what arrived: nothing moved.
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES - len(frame) - 5
        parser = _reader(received)
        stream = frame * (READ_BUFFER_BYTES // len(frame) + 1)
        tail = READ_BUFFER_BYTES % len(frame)
        assert 4 < tail  # the buffer ends inside a frame's body
        _read(parser, stream[:READ_BUFFER_BYTES])
        # The rest would run past the buffer's end: the tail moved to the front.
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES - tail
        _read(parser, stream[READ_BUFFER_BYTES:])
        assert len(received) == 1 + len(stream) // len(frame)
        assert all(e.message == _prepare(1) for e in received)

    def test_a_payload_outlives_the_reads_that_reuse_the_buffer(self):
        def frame(seqno: int, fill: bytes) -> bytes:
            message = Prepare(Command(CommandId("alias", seqno), fill * 200), Timestamp(seqno + 1, 0))
            return encode_frame(Envelope(0, 1, message), global_registry)

        received: list = []
        parser = _reader(received)
        _read(parser, frame(0, b"a"))
        (first,) = received
        command = first.message.command
        payload, client = command.payload, command.command_id.client
        assert type(payload) is bytes and type(client) is str
        for seqno, fill in enumerate((b"b", b"c", b"d"), start=1):
            _read(parser, frame(seqno, fill))  # lands where the first frame was
        assert len(received) == 4 and received[3].message.command.payload == b"d" * 200
        assert command.payload == payload == b"a" * 200
        assert command.command_id.client == client == "alias"

    def test_a_hello_split_across_reads_is_accepted(self):
        stream = HELLO + encode_frame(Envelope(0, 1, _prepare(3)), global_registry)
        received: list = []
        parser = FrameParser(global_registry, received.append)
        for start, stop in ((0, 3), (3, HELLO_BYTES - 1), (HELLO_BYTES - 1, HELLO_BYTES + 2)):
            _read(parser, stream[start:stop])
            assert not received
        assert parser.greeted
        _read(parser, stream[HELLO_BYTES + 2 :])
        assert [e.message for e in received] == [_prepare(3)]
        assert len(parser.get_buffer()) == READ_BUFFER_BYTES


def _frames():
    """Encoded frames, single or batch, of a few message kinds."""
    message = st.one_of(
        st.integers(0, 2**40).map(ClockTime),
        st.integers(0, 1000).map(_prepare),
        st.integers(0, 2**40).map(lambda t: PrepareOk(Timestamp(t, 1), t + 1)),
    )
    single = message.map(lambda m: encode_frame(Envelope(0, 1, m), global_registry))
    batch = st.lists(message, min_size=2, max_size=4).map(
        lambda ms: encode_batch_frame(
            EnvelopeBatch.of([Envelope(0, 1, m) for m in ms]), global_registry
        )
    )
    return st.one_of(single, batch)


@given(frames=st.lists(_frames(), min_size=1, max_size=5), data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_split_of_a_frame_stream_yields_what_one_whole_feed_yields(frames, data):
    """However the bytes of a stream of mixed single and batch frames arrive
    — whole, one byte at a time, cut inside a length prefix or a body — the
    parser yields the same envelopes in the same order."""
    stream = b"".join(frames)
    whole: list = []
    _read(_reader(whole), stream)
    assert len(whole) == sum(len(decode_frame_envelopes(f[4:], global_registry)) for f in frames)
    one_byte = data.draw(st.booleans(), label="one byte per feed")
    cuts = (
        range(1, len(stream))
        if one_byte
        else sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=12), label="cuts"))
    )
    bounds = [0, *cuts, len(stream)]
    split: list = []
    parser = _reader(split)
    for start, stop in zip(bounds, bounds[1:]):
        _read(parser, stream[start:stop])
    assert split == whole


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
