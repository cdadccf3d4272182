"""Tests for the in-memory transport and network hub."""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.net.message import Envelope
from repro.net.transport import InMemoryNetwork, InMemoryTransport


def _collector():
    received = []
    return received, received.append


class TestInMemoryNetwork:
    def test_basic_delivery(self):
        network = InMemoryNetwork()
        t0 = network.transport_for(0)
        t1 = network.transport_for(1)
        received, handler = _collector()
        t1.set_handler(handler)
        t0.set_handler(lambda e: None)
        t0.send(Envelope(0, 1, "hello"))
        assert [e.message for e in received] == ["hello"]

    def test_loopback_is_immediate(self):
        network = InMemoryNetwork(auto_deliver=False)
        t0 = network.transport_for(0)
        received, handler = _collector()
        t0.set_handler(handler)
        t0.send(Envelope(0, 0, "self"))
        assert [e.message for e in received] == ["self"]
        assert network.deliver_one() is False  # nothing was queued

    def test_deferred_delivery(self):
        network = InMemoryNetwork(auto_deliver=False)
        t0, t1 = network.transport_for(0), network.transport_for(1)
        received, handler = _collector()
        t0.set_handler(lambda e: None)
        t1.set_handler(handler)
        t0.send(Envelope(0, 1, "a"))
        t0.send(Envelope(0, 1, "b"))
        assert received == []
        assert network.deliver_one() is True
        assert [e.message for e in received] == ["a"]
        network.deliver_all()
        assert [e.message for e in received] == ["a", "b"]

    def test_fifo_per_channel(self):
        network = InMemoryNetwork(auto_deliver=False)
        t0, t1 = network.transport_for(0), network.transport_for(1)
        received, handler = _collector()
        t0.set_handler(lambda e: None)
        t1.set_handler(handler)
        for i in range(10):
            t0.send(Envelope(0, 1, i))
        network.deliver_all()
        assert [e.message for e in received] == list(range(10))

    def test_unknown_destination_rejected(self):
        network = InMemoryNetwork()
        t0 = network.transport_for(0)
        t0.set_handler(lambda e: None)
        with pytest.raises(TransportError):
            t0.send(Envelope(0, 99, "nobody"))

    def test_duplicate_attach_rejected(self):
        network = InMemoryNetwork()
        network.transport_for(0)
        with pytest.raises(TransportError):
            network.transport_for(0)

    def test_spoofed_source_rejected(self):
        network = InMemoryNetwork()
        t0 = network.transport_for(0)
        network.transport_for(1).set_handler(lambda e: None)
        t0.set_handler(lambda e: None)
        with pytest.raises(TransportError):
            t0.send(Envelope(5, 1, "spoof"))

    def test_delivery_without_handler_is_an_error(self):
        network = InMemoryNetwork()
        t0 = network.transport_for(0)
        network.transport_for(1)  # no handler registered
        t0.set_handler(lambda e: None)
        with pytest.raises(TransportError):
            t0.send(Envelope(0, 1, "early"))

    def test_messages_produced_during_delivery_are_also_delivered(self):
        network = InMemoryNetwork(auto_deliver=False)
        t0, t1 = network.transport_for(0), network.transport_for(1)
        received, handler = _collector()
        t0.set_handler(handler)

        def echo(envelope: Envelope) -> None:
            if envelope.message == "ping":
                t1.send(Envelope(1, 0, "pong"))

        t1.set_handler(echo)
        t0.send(Envelope(0, 1, "ping"))
        network.deliver_all()
        assert [e.message for e in received] == ["pong"]
