"""Exception hierarchy for the Clock-RSM reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every library-specific error."""


class ConfigurationError(ReproError):
    """A cluster or protocol configuration is invalid."""


class ProtocolError(ReproError):
    """A protocol invariant was violated (indicates a bug or corruption)."""


class StorageError(ReproError):
    """Stable storage (command log) failure."""


class LogCorruptionError(StorageError):
    """The on-disk command log failed integrity checks during replay."""


class TransportError(ReproError):
    """A transport could not deliver or encode a message."""


class CodecError(TransportError):
    """Wire-format encoding or decoding failed."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class ClockError(ReproError):
    """A clock produced a non-monotonic or otherwise invalid reading."""


class LaunchError(ReproError):
    """A multi-process deployment failed (worker crash, handshake timeout).

    Raised by :mod:`repro.launch` instead of hanging: a worker that dies or
    stalls during any phase of the deployment surfaces here, after the
    supervisor has torn every remaining process down.
    """


class ClientError(ReproError):
    """Client-side request failure (timeout, redirected, cancelled)."""


class RequestTimeout(ClientError):
    """A client request did not commit within its deadline."""


__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "StorageError",
    "LogCorruptionError",
    "TransportError",
    "CodecError",
    "SimulationError",
    "ClockError",
    "LaunchError",
    "ClientError",
    "RequestTimeout",
]
