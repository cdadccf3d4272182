"""The replicated key-value store used throughout the paper's evaluation.

The paper replicates an in-memory key-value store with each protocol and has
clients update randomly selected keys.  This package provides the key-value
state machine, the command encoding, and client helpers for both the
simulator and the asyncio runtime.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".commands": (
            "KvOp", "decode_op", "encode_delete", "encode_get", "encode_put",
            "random_update",
        ),
        ".kv": ("KVStateMachine",),
        ".client": ("SimKVClient",),
    },
)

__all__ = [
    "KvOp",
    "encode_put",
    "encode_get",
    "encode_delete",
    "decode_op",
    "random_update",
    "KVStateMachine",
    "SimKVClient",
]
