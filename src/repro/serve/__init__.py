"""Multi-worker shared-memory serving of built distance oracles.

The serving layer's concurrent half: :mod:`repro.serve.shm` publishes a
built :class:`~repro.oracle.oracle.DistanceOracle` into one
``/dev/shm`` segment, :mod:`repro.serve.daemon` forks N worker
processes over it behind a length-prefixed socket protocol
(:mod:`repro.serve.protocol`), and :mod:`repro.serve.client` is the
blocking client the load generator multiplies.  See the DESIGN.md
serving-daemon section for the shared-memory layout, the framing and
the failure semantics.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import DEFAULT_WORKERS, Server
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    ERROR_CODES,
    OPS,
    Address,
    ConnectionClosed,
    ProtocolError,
    address_of,
)
from repro.serve.shm import (
    AttachedOracle,
    OracleShare,
    attach_oracle,
    publish_oracle,
)

__all__ = [
    "DEFAULT_MAX_FRAME",
    "DEFAULT_WORKERS",
    "ERROR_CODES",
    "OPS",
    "Address",
    "AttachedOracle",
    "ConnectionClosed",
    "OracleShare",
    "ProtocolError",
    "ServeClient",
    "Server",
    "address_of",
    "attach_oracle",
    "publish_oracle",
]
