"""Network serving layer for very large online samples.

The ROADMAP's north star is a sample under "heavy traffic from
millions of users"; this package is the surface those users talk to.
A :class:`ReservoirServer` owns one engine (typically a
:class:`~repro.service.ShardedReservoir`) and speaks a length-prefixed
protocol of JSON control frames and slab-row data frames
(:mod:`repro.serve.protocol`); :class:`ServeClient` /
:class:`AsyncServeClient` mirror the unified
:class:`~repro.core.protocols.Reservoir` protocol over it; and
:class:`InlineTransport` runs a served session fully in process --
every byte still encoded and decoded -- so tier-1 tests prove the
served path bit-exact against direct engine calls without touching a
socket.

Quickstart::

    from repro.serve import ReservoirServer, ServeClient, ServerConfig

    server = ReservoirServer(engine, ServerConfig(rate_rps=500))
    client = ServeClient.in_process(server)     # or .connect(host, port)
    client.offer_batch(records)
    sample = client.sample(100)
    client.close()

See docs/SERVING.md for the wire format, the op table, error codes,
and the backpressure / drain semantics.
"""

from .client import AsyncServeClient, ServeClient, ServeError
from .protocol import (
    ERROR_CODES,
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    ErrorInfo,
    FrameDecoder,
    FrameError,
    Request,
    Response,
)
from .ratelimit import TokenBucket
from .server import ReservoirServer, ServerConfig, Session
from .transport import InlineTransport, SocketTransport, TransportClosed

__all__ = [
    "AsyncServeClient",
    "ERROR_CODES",
    "ErrorInfo",
    "FrameDecoder",
    "FrameError",
    "InlineTransport",
    "MAX_FRAME",
    "OPS",
    "PROTOCOL_VERSION",
    "Request",
    "ReservoirServer",
    "Response",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "Session",
    "SocketTransport",
    "TokenBucket",
    "TransportClosed",
]
