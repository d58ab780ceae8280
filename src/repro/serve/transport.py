"""Client transports: in-process twin and blocking TCP.

Two ways to reach a :class:`~repro.serve.server.ReservoirServer`:

* :class:`InlineTransport` -- no sockets, no event loop.  Every
  request is *fully encoded* into a wire frame, handed to the server's
  ``handle_frame`` (the same entry the TCP path uses, executor
  aside), and the response frame is fully decoded.  A session run
  through it is therefore bit-exact with direct engine calls while
  still exercising every byte of the protocol -- the twin-run
  discipline tier-1 tests rely on (no asyncio in the default test
  lane).
* :class:`SocketTransport` -- a plain blocking TCP socket for the
  synchronous :class:`~repro.serve.client.ServeClient`.

Both expose the same two methods (``request``, ``close``), which is
all the client SDK needs.  A reply either transport cannot decode
(too large, torn, or not a frame at all) closes it: the byte stream
can no longer be trusted, so every later request raises
:class:`TransportClosed` at once.
"""

from __future__ import annotations

import socket

from .protocol import (
    MAX_FRAME,
    FrameDecoder,
    Request,
    Response,
    decode_frame,
    encode_frame,
)


class TransportClosed(ConnectionError):
    """The transport (or its server) is no longer usable."""


class InlineTransport:
    """In-process transport: full wire round trip, zero I/O.

    Args:
        server: a :class:`~repro.serve.server.ReservoirServer`; the
            transport opens one session on it and funnels every
            request through ``handle_frame``.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._session = server.open_session()
        self._closed = False

    def request(self, request: Request) -> Response:
        """Encode, dispatch, decode one request."""
        if self._closed:
            raise TransportClosed("inline transport is closed")
        max_frame = self._server.config.max_frame
        frame = encode_frame(request.to_wire(), max_frame=max_frame)
        reply = self._server.handle_frame(frame, self._session)
        try:
            return Response.from_wire(decode_frame(reply,
                                                   max_frame=max_frame))
        except ValueError as exc:
            self.close()
            raise TransportClosed(f"refused a reply: {exc}") from exc

    def close(self) -> None:
        """Retire the session (idempotent)."""
        if not self._closed:
            self._closed = True
            self._server.close_session(self._session)


class SocketTransport:
    """Blocking TCP transport for the synchronous client.

    Args:
        host: server address.
        port: server port.
        timeout: socket timeout in seconds for connect and replies.
        max_frame: largest frame accepted, matching the server's.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0,
                 max_frame: int = MAX_FRAME) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._max_frame = max_frame
        self._closed = False

    def request(self, request: Request) -> Response:
        """Write one request frame; block for the response frame."""
        if self._closed:
            raise TransportClosed("socket transport is closed")
        frame = encode_frame(request.to_wire(), max_frame=self._max_frame)
        try:
            self._sock.sendall(frame)
            while True:
                data = self._sock.recv(65536)
                if not data:
                    raise TransportClosed("server closed the connection")
                for body in self._decoder.feed(data):
                    return Response.from_wire(body)
        except (OSError, ValueError) as exc:
            self.close()
            raise TransportClosed(f"transport failed: {exc!r}") from exc

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
