"""The client end of one event-loop connection.

Every served TLS request (``repro obs``, the fuzzing harness, the
examples) is a :class:`LoopClient`: a native-TLS client whose records
reach the server only through :meth:`EventLoop.feed`, so each crosses
the production front end. A deep copy copies the client with its loop.
"""

from __future__ import annotations

from typing import Any

from repro.servers.connection import FeedResult
from repro.servers.eventloop import EventLoop
from repro.tls import api as native_api
from repro.tls.bio import BIO


class LoopClient:
    """A native-TLS client on a fresh connection of ``loop``: ``ca`` is
    the trust anchor, ``identity`` an optional ``(key, cert)`` for RA-TLS
    client authentication, ``seed`` the context's DRBG seed label."""

    def __init__(self, loop: EventLoop, ca: Any,
                 identity: tuple | None = None, seed: bytes | None = None):
        self.loop = loop
        self.conn_id = loop.open()
        ctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        native_api.SSL_CTX_load_verify_locations(ctx, ca)
        if identity is not None:
            native_api.SSL_CTX_use_PrivateKey(ctx, identity[0])
            native_api.SSL_CTX_use_certificate(ctx, identity[1])
        if seed is not None:
            ctx.drbg_seed = seed
        self.ssl = native_api.SSL_new(ctx)
        self.rbio, self.wbio = BIO("client-r"), BIO("client-w")
        native_api.SSL_set_bio(self.ssl, self.rbio, self.wbio)
        self.flights: list[bytes] = []  # handshake flights sent, in order

    @property
    def established(self) -> bool:
        """Both ends finished the handshake and the connection is live."""
        if not native_api.SSL_is_init_finished(self.ssl):
            return False
        conn = self.loop.connections.get(self.conn_id)
        return conn is not None and conn.established

    def handshake(self) -> FeedResult | None:
        """Handshake until both ends are established or the server
        aborts; returns the last flight's result."""
        result = None
        for _ in range(10):  # two flights suffice
            native_api.SSL_connect(self.ssl)
            flight = self.wbio.read()
            if flight:
                self.flights.append(flight)
                result = self.loop.feed(self.conn_id, flight)
                self.rbio.write(result.output)
                if result.aborted:
                    break
            if self.established:
                break
        return result

    def seal(self, data: bytes) -> bytes:
        """``data`` as the client's TLS records, not yet sent."""
        native_api.SSL_write(self.ssl, data)
        return self.wbio.read()

    def exchange(self, data: bytes) -> tuple[FeedResult, bytes]:
        """Send ``data`` through the loop and deliver the reply; returns
        the result and what the client decrypted (nothing on an abort:
        the server's fatal alert is delivered, not read)."""
        result = self.loop.feed(self.conn_id, self.seal(data))
        self.rbio.write(result.output)
        if result.aborted:
            return result, b""
        return result, native_api.SSL_read(self.ssl)
