"""Per-connection fault isolation for the client-facing front end.

The LibSEAL deployment model (Fig. 1) terminates TLS for *untrusted*
clients: every byte of a connection is adversarial until the record layer
authenticates it, and even authenticated bytes may carry malformed HTTP
or hostile service payloads. This module supervises that boundary:

- each client connection runs inside a :class:`ServerConnection` whose
  entire input path is bounded (TLS record backlog, pre-handshake bytes,
  HTTP head/body/header bounds, pipelining depth, request budget) and
  deadlined (handshake and idle timeouts against a simulated clock);
- every failure surfaces as exactly one of the typed families
  :class:`~repro.errors.TLSError`, :class:`~repro.errors.HTTPError` or
  :class:`~repro.errors.ProtocolViolation` — the connection is then torn
  down *in isolation*: a best-effort TLS alert is sent, the SSL object
  freed, the audit logger told to drop the connection's pairing state,
  and no other connection or the audit log itself is disturbed;
- the byte-ingress point is a fault-injection site (``conn.feed``) so
  the deterministic fuzzing harness (:mod:`repro.faults.fuzz`) can
  mutate, truncate, drop or replay network chunks from a seeded plan.

A connection is a passive state machine (:meth:`ServerConnection.ingress`
→ :meth:`~ServerConnection.decrypt` → :meth:`~ServerConnection.dispatch`).
:class:`repro.servers.eventloop.EventLoop` owns the table of live ones
and is the only thing that pumps bytes through them.

A connection works identically over the in-enclave TLS API
(:class:`~repro.enclave_tls.EnclaveTlsRuntime`), the native API
(:mod:`repro.tls.api`) or no TLS at all (plain mode, for HTTP-layer
fuzzing) because both APIs expose the same OpenSSL-style functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    AttestationError,
    HTTPError,
    ProtocolViolation,
    ServiceError,
    TLSError,
    TLSRecordError,
)
from repro.faults import hooks as _faults
from repro.http import HttpRequest, HttpResponse, parse_request
from repro.http.parser import DEFAULT_LIMITS, HttpLimits, extract_message
from repro.sim.clock import SimClock
from repro.tls.bio import bio_pair
from repro.tls.connection import (
    ALERT_BAD_CERTIFICATE,
    ALERT_BAD_RECORD_MAC,
    ALERT_HANDSHAKE_FAILURE,
    ALERT_UNEXPECTED_MESSAGE,
)

Handler = Callable[[HttpRequest], HttpResponse]

#: The typed families whose members abort exactly one connection: the
#: event-loop driver (:mod:`repro.servers.eventloop`) catches this tuple
#: and nothing else. AttestationError is here so an RA-TLS peer whose
#: evidence failed verification is torn down like any other handshake
#: violation — alert, abort, isolate — and can never reach the HTTP layer.
VIOLATION_ERRORS = (TLSError, HTTPError, ProtocolViolation, AttestationError)

__all__ = [
    "BufferBoundViolation",
    "ConnectionAborted",
    "ConnectionLimits",
    "DeadlineViolation",
    "FeedResult",
    "Handler",
    "ServerConnection",
    "VIOLATION_ERRORS",
]


# ---------------------------------------------------------------------------
# Typed connection-lifecycle violations
# ---------------------------------------------------------------------------


class BufferBoundViolation(ProtocolViolation):
    """A client pushed a buffer or counter past its configured bound."""


class DeadlineViolation(ProtocolViolation):
    """A connection overstayed its handshake or idle deadline."""


class ConnectionAborted(ProtocolViolation):
    """I/O attempted on a connection already torn down for a violation."""


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionLimits:
    """Every bound the front end enforces on one client connection."""

    http: HttpLimits = DEFAULT_LIMITS
    #: Requests one connection may issue over its lifetime.
    max_requests_per_connection: int = 10_000
    #: Complete requests one delivered chunk may carry (pipelining depth).
    max_pipelined_per_feed: int = 64
    #: Seconds a connection may exist without completing the handshake.
    handshake_timeout_s: float = 5.0
    #: Seconds a connection may sit idle between feeds.
    idle_timeout_s: float = 30.0


# ---------------------------------------------------------------------------
# One connection
# ---------------------------------------------------------------------------


@dataclass
class FeedResult:
    """Outcome of delivering one chunk of client bytes."""

    output: bytes = b""
    served: int = 0
    bad_requests: int = 0
    aborted: bool = False
    violation: Exception | None = None


def _alert_for(exc: Exception, established: bool) -> int:
    if isinstance(exc, AttestationError):
        # RA-TLS: the peer's certificate chain verified but its
        # attestation evidence did not — bad_certificate, fail closed.
        return ALERT_BAD_CERTIFICATE
    if isinstance(exc, TLSRecordError):
        return ALERT_UNEXPECTED_MESSAGE
    if isinstance(exc, TLSError) and not established:
        return ALERT_HANDSHAKE_FAILURE
    return ALERT_BAD_RECORD_MAC


class ServerConnection:
    """One client connection: bounded input path, isolated teardown.

    In TLS mode the connection owns both BIO pairs, the server-side SSL
    object and the HTTP reassembly buffer; in plain mode (``api=None``)
    client bytes feed the HTTP buffer directly, which lets the fuzzing
    harness exercise the HTTP layer without paying for handshakes.
    """

    def __init__(
        self,
        conn_id: int,
        handler: Handler,
        limits: ConnectionLimits,
        clock: SimClock,
        api: Any = None,
        ssl_ctx: Any = None,
        on_close: Callable[[int], None] | None = None,
    ):
        self.conn_id = conn_id
        self.handler = handler
        self.limits = limits
        self.clock = clock
        self.api = api
        self.on_close = on_close
        self.http_buffer = bytearray()
        self.requests_served = 0
        self.bad_requests = 0
        self.aborted = False
        self.closed = False
        self.violation: Exception | None = None
        self.opened_at = clock.now()
        self.last_activity = self.opened_at
        self._last_chunk = b""
        self._plain_output = bytearray()
        if api is not None:
            if ssl_ctx is None:
                raise ValueError("TLS mode needs an SSL_CTX")
            # Client-to-server and server-to-client directions, exactly
            # as a socket pair: the event loop holds the "network" ends.
            self.to_server, s_from_c = bio_pair(f"conn{conn_id}-c2s")
            s2c, self.from_server = bio_pair(f"conn{conn_id}-s2c")
            self.ssl = api.SSL_new(ssl_ctx)
            api.SSL_set_bio(self.ssl, s_from_c, s2c)
        else:
            self.ssl = None
            self.to_server = None
            self.from_server = None

    # -- identity ------------------------------------------------------

    @property
    def audit_handle(self) -> int:
        """The handle the audit logger keys this connection's state by."""
        handle = getattr(self.ssl, "handle", None)
        return handle if isinstance(handle, int) else self.conn_id

    @property
    def established(self) -> bool:
        if self.api is None:
            return True
        return self.ssl is not None and self.api.SSL_is_init_finished(self.ssl)

    # -- byte ingress --------------------------------------------------

    def closed_result(self) -> FeedResult:
        """The result every feed on a dead connection reports."""
        return FeedResult(
            aborted=True,
            violation=self.violation
            or ConnectionAborted(f"connection {self.conn_id} is closed"),
        )

    def ingress(self, data: bytes) -> bytes:
        """Byte-ingress bookkeeping: stamp activity, run the
        ``conn.feed`` fault site."""
        self.last_activity = self.clock.now()
        return self._apply_network_faults(data)

    def decrypt(self, data: bytes) -> bytes:
        """Pure TLS step: ingest raw bytes, advance the handshake,
        return decrypted plaintext (``b""`` while the handshake is
        still in flight or nothing decrypted). Plain mode is the
        identity. Raises typed errors only."""
        if self.api is None:
            return data
        self.to_server.write(data)
        if not self.established:
            self.api.SSL_accept(self.ssl)
        if self.established:
            return self.api.SSL_read(self.ssl) or b""
        return b""

    def dispatch(self, plaintext: bytes, result: FeedResult) -> None:
        """Pure HTTP step: reassemble, parse, dispatch the handler and
        queue responses. Raises typed errors only."""
        self.http_buffer.extend(plaintext)
        extracted = 0
        while self.http_buffer:
            message = extract_message(self.http_buffer, self.limits.http)
            if message is None:
                return
            extracted += 1
            if extracted > self.limits.max_pipelined_per_feed:
                raise BufferBoundViolation(
                    f"more than {self.limits.max_pipelined_per_feed} "
                    "pipelined requests in one chunk"
                )
            if self.requests_served + self.bad_requests >= (
                self.limits.max_requests_per_connection
            ):
                raise BufferBoundViolation(
                    f"request budget {self.limits.max_requests_per_connection}"
                    " exhausted"
                )
            try:
                request = parse_request(message, self.limits.http)
            except HTTPError:
                # The stream stayed delimitable, so answer 400 and keep
                # the connection — only framing failures poison it.
                self.bad_requests += 1
                result.bad_requests += 1
                self._send(HttpResponse(400).encode())
                continue
            try:
                response = self.handler(request)
            except ServiceError:
                response = HttpResponse(500)
            self.requests_served += 1
            result.served += 1
            self._send(response.encode())

    def _apply_network_faults(self, data: bytes) -> bytes:
        events = _faults.check("conn.feed")
        if events:
            injector = _faults.active()
            for event in events:
                if event.kind == "mutate_bytes":
                    data = injector.corrupt(data)
                elif event.kind == "truncate_bytes":
                    data = injector.truncate(data)
                elif event.kind == "drop_bytes":
                    data = b""
                elif event.kind == "replay_bytes":
                    data = self._last_chunk + data
        self._last_chunk = data
        return data

    # -- output --------------------------------------------------------

    def _send(self, data: bytes) -> None:
        if self.api is not None:
            self.api.SSL_write(self.ssl, data)
        else:
            self._plain_output.extend(data)

    def drain_output(self) -> bytes:
        """Bytes the server has produced toward the client since last drain."""
        if self.from_server is not None:
            return self.from_server.read()
        data = bytes(self._plain_output)
        self._plain_output.clear()
        return data

    # -- deadlines -----------------------------------------------------

    def deadline_violation(self, now: float) -> DeadlineViolation | None:
        if self.aborted or self.closed:
            return None
        if not self.established:
            elapsed = now - self.opened_at
            if elapsed > self.limits.handshake_timeout_s:
                return DeadlineViolation(
                    f"handshake not complete after {elapsed:.3f}s "
                    f"(bound {self.limits.handshake_timeout_s}s)"
                )
        idle = now - self.last_activity
        if idle > self.limits.idle_timeout_s:
            return DeadlineViolation(
                f"idle for {idle:.3f}s (bound {self.limits.idle_timeout_s}s)"
            )
        return None

    # -- teardown ------------------------------------------------------

    def abort(self, exc: Exception) -> None:
        """Tear this connection down for ``exc`` without touching others.

        Best-effort: alert the peer, free the SSL object, release the
        audit logger's pairing state, drop all buffered bytes. The audit
        log itself is untouched — it keeps the consistent prefix of
        fully-paired messages logged before the violation.
        """
        if self.aborted:
            return
        self.aborted = True
        self.violation = exc
        # The audit logger keys pairing state by the SSL handle; capture it
        # before SSL_free tears the handle away, or we would release the
        # wrong connection's state (handles and conn ids overlap).
        handle = self.audit_handle
        if self.api is not None and self.ssl is not None:
            try:
                self.api.SSL_send_alert(
                    self.ssl, _alert_for(exc, self.established)
                )
            except Exception:
                pass  # alerting a broken peer must never mask the cause
            try:
                self.api.SSL_free(self.ssl)
            except Exception:
                pass
            self.ssl = None
        if self.on_close is not None:
            self.on_close(handle)
        self.http_buffer.clear()
        self._plain_output.clear()

    def close(self) -> None:
        """Graceful close (client finished): close_notify, free, release."""
        if self.aborted or self.closed:
            return
        self.closed = True
        handle = self.audit_handle
        if self.api is not None and self.ssl is not None:
            try:
                self.api.SSL_shutdown(self.ssl)
            except Exception:
                pass
            try:
                self.api.SSL_free(self.ssl)
            except Exception:
                pass
            self.ssl = None
        if self.on_close is not None:
            self.on_close(handle)
