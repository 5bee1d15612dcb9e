"""RA-TLS: attestation evidence verified inline during the handshake.

The quote binds the certificate key, the certificate key signs the ECDHE
exchange, so a completed handshake proves the peer runs the expected
enclave. These tests cover the accept path (identity surfaced to the
application), every fail-closed path (no evidence, forged evidence,
grafted evidence, revoked TCB, service outage past the cache window),
mutual attestation, and the front-end teardown: an attestation failure
aborts the supervised connection through the TLS-alert machinery exactly
like any other handshake violation.
"""

import pytest

from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    QuoteInvalidError,
    TcbRevokedError,
)
from repro.http import HttpRequest, HttpResponse
from repro.servers import EventLoop, LoopClient
from repro.sgx.ratls import (
    AttestationPlane,
    make_attested_identity,
    make_node_enclave,
)
from repro.sgx.sealing import SigningAuthority
from repro.tls import api as native_api
from repro.tls.cert import CertificateAuthority, make_server_identity

SUBJECT = "ratls.example"


@pytest.fixture
def plane():
    return AttestationPlane(
        SigningAuthority("ratls-authority"), cache_ttl=30.0
    )


@pytest.fixture
def ca():
    return CertificateAuthority("ratls-root", seed=b"ratls-ca")


@pytest.fixture
def enclave(plane):
    return make_node_enclave("ratls-frontend-1.0", plane.authority.name)


@pytest.fixture
def server_identity(ca, plane, enclave):
    return make_attested_identity(ca, SUBJECT, enclave, plane.platform("server"))


class TestHandshakeAccept:
    def test_attested_handshake_surfaces_identity(
        self, ca, plane, enclave, server_identity
    ):
        verifier = plane.verifier("client")
        client, server = self._pair(ca, server_identity, verifier)
        identity = client.peer_attested_identity
        assert identity is not None
        assert identity.measurement == enclave.measurement()
        assert identity.tcb == "up-to-date"
        # The server ran no verifier, so it records no identity.
        assert server.peer_attested_identity is None
        # Application data flows over the attested channel.
        client.write(b"over attested channel")
        server._pump_incoming()
        assert server.read() == b"over attested channel"

    def test_mutual_attestation(self, ca, plane, enclave, server_identity):
        client_identity = make_attested_identity(
            ca, "client-0", enclave, plane.platform("client")
        )
        client, server = self._pair(
            ca,
            server_identity,
            plane.verifier("client"),
            client_identity=client_identity,
            server_verifier=plane.verifier("server"),
        )
        assert client.peer_attested_identity is not None
        assert server.peer_attested_identity is not None
        assert (
            server.peer_attested_identity.platform_id
            == plane.platform("client").platform_id
        )

    def test_out_of_date_tcb_accepted_with_warning(
        self, ca, plane, server_identity
    ):
        plane.service.set_tcb_status(
            plane.platform("server").platform_id, "out-of-date"
        )
        verifier = plane.verifier("client")
        client, _ = self._pair(ca, server_identity, verifier)
        assert client.peer_attested_identity.tcb == "out-of-date"
        assert verifier.tcb_warnings == 1

    @staticmethod
    def _pair(
        ca,
        server_identity,
        verifier,
        *,
        client_identity=None,
        server_verifier=None,
    ):
        from repro.crypto.drbg import HmacDrbg
        from repro.tls.bio import bio_pair
        from repro.tls.connection import TLSConfig, TLSConnection, pump_handshake

        server_key, server_cert = server_identity
        c2s, s_from_c = bio_pair("c2s")
        s2c, c_from_s = bio_pair("s2c")
        server = TLSConnection(
            TLSConfig(
                certificate=server_cert,
                private_key=server_key,
                ca=ca,
                require_client_cert=server_verifier is not None,
                attestation_verifier=server_verifier,
                drbg=HmacDrbg(seed=b"ratls-server"),
            ),
            is_server=True,
            rbio=s_from_c,
            wbio=s2c,
        )
        client_config = TLSConfig(
            ca=ca,
            attestation_verifier=verifier,
            drbg=HmacDrbg(seed=b"ratls-client"),
        )
        if client_identity is not None:
            client_config.private_key, client_config.certificate = client_identity
        client = TLSConnection(
            client_config, is_server=False, rbio=c_from_s, wbio=c2s
        )
        pump_handshake(client, server)
        return client, server


class TestHandshakeFailClosed:
    def _attempt(self, ca, identity, verifier):
        return TestHandshakeAccept._pair(ca, identity, verifier)

    def test_certificate_without_evidence_rejected(self, ca, plane):
        plain = make_server_identity(ca, SUBJECT, seed=b"plain-id")
        with pytest.raises(QuoteInvalidError, match="no attestation evidence"):
            self._attempt(ca, plain, plane.verifier("client"))

    def test_forged_evidence_rejected(self, ca, plane, enclave):
        rogue = make_attested_identity(
            ca, SUBJECT, enclave, plane.rogue_platform("intruder")
        )
        with pytest.raises(QuoteInvalidError, match="unknown platform"):
            self._attempt(ca, rogue, plane.verifier("client"))

    def test_grafted_evidence_rejected(self, ca, plane, enclave, server_identity):
        # Valid evidence lifted from the real server's certificate and
        # grafted onto a different key: the binding no longer matches.
        from repro.crypto.drbg import HmacDrbg
        from repro.crypto.ecdsa import EcdsaPrivateKey

        other_key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"graft-key"))
        grafted_cert = ca.issue(
            SUBJECT,
            other_key.public_key(),
            evidence=server_identity[1].evidence,
        )
        with pytest.raises(QuoteInvalidError, match="binding"):
            self._attempt(
                ca, (other_key, grafted_cert), plane.verifier("client")
            )

    def test_revoked_platform_rejected(self, ca, plane, server_identity):
        plane.service.set_tcb_status(
            plane.platform("server").platform_id, "revoked"
        )
        with pytest.raises(TcbRevokedError):
            self._attempt(ca, server_identity, plane.verifier("client"))

    def test_unattested_client_rejected_by_mutual_server(
        self, ca, plane, server_identity
    ):
        plain_client = make_server_identity(ca, "client-0", seed=b"plain-client")
        with pytest.raises(QuoteInvalidError):
            TestHandshakeAccept._pair(
                ca,
                server_identity,
                plane.verifier("client"),
                client_identity=plain_client,
                server_verifier=plane.verifier("server"),
            )


class TestOutageDegradation:
    def test_cached_verdict_rides_out_outage(self, ca, plane, server_identity):
        verifier = plane.verifier("client")
        self._handshake(ca, server_identity, verifier)
        plane.service.outage()
        # Inside the cache window: handshake still completes, served from
        # the bounded cache (degraded, but never unverified).
        client = self._handshake(ca, server_identity, verifier)
        assert client.peer_attested_identity.from_cache is True
        assert verifier.cache_hits + verifier.degraded_hits >= 1

    def test_outage_past_cache_window_fails_closed(
        self, ca, plane, server_identity
    ):
        verifier = plane.verifier("client")
        self._handshake(ca, server_identity, verifier)
        plane.service.outage()
        plane.clock.advance(31.0)  # past cache_ttl=30
        with pytest.raises(AttestationUnavailableError):
            self._handshake(ca, server_identity, verifier)
        # Restoration heals new handshakes without any reconfiguration.
        plane.service.restore()
        client = self._handshake(ca, server_identity, verifier)
        assert client.peer_attested_identity is not None

    @staticmethod
    def _handshake(ca, identity, verifier):
        client, _ = TestHandshakeAccept._pair(ca, identity, verifier)
        return client


class TestApiSurface:
    def test_ctx_verifier_and_identity_accessor(
        self, ca, plane, server_identity
    ):
        key, cert = server_identity
        sctx = native_api.SSL_CTX_new(native_api.TLS_server_method())
        native_api.SSL_CTX_use_certificate(sctx, cert)
        native_api.SSL_CTX_use_PrivateKey(sctx, key)
        cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        native_api.SSL_CTX_load_verify_locations(cctx, ca)
        native_api.SSL_CTX_set_attestation_verifier(cctx, plane.verifier("api"))

        from repro.tls.bio import bio_pair

        c2s, s_from_c = bio_pair()
        s2c, c_from_s = bio_pair()
        server = native_api.SSL_new(sctx)
        native_api.SSL_set_bio(server, s_from_c, s2c)
        client = native_api.SSL_new(cctx)
        native_api.SSL_set_bio(client, c_from_s, c2s)
        for _ in range(10):
            done_c = native_api.SSL_connect(client)
            done_s = native_api.SSL_accept(server)
            if done_c and done_s:
                break
        identity = native_api.SSL_get_peer_attested_identity(client)
        assert identity is not None
        assert identity.platform_id == plane.platform("server").platform_id
        assert native_api.SSL_get_peer_attested_identity(server) is None


def _handler(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=b"ok")


class TestSupervisorTeardown:
    """A front end requiring attested clients tears down unattested ones
    through the normal alert/abort/isolate machinery."""

    def _supervisor(self, ca, plane, server_identity):
        key, cert = server_identity
        ctx = native_api.SSL_CTX_new(native_api.TLS_server_method())
        native_api.SSL_CTX_use_certificate(ctx, cert)
        native_api.SSL_CTX_use_PrivateKey(ctx, key)
        native_api.SSL_CTX_load_verify_locations(ctx, ca)
        native_api.SSL_CTX_set_verify(ctx, native_api.SSL_VERIFY_PEER)
        native_api.SSL_CTX_set_attestation_verifier(
            ctx, plane.verifier("frontend")
        )
        return EventLoop(_handler, api=native_api, ssl_ctx=ctx)

    def _drive(self, sup, ca, client_identity):
        client = LoopClient(sup, ca, identity=client_identity)
        return client, client.handshake()

    def test_attested_client_serves(self, ca, plane, enclave, server_identity):
        sup = self._supervisor(ca, plane, server_identity)
        attested = make_attested_identity(
            ca, "client-0", enclave, plane.platform("client")
        )
        client, result = self._drive(sup, ca, attested)
        assert client.established
        assert not result.aborted
        assert client.conn_id in sup.live_connections

    def test_unattested_client_aborted_with_attestation_error(
        self, ca, plane, server_identity
    ):
        sup = self._supervisor(ca, plane, server_identity)
        plain = make_server_identity(ca, "client-0", seed=b"plain-client")
        client, result = self._drive(sup, ca, plain)
        cid = client.conn_id
        assert result.aborted
        assert isinstance(result.violation, AttestationError)
        # Alerted (best effort) before teardown, and fully isolated.
        assert cid not in sup.live_connections
        assert sup.stats.aborted == 1

    def test_forged_client_abort_leaves_neighbour_serving(
        self, ca, plane, enclave, server_identity
    ):
        sup = self._supervisor(ca, plane, server_identity)
        forged = make_attested_identity(
            ca, "client-evil", enclave, plane.rogue_platform("evil")
        )
        _, bad = self._drive(sup, ca, forged)
        assert bad.aborted and isinstance(bad.violation, AttestationError)
        attested = make_attested_identity(
            ca, "client-good", enclave, plane.platform("good")
        )
        good_client, good = self._drive(sup, ca, attested)
        assert good_client.established
        assert not good.aborted
        assert good_client.conn_id in sup.live_connections
