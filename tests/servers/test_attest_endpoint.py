"""The ``GET /attest`` monitoring endpoint.

Served through the supervised connection path, so it inherits every
front-end bound; reports quote, policy and live verification status.
"""

import json

from repro.http import HttpRequest, HttpResponse
from repro.http.parser import parse_response
from repro.servers.attest import AttestMonitor
from repro.servers.connection import ConnectionLimits
from repro.servers.eventloop import EventLoop
from repro.sgx.ratls import (
    AttestationPlane,
    make_attested_identity,
    make_node_enclave,
)
from repro.sgx.sealing import SigningAuthority
from repro.tls.cert import CertificateAuthority


def _inner(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=b"inner:" + request.path.encode())


def _request(path: str = "/attest", method: str = "GET") -> bytes:
    return f"{method} {path} HTTP/1.1\r\n\r\n".encode()


def _attested_monitor():
    authority = SigningAuthority("frontend-authority")
    plane = AttestationPlane(authority, cache_ttl=30.0)
    ca = CertificateAuthority("attest-root", seed=b"attest-ca")
    enclave = make_node_enclave("frontend-1.0", authority.name)
    _, certificate = make_attested_identity(
        ca, "frontend.example", enclave, plane.platform("frontend")
    )
    verifier = plane.verifier("frontend")
    return AttestMonitor(_inner, certificate=certificate, verifier=verifier), plane


def _get_json(handler, path: str = "/attest") -> dict:
    response = handler(HttpRequest("GET", path))
    assert response.status == 200
    assert response.headers.get("Content-Type") == "application/json"
    return json.loads(response.body.decode())


class TestAttestReport:
    def test_reports_quote_policy_and_verified_status(self):
        monitor, plane = _attested_monitor()
        report = _get_json(monitor)
        assert report["attested"] is True
        evidence = report["evidence"]
        assert set(evidence) == {
            "measurement",
            "signer_measurement",
            "platform_id",
            "key_epoch",
            "issued_at",
        }
        assert evidence["key_epoch"] == 1
        assert report["policy"]["expected_signer"] is not None
        assert report["verification"]["status"] == "verified"
        assert report["verification"]["tcb"] == "up-to-date"
        assert report["verifier"]["service_available"] is True

    def test_unattested_deployment_reports_honestly(self):
        monitor = AttestMonitor(_inner)
        report = _get_json(monitor)
        assert report["attested"] is False
        assert report["evidence"] is None
        assert report["verification"]["status"] == "unattested"

    def test_outage_served_from_cache_then_unavailable(self):
        monitor, plane = _attested_monitor()
        assert _get_json(monitor)["verification"]["status"] == "verified"
        plane.service.outage()
        # Inside the cache window the cached verdict stands in.
        cached = _get_json(monitor)["verification"]
        assert cached["status"] == "verified" and cached["from_cache"] is True
        # Outside it, the endpoint reports the degradation.
        plane.clock.advance(60.0)
        report = _get_json(monitor)
        assert report["verification"]["status"] == "unavailable"
        assert report["verifier"]["service_available"] is False

    def test_revocation_bites_through_the_cache(self):
        monitor, plane = _attested_monitor()
        assert _get_json(monitor)["verification"]["status"] == "verified"
        plane.service.set_tcb_status(
            plane.platform("frontend").platform_id, "revoked"
        )
        verification = _get_json(monitor)["verification"]
        assert verification["status"] == "rejected"
        assert verification["error"] == "TcbRevokedError"

    def test_non_get_is_405_and_other_paths_forward(self):
        monitor, _ = _attested_monitor()
        response = monitor(HttpRequest("POST", "/attest"))
        assert response.status == 405
        assert response.headers.get("Allow") == "GET"
        assert monitor(HttpRequest("GET", "/other")).body == b"inner:/other"
        # Query strings still hit the endpoint.
        assert monitor(HttpRequest("GET", "/attest?verbose=1")).status == 200


class TestAttestThroughSupervisor:
    def test_served_through_supervised_connection(self):
        monitor, _ = _attested_monitor()
        sup = EventLoop(monitor)
        cid = sup.open()
        result = sup.feed(cid, _request("/attest"))
        assert result.served == 1 and not result.aborted
        report = json.loads(parse_response(result.output).body.decode())
        assert report["verification"]["status"] == "verified"

    def test_endpoint_counts_against_request_budget(self):
        monitor, _ = _attested_monitor()
        limits = ConnectionLimits(max_requests_per_connection=2)
        sup = EventLoop(monitor, limits=limits)
        cid = sup.open()
        assert sup.feed(cid, _request("/attest")).served == 1
        assert sup.feed(cid, _request("/attest")).served == 1
        result = sup.feed(cid, _request("/attest"))
        assert result.aborted  # budget exhausted: monitoring is not exempt

    def test_pipelined_attest_requests_respect_depth_bound(self):
        monitor, _ = _attested_monitor()
        limits = ConnectionLimits(max_pipelined_per_feed=2)
        sup = EventLoop(monitor, limits=limits)
        cid = sup.open()
        result = sup.feed(cid, _request() + _request() + _request())
        assert result.aborted
