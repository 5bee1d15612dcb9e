"""HTTP parsing and serialisation tests."""

import pytest

from repro.errors import HTTPError
from repro.http import (
    LIBSEAL_CHECK_HEADER,
    HttpRequest,
    HttpResponse,
    parse_request,
    parse_response,
)
from repro.http.messages import Headers
from repro.http.parser import extract_message


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers([("Content-Type", "text/html")])
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_set_replaces(self):
        headers = Headers([("X-A", "1")])
        headers.set("x-a", "2")
        assert headers.get("X-A") == "2"
        assert len(headers.items()) == 1

    def test_add_appends(self):
        headers = Headers()
        headers.add("Set-Cookie", "a=1")
        headers.add("Set-Cookie", "b=2")
        assert len(headers.items()) == 2

    def test_contains_and_remove(self):
        headers = Headers([("X-A", "1")])
        assert "x-a" in headers
        headers.remove("X-A")
        assert "x-a" not in headers


class TestRequest:
    def test_roundtrip(self):
        request = HttpRequest("POST", "/git/repo.git/git-receive-pack")
        request.headers.set("Host", "git.example")
        request.body = b"packdata"
        parsed = parse_request(request.encode())
        assert parsed.method == "POST"
        assert parsed.path == "/git/repo.git/git-receive-pack"
        assert parsed.headers.get("Host") == "git.example"
        assert parsed.body == b"packdata"

    def test_request_without_body(self):
        parsed = parse_request(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
        assert parsed.method == "GET"
        assert parsed.body == b""

    def test_libseal_check_header_detected(self):
        request = HttpRequest("GET", "/")
        assert not request.wants_invariant_check
        request.headers.set(LIBSEAL_CHECK_HEADER, "1")
        assert request.wants_invariant_check

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError):
            parse_request(b"BROKEN\r\n\r\n")

    def test_bad_version(self):
        with pytest.raises(HTTPError):
            parse_request(b"GET / SPDY/9\r\n\r\n")

    def test_missing_terminator(self):
        with pytest.raises(HTTPError):
            parse_request(b"GET / HTTP/1.1\r\nHost: h\r\n")

    def test_content_length_truncates_extra_bytes(self):
        data = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA"
        assert parse_request(data).body == b"abc"

    def test_body_shorter_than_content_length(self):
        with pytest.raises(HTTPError):
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_bad_content_length(self):
        with pytest.raises(HTTPError):
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\nabc")

    def test_malformed_header_line(self):
        with pytest.raises(HTTPError):
            parse_request(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n")


class TestResponse:
    def test_roundtrip(self):
        response = HttpResponse(200, body=b"<html/>")
        response.headers.set("Content-Type", "text/html")
        parsed = parse_response(response.encode())
        assert parsed.status == 200
        assert parsed.reason == "OK"
        assert parsed.body == b"<html/>"

    def test_default_reasons(self):
        assert HttpResponse(404).reason == "Not Found"
        assert HttpResponse(429).reason == "Too Many Requests"
        assert HttpResponse(599).reason == "Unknown"

    def test_malformed_status_line(self):
        with pytest.raises(HTTPError):
            parse_response(b"NOT-HTTP 200 OK\r\n\r\n")

    def test_bad_status_code(self):
        with pytest.raises(HTTPError):
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_content_length_auto_added(self):
        encoded = HttpResponse(200, body=b"12345").encode()
        assert b"Content-Length: 5" in encoded


class TestStreaming:
    def test_message_complete(self):
        full = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody"
        assert extract_message(bytearray(full[:-1])) is None
        assert extract_message(bytearray(full)) == full

    def test_extract_message_pops_one(self):
        buffer = bytearray(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
        )
        first = extract_message(buffer)
        assert first is not None
        assert parse_request(first).path == "/a"
        second = extract_message(buffer)
        assert parse_request(second).path == "/b"
        assert extract_message(buffer) is None

    def test_extract_waits_for_body(self):
        buffer = bytearray(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbo")
        assert extract_message(buffer) is None
        buffer.extend(b"dy")
        assert extract_message(buffer) is not None
