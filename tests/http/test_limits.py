"""Parser bounds and Content-Length canonicalisation.

The request-smuggling surface: every entry point must make the same
framing decision for the same bytes, and every decision must be bounded.
"""

import pytest

from repro.errors import HTTPError
from repro.http.messages import Headers
from repro.http.parser import (
    HttpLimits,
    extract_message,
    parse_request,
)

TIGHT = HttpLimits(
    max_header_count=8,
    max_header_line_bytes=256,
    max_body_bytes=4096,
    max_buffered_head_bytes=1024,
)


def _req(headers: str, body: bytes = b"") -> bytes:
    return f"POST /x HTTP/1.1\r\n{headers}\r\n\r\n".encode() + body


class TestContentLength:
    def test_negative_rejected(self):
        data = _req("Content-Length: -5", b"hello")
        with pytest.raises(HTTPError, match="negative Content-Length"):
            parse_request(data)
        with pytest.raises(HTTPError):
            extract_message(bytearray(data))

    def test_non_numeric_rejected(self):
        data = _req("Content-Length: 7x", b"payload")
        with pytest.raises(HTTPError, match="bad Content-Length"):
            parse_request(data)
        with pytest.raises(HTTPError):
            extract_message(bytearray(data))

    def test_conflicting_duplicates_rejected(self):
        """Two disagreeing Content-Lengths is the classic smuggling
        vector — reject, never pick one."""
        data = _req("Content-Length: 5\r\nContent-Length: 2", b"hello")
        with pytest.raises(HTTPError, match="conflicting Content-Length"):
            parse_request(data)
        with pytest.raises(HTTPError):
            extract_message(bytearray(data))

    def test_identical_duplicates_accepted(self):
        data = _req("Content-Length: 5\r\nContent-Length: 5", b"hello")
        assert parse_request(data).body == b"hello"
        assert extract_message(bytearray(data)) == data

    def test_over_bound_rejected_even_if_body_absent(self):
        data = _req(f"Content-Length: {TIGHT.max_body_bytes + 1}")
        with pytest.raises(HTTPError, match="exceeds bound"):
            extract_message(bytearray(data), TIGHT)
        with pytest.raises(HTTPError):
            parse_request(data + b"x", TIGHT)

    def test_body_shorter_than_declared_rejected(self):
        with pytest.raises(HTTPError, match="shorter than Content-Length"):
            parse_request(_req("Content-Length: 10", b"short"))

    def test_framing_and_body_decisions_agree(self):
        """The bytes extract_message delimits parse to exactly that body."""
        first = _req("Content-Length: 3", b"abcEXTRA")
        buffer = bytearray(first)
        message = extract_message(buffer)
        assert message is not None
        assert parse_request(message).body == b"abc"
        assert bytes(buffer) == b"EXTRA"

    def test_whitespace_before_colon_cannot_split_framing_from_body(self):
        """``Content-Length : N`` must be seen identically by framing and
        parsing — a spelling honored by one but invisible to the other
        re-frames the declared body as a smuggled follow-up request."""
        data = _req("Content-Length : 5", b"helloGET /smug HTTP/1.1\r\n\r\n")
        buffer = bytearray(data)
        message = extract_message(buffer)
        # Framing honors the declaration: the body travels with its head.
        assert message == _req("Content-Length : 5", b"hello")
        assert bytes(buffer) == b"GET /smug HTTP/1.1\r\n\r\n"
        # Parsing then rejects the illegal field-name (RFC 7230 §3.2.4),
        # consuming the whole framed message — nothing is re-interpreted.
        with pytest.raises(HTTPError, match="whitespace before colon"):
            parse_request(message)


class TestHeaderBounds:
    def test_header_count_bound(self):
        bomb = "\r\n".join(f"X-{i}: v" for i in range(20))
        with pytest.raises(HTTPError, match="header lines"):
            parse_request(_req(bomb), TIGHT)

    def test_header_line_length_bound(self):
        long_line = "X-Long: " + "a" * 600
        with pytest.raises(HTTPError, match="exceeds bound"):
            parse_request(_req(long_line), TIGHT)

    def test_buffered_head_bound_without_terminator(self):
        trickle = b"GET / HTTP/1.1\r\nX-Drip: " + b"a" * 2000
        with pytest.raises(HTTPError, match="without a header terminator"):
            extract_message(bytearray(trickle), TIGHT)

    def test_incomplete_head_within_bound_waits(self):
        assert extract_message(bytearray(b"GET / HTTP/1.1\r\nX: y"), TIGHT) is None
        assert extract_message(bytearray(b"GET / HT"), TIGHT) is None


class TestRequestLine:
    @pytest.mark.parametrize(
        "line",
        [b" /x HTTP/1.1", b"GET  HTTP/1.1", b"GET /x FTP/1.0", b"nonsense"],
    )
    def test_malformed_request_lines_rejected(self, line):
        with pytest.raises(HTTPError):
            parse_request(line + b"\r\n\r\n")


class TestHeadersGetAll:
    def test_get_all_returns_every_value_case_insensitively(self):
        headers = Headers()
        headers.add("Content-Length", "5")
        headers.add("content-length", "9")
        assert headers.get_all("CONTENT-LENGTH") == ["5", "9"]
        assert headers.get_all("absent") == []
