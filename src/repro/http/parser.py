"""HTTP/1.1 wire-format parser.

All entry points take an optional :class:`HttpLimits` so the front end can
bound what an untrusted peer may make us buffer or parse. Violations raise
:class:`~repro.errors.HTTPError` — never silent truncation: a negative,
non-numeric, oversized or self-contradicting ``Content-Length`` is rejected
identically by :func:`parse_request` and :func:`extract_message`, so the
framing decision and the body-length decision can never disagree (the
classic request-smuggling vector).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HTTPError
from repro.http.messages import Headers, HttpRequest, HttpResponse


@dataclass(frozen=True)
class HttpLimits:
    """Bounds on what one HTTP message may make the parser hold or do."""

    max_header_count: int = 100
    max_header_line_bytes: int = 8192
    max_body_bytes: int = 64 * 1024 * 1024
    #: Bytes we will buffer while waiting for ``\r\n\r\n``. A peer that
    #: streams header bytes without ever terminating them is cut off here.
    max_buffered_head_bytes: int = 64 * 1024


DEFAULT_LIMITS = HttpLimits()


def parse_request(data: bytes, limits: HttpLimits = DEFAULT_LIMITS) -> HttpRequest:
    """Parse one complete HTTP request from ``data``."""
    head, body = _split_head(data)
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) != 3:
        raise HTTPError(f"malformed request line: {lines[0]!r}")
    method, path, version = parts
    if not method or not path:
        raise HTTPError(f"malformed request line: {lines[0]!r}")
    if not version.startswith("HTTP/"):
        raise HTTPError(f"bad HTTP version: {version!r}")
    headers = _parse_headers(lines[1:], limits)
    body = _limit_body(headers, body, limits)
    return HttpRequest(method=method, path=path, headers=headers, body=body,
                       version=version)


def parse_response(data: bytes, limits: HttpLimits = DEFAULT_LIMITS) -> HttpResponse:
    """Parse one complete HTTP response from ``data``."""
    head, body = _split_head(data)
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HTTPError(f"malformed status line: {lines[0]!r}")
    version = parts[0]
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HTTPError(f"bad status code: {parts[1]!r}") from exc
    reason = parts[2] if len(parts) == 3 else ""
    headers = _parse_headers(lines[1:], limits)
    body = _limit_body(headers, body, limits)
    return HttpResponse(status=status, reason=reason, headers=headers, body=body,
                        version=version)


def _split_head(data: bytes) -> tuple[str, bytes]:
    separator = data.find(b"\r\n\r\n")
    if separator == -1:
        raise HTTPError("incomplete HTTP message (no header terminator)")
    try:
        head = data[:separator].decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise HTTPError("undecodable header bytes") from exc
    return head, data[separator + 4 :]


def _parse_headers(lines: list[str], limits: HttpLimits = DEFAULT_LIMITS) -> Headers:
    headers = Headers()
    count = 0
    for line in lines:
        if not line:
            continue
        if len(line) > limits.max_header_line_bytes:
            raise HTTPError(
                f"header line of {len(line)} bytes exceeds bound "
                f"{limits.max_header_line_bytes}"
            )
        if ":" not in line:
            raise HTTPError(f"malformed header line: {line!r}")
        count += 1
        if count > limits.max_header_count:
            raise HTTPError(
                f"more than {limits.max_header_count} header lines"
            )
        name, _, value = line.partition(":")
        if name != name.rstrip():
            # RFC 7230 §3.2.4: whitespace between field-name and colon must
            # be rejected — honoring it while framing code skipped the line
            # is exactly the framing/body-length split smuggling exploits.
            raise HTTPError(f"whitespace before colon in header: {line!r}")
        headers.add(name.strip(), value.strip())
    return headers


def _declared_length(values: list[str], limits: HttpLimits) -> int | None:
    """Canonical Content-Length interpretation shared by every entry point.

    Returns ``None`` when no Content-Length was declared. Raises
    :class:`HTTPError` for non-numeric or negative values, for duplicate
    declarations that disagree, and for declarations over the body bound.
    """
    if not values:
        return None
    lengths = set()
    for declared in values:
        try:
            lengths.add(int(declared))
        except ValueError as exc:
            raise HTTPError(f"bad Content-Length: {declared!r}") from exc
    if len(lengths) > 1:
        raise HTTPError(f"conflicting Content-Length values: {sorted(lengths)}")
    length = lengths.pop()
    if length < 0:
        raise HTTPError(f"negative Content-Length: {length}")
    if length > limits.max_body_bytes:
        raise HTTPError(
            f"Content-Length {length} exceeds bound {limits.max_body_bytes}"
        )
    return length


def _limit_body(
    headers: Headers, body: bytes, limits: HttpLimits = DEFAULT_LIMITS
) -> bytes:
    length = _declared_length(headers.get_all("Content-Length"), limits)
    if length is None:
        if len(body) > limits.max_body_bytes:
            raise HTTPError(
                f"body of {len(body)} bytes exceeds bound {limits.max_body_bytes}"
            )
        return body
    if length > len(body):
        raise HTTPError("body shorter than Content-Length")
    return body[:length]


def _head_content_length(head: str, limits: HttpLimits) -> int:
    """Declared body length from raw head text (0 when undeclared).

    Header names are extracted exactly as :func:`_parse_headers` extracts
    them (partition on the first colon, strip the name) so no spelling of
    ``Content-Length`` — e.g. with whitespace before the colon — can be
    honored by the body-length decision while being invisible to framing.
    """
    values = []
    for line in head.split("\r\n")[1:]:
        if ":" not in line:
            continue
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            values.append(value.strip())
    return _declared_length(values, limits) or 0


def extract_message(
    data: bytearray, limits: HttpLimits = DEFAULT_LIMITS
) -> bytes | None:
    """Pop one complete message's bytes (head + body) from ``data``, or
    return ``None`` while it is still arriving.

    Raises :class:`HTTPError` when the head is present but its framing is
    unusable (bad Content-Length, over-bound body) — such a stream can
    never be delimited, so waiting for more bytes would hang forever —
    or when ``data`` exceeds the pre-terminator buffering bound without
    containing a header terminator. Framing decisions are made by the
    same :func:`_declared_length` logic as :func:`parse_request`, so a
    message this function delimits can never be re-interpreted with a
    different body length downstream.
    """
    separator = data.find(b"\r\n\r\n")
    if separator == -1:
        if len(data) > limits.max_buffered_head_bytes:
            raise HTTPError(
                f"{len(data)} buffered bytes without a header terminator "
                f"exceed bound {limits.max_buffered_head_bytes}"
            )
        return None
    head = data[:separator].decode("latin-1", errors="replace")
    total = separator + 4 + _head_content_length(head, limits)
    if len(data) < total:
        return None
    message = bytes(data[:total])
    del data[:total]
    return message
