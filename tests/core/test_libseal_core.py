"""Unit tests for the LibSEAL core: logger pairing, checker, rate limiting."""

from hypothesis import given, settings, strategies as st

from repro.core import LibSeal, LibSealConfig
from repro.core.checker import RateLimiter
from repro.core.logger import AuditLogger
from repro.http import (
    LIBSEAL_CHECK_HEADER,
    LIBSEAL_RESULT_HEADER,
    HttpRequest,
    HttpResponse,
    parse_response,
)
from repro.ssm import GitSSM


class TestAuditLogger:
    def make_logger(self, pairs):
        def on_pair(request, response, handle):
            pairs.append((request.path, response.status, handle))
            return None

        return AuditLogger(on_pair)

    def test_pairs_request_with_response(self):
        pairs = []
        logger = self.make_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/a").encode())
        logger.on_write(1, HttpResponse(200).encode())
        assert pairs == [("/a", 200, 1)]

    def test_fragmented_request_bytes(self):
        pairs = []
        logger = self.make_logger(pairs)
        raw = HttpRequest("GET", "/frag").encode()
        logger.on_read(1, raw[:5])
        logger.on_read(1, raw[5:])
        logger.on_write(1, HttpResponse(200).encode())
        assert pairs == [("/frag", 200, 1)]

    def test_pipelined_requests(self):
        pairs = []
        logger = self.make_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/1").encode() + HttpRequest("GET", "/2").encode())
        logger.on_write(1, HttpResponse(200).encode())
        logger.on_write(1, HttpResponse(404).encode())
        assert pairs == [("/1", 200, 1), ("/2", 404, 1)]

    def test_connections_are_independent(self):
        pairs = []
        logger = self.make_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/conn1").encode())
        logger.on_read(2, HttpRequest("GET", "/conn2").encode())
        logger.on_write(2, HttpResponse(200).encode())
        logger.on_write(1, HttpResponse(200).encode())
        assert {p[0] for p in pairs} == {"/conn1", "/conn2"}

    def test_header_injection(self):
        logger = AuditLogger(lambda req, rsp, handle: "OK")
        logger.on_read(1, HttpRequest("GET", "/x").encode())
        replacement = logger.on_write(1, HttpResponse(200, body=b"hi").encode())
        assert replacement is not None
        parsed = parse_response(replacement)
        assert parsed.headers.get(LIBSEAL_RESULT_HEADER) == "OK"
        assert parsed.body == b"hi"

    def test_no_injection_returns_none(self):
        logger = AuditLogger(lambda req, rsp, handle: None)
        logger.on_read(1, HttpRequest("GET", "/x").encode())
        assert logger.on_write(1, HttpResponse(200).encode()) is None

    def test_non_http_traffic_is_tolerated(self):
        pairs = []
        logger = self.make_logger(pairs)
        logger.on_read(1, b"\x16\x03\x01 binary junk \r\n\r\n")
        logger.on_write(1, b"more junk \r\n\r\n")
        assert pairs == []
        assert logger.unparsable_messages >= 1

    def test_close_connection_clears_state(self):
        pairs = []
        logger = self.make_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/x").encode())
        logger.close_connection(1)
        logger.on_write(1, HttpResponse(200).encode())
        assert pairs == []


def _body_logger(pairs, header=None):
    def on_pair(request, response, handle):
        pairs.append((request.path, response.status, response.body))
        return header

    return AuditLogger(on_pair)


def _written(logger, chunks):
    """What ``SSL_write`` would send for each chunk, concatenated."""
    out = b""
    for chunk in chunks:
        replacement = logger.on_write(1, chunk)
        out += chunk if replacement is None else replacement
    return out


class TestSplitResponses:
    """A response written in more than one ``SSL_write`` is framed
    across the writes and paired with its own request."""

    def test_split_response_is_logged_with_its_request(self):
        pairs = []
        logger = _body_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/a").encode()
                       + HttpRequest("GET", "/b").encode())
        first = HttpResponse(200, body=b"0123456789").encode()
        second = HttpResponse(404, body=b"second").encode()
        chunks = [first[:-5], first[-5:], second]
        assert [logger.on_write(1, c) for c in chunks] == [None] * 3
        assert pairs == [("/a", 200, b"0123456789"), ("/b", 404, b"second")]
        assert logger.unparsable_messages == 0
        assert logger.poisoned_connections == 0

    def test_head_split_byte_by_byte(self):
        pairs = []
        logger = _body_logger(pairs)
        logger.on_read(1, HttpRequest("GET", "/a").encode())
        raw = HttpResponse(200, body=b"xyz").encode()
        assert _written(logger, [raw[i:i + 1] for i in range(len(raw))]) == raw
        assert pairs == [("/a", 200, b"xyz")]

    def test_verdict_is_not_injected_into_bytes_already_sent(self):
        pairs = []
        logger = _body_logger(pairs, header="OK")
        logger.on_read(1, HttpRequest("GET", "/a").encode()
                       + HttpRequest("GET", "/b").encode())
        first = HttpResponse(200, body=b"0123456789").encode()
        second = HttpResponse(200, body=b"whole").encode()
        assert logger.on_write(1, first[:10]) is None
        out = logger.on_write(1, first[10:] + second)
        # The split response's remainder passes unchanged (its head left
        # without the header); the whole one behind it still gets it.
        assert out.startswith(first[10:])
        rewritten = parse_response(out[len(first) - 10:])
        assert rewritten.headers.get(LIBSEAL_RESULT_HEADER) == "OK"
        assert [p[0] for p in pairs] == ["/a", "/b"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_split_logs_the_unsplit_pairs(self, data):
        responses = data.draw(st.lists(
            st.tuples(st.sampled_from([200, 404, 500]),
                      st.binary(max_size=24)),
            min_size=1, max_size=5,
        ))
        stream = b"".join(
            HttpResponse(status, body=body).encode()
            for status, body in responses
        )
        cuts = sorted(data.draw(
            st.sets(st.integers(1, len(stream) - 1), max_size=8)
        ))
        bounds = [0, *cuts, len(stream)]
        requests = b"".join(
            HttpRequest("GET", f"/{i}").encode() for i in range(len(responses))
        )

        def run(chunks):
            pairs = []
            logger = _body_logger(pairs)
            logger.on_read(1, requests)
            return pairs, _written(logger, chunks)

        whole_pairs, _ = run([stream])
        split_pairs, split_bytes = run(
            [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        )
        assert split_pairs == whole_pairs == [
            (f"/{i}", status, body)
            for i, (status, body) in enumerate(responses)
        ]
        assert split_bytes == stream


class TestRateLimiter:
    def test_allows_up_to_capacity(self):
        limiter = RateLimiter(capacity=2, refill_per_request=0.0)
        assert limiter.allow("c")
        assert limiter.allow("c")
        assert not limiter.allow("c")

    def test_refill_restores_tokens(self):
        limiter = RateLimiter(capacity=2, refill_per_request=1.0)
        limiter.allow("c")
        limiter.allow("c")
        assert not limiter.allow("c")
        limiter.on_request()
        assert limiter.allow("c")

    def test_clients_are_independent(self):
        limiter = RateLimiter(capacity=1, refill_per_request=0.0)
        assert limiter.allow("a")
        assert limiter.allow("b")
        assert not limiter.allow("a")


class TestLibSealPipeline:
    def test_check_header_triggers_check(self):
        libseal = LibSeal(GitSSM())
        request = HttpRequest("GET", "/p.git/info/refs?service=git-upload-pack")
        request.headers.set(LIBSEAL_CHECK_HEADER, "1")
        header = libseal.log_pair(request, HttpResponse(200, body=b""))
        assert header == "OK"
        assert libseal.checker.stats.checks_run == 1

    def test_rate_limited_check(self):
        libseal = LibSeal(
            GitSSM(),
            config=LibSealConfig(check_rate_capacity=1, check_rate_refill=0.0),
        )
        request = HttpRequest("GET", "/p.git/info/refs?service=git-upload-pack")
        request.headers.set(LIBSEAL_CHECK_HEADER, "1")
        assert libseal.log_pair(request, HttpResponse(200)) == "OK"
        assert libseal.log_pair(request, HttpResponse(200)) == "RATE-LIMITED"
        assert libseal.checker.stats.rate_limited == 1

    def test_interval_checks_fire(self):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(check_interval=2))
        request = HttpRequest("GET", "/other")
        for _ in range(4):
            libseal.log_pair(request, HttpResponse(200))
        assert libseal.checker.stats.checks_run == 2

    def test_interval_trims_fire(self):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(trim_interval=3))
        request = HttpRequest("GET", "/other")
        for _ in range(6):
            libseal.log_pair(request, HttpResponse(200))
        assert libseal.checker.stats.trims_run == 2

    def test_flush_each_pair_seals_epochs(self):
        libseal = LibSeal(GitSSM())
        request = HttpRequest("GET", "/p.git/info/refs?service=git-upload-pack")
        response = HttpResponse(200, body=b"a" * 40 + b" master\n")
        libseal.log_pair(request, response)
        assert libseal.audit_log.epochs_sealed == 1
        libseal.verify_log()

    def test_no_flush_mode(self):
        libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
        request = HttpRequest("GET", "/p.git/info/refs?service=git-upload-pack")
        response = HttpResponse(200, body=b"a" * 40 + b" master\n")
        libseal.log_pair(request, response)
        assert libseal.audit_log.epochs_sealed == 0

    def test_violation_header_format(self):
        libseal = LibSeal(GitSSM())
        # Advertise a branch that never had an update: soundness violation?
        # (cid != scalar-NULL is NULL -> not a violation; instead push then
        # roll back by logging a mismatching advertisement directly.)
        libseal.audit_log.append("updates", (1, "r", "master", "c1", "create"))
        libseal.audit_log.append("updates", (2, "r", "master", "c2", "update"))
        libseal.audit_log.append("advertisements", (3, "r", "master", "c1"))
        request = HttpRequest("GET", "/ping")
        request.headers.set(LIBSEAL_CHECK_HEADER, "1")
        header = libseal.log_pair(request, HttpResponse(200))
        assert header.startswith("VIOLATIONS")
        assert "soundness=1" in header
