"""Binary fields read back strictly: fixed-width big-endian integers, raw
fixed-size bytes and 4-byte-length-prefixed bytes. TLS messages,
certificates, quotes, RA-TLS evidence, the audit log's records and the
write-ahead intents are all built from them."""

from __future__ import annotations

from repro.errors import ReproError, TLSError


def encode_bytes(data: bytes) -> bytes:
    """4-byte big-endian length prefix + payload."""
    return len(data).to_bytes(4, "big") + data


def encode_parts(*parts: bytes) -> bytes:
    return b"".join(encode_bytes(p) for p in parts)


class Reader:
    """Sequential field reader; raises ``error``, naming ``what``, on a
    short read, a length over its bound or (:meth:`expect_end`) leftovers."""

    def __init__(
        self,
        data: bytes,
        error: type[ReproError] = TLSError,
        what: str = "TLS message",
    ):
        self._data = data
        self._pos = 0
        self._error = error
        self._what = what

    def _take(self, size: int, missing: str) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise self._error(f"truncated {self._what} (missing {missing})")
        field = self._data[self._pos : end]
        self._pos = end
        return field

    def read_bytes(self, limit: int | None = None) -> bytes:
        """One length-prefixed field of at most ``limit`` bytes."""
        length = int.from_bytes(self._take(4, "length"), "big")
        if limit is not None and length > limit:
            raise self._error(f"{self._what} field of {length} bytes exceeds {limit}")
        return self._take(length, "payload")

    def read_fixed(self, size: int) -> bytes:
        """Exactly ``size`` raw bytes."""
        return self._take(size, f"{size}-byte field")

    def read_uint(self, width: int, signed: bool = False) -> int:
        """A ``width``-byte big-endian integer (two's complement if ``signed``)."""
        field = self._take(width, f"{8 * width}-bit integer")
        return int.from_bytes(field, "big", signed=signed)

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise self._error(f"trailing bytes in {self._what}")
