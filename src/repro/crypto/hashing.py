"""Hash, MAC and key-derivation helpers.

Thin wrappers around :mod:`hashlib`/:mod:`hmac` plus an HKDF (RFC 5869)
implementation. Centralising them keeps the rest of the codebase free of
digest-name literals and makes the hash algorithm swappable in one place.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

HASH_LEN = 32


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a hex string."""
    return hashlib.sha256(data).hexdigest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return HMAC-SHA256 of ``data`` under ``key``."""
    return _hmac.digest(key, data, "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking a timing side channel."""
    return _hmac.compare_digest(a, b)


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract step (RFC 5869 §2.2)."""
    if not salt:
        salt = bytes(HASH_LEN)
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand step (RFC 5869 §2.3)."""
    if length > 255 * HASH_LEN:
        raise ValueError("HKDF output length too large")
    blocks = []
    previous = b""
    for counter in range(1, -(-length // HASH_LEN) + 1):
        previous = hmac_sha256(prk, previous + info + bytes([counter]))
        blocks.append(previous)
    return b"".join(blocks)[:length]


def hkdf(ikm: bytes, salt: bytes = b"", info: bytes = b"", length: int = HASH_LEN) -> bytes:
    """Derive ``length`` bytes of key material from ``ikm`` via HKDF."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)
