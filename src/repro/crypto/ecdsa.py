"""ECDSA over P-256 with deterministic nonces (RFC 6979 shape).

LibSEAL signs audit-log epochs with an ECDSA key pair created during enclave
provisioning (§5.1); certificates in our TLS substrate are ECDSA-signed as
well. Deterministic nonces keep signing reproducible and eliminate the
classic nonce-reuse footgun.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256, Curve, ECPoint, double_multiply
from repro.crypto.hashing import hmac_sha256, sha256


@dataclass(frozen=True)
class EcdsaSignature:
    """An ECDSA signature ``(r, s)``."""

    r: int
    s: int

    def encode(self) -> bytes:
        """Fixed-width big-endian encoding: ``r || s`` (32 bytes each)."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "EcdsaSignature":
        if len(data) != 64:
            raise ValueError("malformed ECDSA signature encoding")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


@dataclass(frozen=True)
class EcdsaPublicKey:
    """An ECDSA verification key (a curve point)."""

    point: ECPoint

    @property
    def curve(self) -> Curve:
        return self.point.curve

    def verify(self, message: bytes, signature: EcdsaSignature) -> bool:
        """Return ``True`` iff ``signature`` is valid for ``message``."""
        n = self.curve.n
        r, s = signature.r, signature.s
        if not (1 <= r < n and 1 <= s < n):
            return False
        if self.point.is_infinity:
            # u2*Q would vanish and leave r = x(u1*G), which anyone can
            # satisfy for any message: no signature verifies under it.
            return False
        e = _hash_to_int(message, n)
        w = pow(s, -1, n)
        u1 = e * w % n
        u2 = r * w % n
        point = double_multiply(u1, u2, self.point)
        if point.is_infinity:
            return False
        return point.x % n == r

    def encode(self) -> bytes:
        return self.point.encode()

    @classmethod
    def decode(cls, data: bytes, curve: Curve = CURVE_P256) -> "EcdsaPublicKey":
        point = ECPoint.decode(curve, data)
        if point.is_infinity:
            raise ValueError("public key is the point at infinity")
        return cls(point)

    def fingerprint(self) -> bytes:
        """A stable 32-byte identifier for this key."""
        return sha256(self.encode())


@dataclass(frozen=True)
class EcdsaPrivateKey:
    """An ECDSA signing key (scalar ``d`` with public point ``d*G``)."""

    d: int
    curve: Curve = CURVE_P256

    @classmethod
    def generate(cls, drbg: HmacDrbg, curve: Curve = CURVE_P256) -> "EcdsaPrivateKey":
        """Generate a key with ``1 <= d < n`` from the given DRBG."""
        d = 1 + drbg.randint_below(curve.n - 1)
        return cls(d, curve)

    def public_key(self) -> EcdsaPublicKey:
        return self._public_key

    @cached_property
    def _public_key(self) -> EcdsaPublicKey:
        return EcdsaPublicKey(self.d * self.curve.generator)

    def sign(self, message: bytes) -> EcdsaSignature:
        """Sign ``message`` with a deterministic (RFC 6979-style) nonce."""
        n = self.curve.n
        e = _hash_to_int(message, n)
        k = self._deterministic_nonce(message)
        while True:
            point = k * self.curve.generator
            r = point.x % n
            if r == 0:
                k = (k + 1) % n or 1
                continue
            s = pow(k, -1, n) * (e + r * self.d) % n
            if s == 0:
                k = (k + 1) % n or 1
                continue
            return EcdsaSignature(r, s)

    def _deterministic_nonce(self, message: bytes) -> int:
        """Derive a per-message nonce bound to the private key (RFC 6979)."""
        n = self.curve.n
        size = (n.bit_length() + 7) // 8
        key_bytes = self.d.to_bytes(size, "big")
        h1 = sha256(message)
        v = b"\x01" * 32
        k = b"\x00" * 32
        k = hmac_sha256(k, v + b"\x00" + key_bytes + h1)
        v = hmac_sha256(k, v)
        k = hmac_sha256(k, v + b"\x01" + key_bytes + h1)
        v = hmac_sha256(k, v)
        while True:
            v = hmac_sha256(k, v)
            candidate = int.from_bytes(v, "big")
            if 1 <= candidate < n:
                return candidate
            k = hmac_sha256(k, v + b"\x00")
            v = hmac_sha256(k, v)


def _hash_to_int(message: bytes, n: int) -> int:
    """Map a message hash to an integer modulo the group order."""
    digest = sha256(message)
    e = int.from_bytes(digest, "big")
    excess = len(digest) * 8 - n.bit_length()
    if excess > 0:
        e >>= excess
    return e % n
