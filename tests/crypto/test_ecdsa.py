"""Tests for deterministic ECDSA."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature

# RFC 6979 appendix A.2.5 (P-256, SHA-256) test key.
RFC6979_D = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_UX = 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
RFC6979_UY = 0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299
RFC6979_SAMPLE_R = 0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716
RFC6979_SAMPLE_S = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"ecdsa-test"))


def test_public_key_matches_rfc6979_vector():
    key = EcdsaPrivateKey(RFC6979_D)
    pub = key.public_key()
    assert pub.point.x == RFC6979_UX
    assert pub.point.y == RFC6979_UY


def test_sign_matches_rfc6979_sample_vector():
    key = EcdsaPrivateKey(RFC6979_D)
    sig = key.sign(b"sample")
    assert sig.r == RFC6979_SAMPLE_R
    assert sig.s == RFC6979_SAMPLE_S


def test_sign_verify_roundtrip(key):
    message = b"audit log epoch 42"
    sig = key.sign(message)
    assert key.public_key().verify(message, sig)


def test_verify_rejects_modified_message(key):
    sig = key.sign(b"original")
    assert not key.public_key().verify(b"tampered", sig)


def test_verify_rejects_wrong_key(key):
    other = EcdsaPrivateKey.generate(HmacDrbg(seed=b"other"))
    sig = key.sign(b"message")
    assert not other.public_key().verify(b"message", sig)


def test_verify_rejects_out_of_range_components(key):
    pub = key.public_key()
    n = CURVE_P256.n
    assert not pub.verify(b"m", EcdsaSignature(0, 1))
    assert not pub.verify(b"m", EcdsaSignature(1, 0))
    assert not pub.verify(b"m", EcdsaSignature(n, 1))
    assert not pub.verify(b"m", EcdsaSignature(1, n))


def test_signing_is_deterministic(key):
    assert key.sign(b"msg") == key.sign(b"msg")
    assert key.sign(b"msg") != key.sign(b"msg2")


def test_signature_encoding_roundtrip(key):
    sig = key.sign(b"encode me")
    assert EcdsaSignature.decode(sig.encode()) == sig


def test_signature_decode_rejects_bad_length():
    with pytest.raises(ValueError):
        EcdsaSignature.decode(b"\x00" * 63)


def test_public_key_encoding_roundtrip(key):
    pub = key.public_key()
    assert EcdsaPublicKey.decode(pub.encode()) == pub


def test_fingerprint_is_stable_and_distinct(key):
    pub = key.public_key()
    assert pub.fingerprint() == pub.fingerprint()
    other = EcdsaPrivateKey.generate(HmacDrbg(seed=b"another")).public_key()
    assert pub.fingerprint() != other.fingerprint()


def _forgery_under_infinity(message: bytes, s: int) -> EcdsaSignature:
    """With Q at infinity ``u2*Q`` vanishes, so ``r = x(e/s * G) mod n``
    satisfies the verification equation for any message and any ``s``."""
    from repro.crypto.ecdsa import _hash_to_int

    n = CURVE_P256.n
    u1 = _hash_to_int(message, n) * pow(s, -1, n) % n
    return EcdsaSignature((u1 * CURVE_P256.generator).x % n, s)


def test_nothing_verifies_under_the_point_at_infinity():
    from repro.crypto.ec import ECPoint

    infinity_key = EcdsaPublicKey(ECPoint.infinity(CURVE_P256))
    for message, s in [(b"any message", 1), (b"pay mallory", 0xDEADBEEF)]:
        forged = _forgery_under_infinity(message, s)
        assert not infinity_key.verify(message, forged)


def test_public_key_decode_rejects_the_point_at_infinity():
    with pytest.raises(ValueError, match="infinity"):
        EcdsaPublicKey.decode(b"\x00")
