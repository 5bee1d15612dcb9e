"""Tests for hashing, HMAC and HKDF helpers."""

import hashlib

from repro.crypto.hashing import (
    constant_time_equal,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    sha256,
    sha256_hex,
)


def test_sha256_matches_hashlib():
    assert sha256(b"abc") == hashlib.sha256(b"abc").digest()


def test_sha256_hex_matches_known_vector():
    # FIPS 180-2 test vector for "abc".
    assert sha256_hex(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_hmac_sha256_known_vector():
    # RFC 4231 test case 2.
    tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
    assert tag.hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )


def test_hkdf_rfc5869_test_case_1():
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


def test_hkdf_rfc5869_test_case_2_long_inputs():
    ikm = bytes(range(0x00, 0x50))
    salt = bytes(range(0x60, 0xB0))
    info = bytes(range(0xB0, 0x100))
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
    )
    okm = hkdf_expand(prk, info, 82)
    assert okm.hex() == (
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87"
    )


def test_hkdf_rfc5869_test_case_3_empty_salt_and_info():
    ikm = bytes.fromhex("0b" * 22)
    prk = hkdf_extract(b"", ikm)
    assert prk.hex() == (
        "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
    )
    okm = hkdf_expand(prk, b"", 42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


def test_hkdf_expand_block_edges():
    prk = hkdf_extract(b"salt", b"ikm")
    longest = hkdf_expand(prk, b"info", 255 * 32)
    for length in (0, 1, 31, 32, 33, 64, 65, 255 * 32):
        assert hkdf_expand(prk, b"info", length) == longest[:length]


def test_hkdf_one_shot_matches_extract_expand():
    ikm, salt, info = b"key material", b"salt", b"context"
    expected = hkdf_expand(hkdf_extract(salt, ikm), info, 64)
    assert hkdf(ikm, salt=salt, info=info, length=64) == expected


def test_hkdf_empty_salt_uses_zero_block():
    assert hkdf(b"ikm") == hkdf(b"ikm", salt=b"")


def test_hkdf_rejects_oversized_output():
    import pytest

    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)


def test_constant_time_equal():
    assert constant_time_equal(b"same", b"same")
    assert not constant_time_equal(b"same", b"diff")
    assert not constant_time_equal(b"same", b"samelonger")
