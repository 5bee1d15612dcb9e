"""Authenticated encryption with associated data (encrypt-then-MAC).

The TLS record layer and the SGX sealing facility both need an AEAD. We
build one from primitives available in the standard library: a keystream
cipher derived from HMAC-SHA256 in counter mode (CTR construction over a
PRF), with an HMAC-SHA256 tag over ``nonce || len(associated_data) ||
associated_data || ciphertext`` under an independent key. Structurally this
mirrors AES-CTR + HMAC (encrypt-then-MAC), a standard, provably sound
composition.

Keystream block ``i`` is ``HMAC(enc_key, nonce || INT_64_BE(i))``. RFC 8018
§5.2 with iteration count 1 defines PBKDF2 block ``T_i = HMAC(P, S ||
INT_32_BE(i))`` for ``i ≥ 1``, so with ``P = enc_key`` and ``S = nonce ||
0x00000000`` PBKDF2's output is exactly blocks 1 … 2**32 - 1: one stdlib C
call after one HMAC for block 0. Longer inputs, where the identity ends, are
refused before any work is done.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.hashing import HASH_LEN, constant_time_equal, hkdf, hmac_sha256
from repro.errors import IntegrityError

NONCE_LEN = 12
TAG_LEN = 32


@dataclass(frozen=True)
class AEADKey:
    """Independent encryption and MAC keys derived from one master key."""

    enc_key: bytes
    mac_key: bytes

    @classmethod
    def derive(cls, master: bytes, label: bytes = b"") -> "AEADKey":
        """Derive an AEAD key pair from ``master`` for the given ``label``."""
        material = hkdf(master, info=b"repro-aead" + label, length=2 * HASH_LEN)
        return cls(enc_key=material[:HASH_LEN], mac_key=material[HASH_LEN:])


class AEAD:
    """Nonce-based AEAD: ``seal``/``open`` with associated data."""

    def __init__(self, key: AEADKey):
        self._key = key

    def seal(self, nonce: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        self._check_nonce(nonce)
        ciphertext = _xor_keystream(self._key.enc_key, nonce, plaintext)
        tag = self._tag(nonce, associated_data, ciphertext)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``.

        Raises
        ------
        IntegrityError
            If the tag does not verify (tampered ciphertext, wrong key,
            wrong nonce, or wrong associated data).
        """
        self._check_nonce(nonce)
        if len(sealed) < TAG_LEN:
            raise IntegrityError("sealed blob shorter than authentication tag")
        ciphertext, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
        expected = self._tag(nonce, associated_data, ciphertext)
        if not constant_time_equal(tag, expected):
            raise IntegrityError("AEAD tag verification failed")
        return _xor_keystream(self._key.enc_key, nonce, ciphertext)

    def _tag(self, nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
        ad_len = len(associated_data).to_bytes(8, "big")
        mac = hmac.new(self._key.mac_key, nonce + ad_len + associated_data, "sha256")
        mac.update(ciphertext)
        return mac.digest()

    @staticmethod
    def _check_nonce(nonce: bytes) -> None:
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with an HMAC-CTR keystream bound to ``nonce``."""
    length = len(data)
    if length > (1 << 32) * HASH_LEN:
        raise ValueError(f"keystream limited to 2**32 blocks, got {length} bytes")
    stream = hmac_sha256(key, nonce + bytes(8))[:length]
    if length > HASH_LEN:  # pbkdf2_hmac refuses dklen=0
        stream += hashlib.pbkdf2_hmac("sha256", key, nonce + bytes(4), 1, length - HASH_LEN)
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(length, "big")
