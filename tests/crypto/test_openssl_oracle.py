"""P-256 and the AEAD against OpenSSL, through the ``cryptography`` package.

A *test-only* oracle: nothing under ``src/`` may import it (the in-enclave
arithmetic stays pure stdlib; CI greps for it). It is an implementation we
did not write, so it can disagree with ours: public keys, ECDH secrets,
signatures in both directions and — because both sides implement RFC 6979
— the signature bytes themselves. The AEAD is checked against a textbook
encrypt-then-MAC written here over OpenSSL's HMAC: one HMAC per 32-byte
keystream block, no PBKDF2 identity. Tier-1 runs a bounded number of
examples; the nightly raises ``REPRO_AEAD_EXAMPLES``.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm  # noqa: E402
from cryptography.hazmat.primitives import hashes, hmac  # noqa: E402
from cryptography.hazmat.primitives.asymmetric import ec as openssl_ec  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.utils import (  # noqa: E402
    decode_dss_signature,
    encode_dss_signature,
)

from repro.crypto.aead import AEAD, AEADKey, NONCE_LEN  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.crypto.ec import CURVE_P256, ECPoint  # noqa: E402
from repro.crypto.ecdh import ecdh_shared_secret  # noqa: E402
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature  # noqa: E402
from repro.crypto.hashing import sha256  # noqa: E402

N = CURVE_P256.n
SHA256 = openssl_ec.ECDSA(hashes.SHA256())


def _scalars(label: bytes, count: int = 50) -> list[int]:
    drbg = HmacDrbg(seed=b"openssl-oracle/" + label)
    edges = [1, 2, 15, 16, 17, N - 2, N - 1, 1 << 255, (1 << 252) - 1]
    return edges + [1 + drbg.randint_below(N - 1) for _ in range(count - len(edges))]


def _openssl_key(d: int) -> openssl_ec.EllipticCurvePrivateKey:
    return openssl_ec.derive_private_key(d, openssl_ec.SECP256R1())


def test_public_keys_agree():
    for d in _scalars(b"public"):
        numbers = _openssl_key(d).public_key().public_numbers()
        ours = d * CURVE_P256.generator
        assert (ours.x, ours.y) == (numbers.x, numbers.y)
        assert EcdsaPrivateKey(d).public_key().point == ours


def test_ecdh_shared_secrets_agree():
    privates = _scalars(b"ecdh-private")
    peers = _scalars(b"ecdh-peer")
    for d, peer_d in zip(privates, peers):
        peer = _openssl_key(peer_d).public_key()
        numbers = peer.public_numbers()
        theirs = _openssl_key(d).exchange(openssl_ec.ECDH(), peer)  # x-coordinate
        ours = ecdh_shared_secret(d, ECPoint(CURVE_P256, numbers.x, numbers.y))
        assert ours == sha256(theirs)


def test_openssl_accepts_our_signatures():
    for index, d in enumerate(_scalars(b"ours")):
        message = b"epoch %d" % index
        signature = EcdsaPrivateKey(d).sign(message)
        der = encode_dss_signature(signature.r, signature.s)
        public = _openssl_key(d).public_key()
        public.verify(der, message, SHA256)  # raises InvalidSignature on mismatch
        with pytest.raises(InvalidSignature):
            public.verify(der, message + b"!", SHA256)


def test_we_accept_openssl_signatures_and_reject_a_flipped_message():
    for index, d in enumerate(_scalars(b"theirs")):
        message = b"handshake %d" % index
        key = _openssl_key(d)  # randomised nonce: a signature we never produced
        r, s = decode_dss_signature(key.sign(message, SHA256))
        numbers = key.public_key().public_numbers()
        public = EcdsaPublicKey(ECPoint(CURVE_P256, numbers.x, numbers.y))
        assert public.verify(message, EcdsaSignature(r, s))
        flipped = bytes([message[0] ^ 1]) + message[1:]
        assert not public.verify(flipped, EcdsaSignature(r, s))
        assert not public.verify(message, EcdsaSignature(r, s ^ 1))


def test_deterministic_signatures_are_bit_identical():
    try:
        rfc6979 = openssl_ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
        _openssl_key(1).sign(b"probe", rfc6979)
    except (TypeError, UnsupportedAlgorithm) as exc:  # cryptography < 43 / OpenSSL < 3.2
        pytest.skip(f"no deterministic ECDSA in this OpenSSL: {exc}")
    for index, d in enumerate(_scalars(b"rfc6979")):
        message = b"sealed head %d" % index
        r, s = decode_dss_signature(_openssl_key(d).sign(message, rfc6979))
        assert EcdsaPrivateKey(d).sign(message) == EcdsaSignature(r, s)


def _openssl_verifies_head(head, public: EcdsaPublicKey) -> None:
    """OpenSSL verifies ``head``'s signature over its payload under ``public``."""
    point = public.point
    key = openssl_ec.EllipticCurvePublicNumbers(
        point.x, point.y, openssl_ec.SECP256R1()
    ).public_key()
    der = encode_dss_signature(head.signature.r, head.signature.s)
    key.verify(der, head.payload(), SHA256)  # raises InvalidSignature on mismatch
    with pytest.raises(InvalidSignature):
        key.verify(der, head.payload() + b"!", SHA256)


def test_openssl_verifies_every_exported_head():
    """A seal signs only at the cadence; every head that leaves the enclave
    is signed on the way out. Through each exit point — ``export_head``,
    ``AuditLog.verify`` (so ``LibSeal.verify_log`` and ``merge_logs``) and
    ``ShardPlane.verify_all`` (shard and control logs) — the head that
    leaves verifies under the log's public key in OpenSSL."""
    from repro.audit import AuditLog, RoteCluster
    from repro.audit.log import SIGN_EVERY
    from repro.audit.merge import merge_logs
    from repro.audit.persistence import InMemoryStorage
    from repro.core import LibSeal
    from repro.shard import ShardPlane
    from repro.ssm import GitSSM
    from repro.workloads import GitReplayWorkload
    from repro.workloads.messaging_traffic import MessagingWorkload

    key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"openssl-oracle/heads"))
    log = AuditLog(
        "CREATE TABLE t(time INTEGER)", key, RoteCluster(f=1), storage=InMemoryStorage()
    )
    for index in range(SIGN_EVERY + 1):  # both sides of a cadence value
        log.append("t", (index,))
        log.seal_epoch()
        _openssl_verifies_head(log.export_head(), key.public_key())

    instances = [LibSeal(GitSSM()) for _ in range(2)]
    workloads = [GitReplayWorkload(libseal, seed=seed) for seed, libseal in enumerate(instances)]
    for workload in workloads:
        workload.run(5)
    partials = [libseal.audit_log for libseal in instances]
    assert all(log.signed_head.signature is None for log in partials)
    merge_logs(partials, [i.signing_key.public_key() for i in instances], GitSSM())
    for libseal in instances:
        _openssl_verifies_head(libseal.audit_log.signed_head, libseal.signing_key.public_key())
    workloads[0].run(1)
    assert instances[0].audit_log.signed_head.signature is None
    instances[0].verify_log()
    _openssl_verifies_head(instances[0].audit_log.signed_head, instances[0].signing_key.public_key())

    plane = ShardPlane(shards=("shard-0", "shard-1"), seed=3)
    MessagingWorkload(plane, channels=6, members=2, seed=3).run(12)
    plane.verify_all()
    for instance in plane.instances.values():
        libseal = instance.libseal
        _openssl_verifies_head(libseal.audit_log.signed_head, libseal.signing_key.public_key())
    _openssl_verifies_head(plane.control_log.signed_head, plane.signing_key.public_key())


# ---------------------------------------------------------------------------
# AEAD vs a textbook HMAC-CTR + HMAC tag
# ---------------------------------------------------------------------------

MAX_AEAD_LENGTH = 70_000


def _openssl_hmac(key: bytes, *parts: bytes) -> bytes:
    mac = hmac.HMAC(key, hashes.SHA256())
    for part in parts:
        mac.update(part)
    return mac.finalize()


def _textbook_seal(key: AEADKey, nonce: bytes, data: bytes, ad: bytes) -> bytes:
    blocks = (len(data) + 31) // 32
    stream = b"".join(
        _openssl_hmac(key.enc_key, nonce, i.to_bytes(8, "big")) for i in range(blocks)
    )
    ciphertext = bytes(x ^ y for x, y in zip(data, stream))
    tag = _openssl_hmac(key.mac_key, nonce, len(ad).to_bytes(8, "big"), ad, ciphertext)
    return ciphertext + tag


#: Lengths on and beside a keystream block edge, and anywhere in range.
_lengths = st.one_of(
    st.builds(
        lambda blocks, delta: min(MAX_AEAD_LENGTH, max(0, 32 * blocks + delta)),
        st.integers(0, MAX_AEAD_LENGTH // 32),
        st.integers(-1, 1),
    ),
    st.integers(0, MAX_AEAD_LENGTH),
)


@settings(
    max_examples=int(os.environ.get("REPRO_AEAD_EXAMPLES", "40")), deadline=None
)
@given(
    enc_key=st.binary(min_size=1, max_size=80),
    mac_key=st.binary(min_size=1, max_size=80),
    nonce=st.binary(min_size=NONCE_LEN, max_size=NONCE_LEN),
    ad=st.binary(max_size=64),
    length=_lengths,
    fill=st.binary(min_size=1, max_size=8),
)
def test_aead_matches_textbook_construction(enc_key, mac_key, nonce, ad, length, fill):
    key = AEADKey(enc_key=enc_key, mac_key=mac_key)
    data = hashlib.shake_256(fill).digest(length)
    sealed = AEAD(key).seal(nonce, data, ad)
    assert sealed == _textbook_seal(key, nonce, data, ad)
    assert AEAD(key).open(nonce, sealed, ad) == data
