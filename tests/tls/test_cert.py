"""Certificate and CA unit tests."""

from dataclasses import replace

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaSignature
from repro.errors import TLSError
from repro.tls.cert import Certificate, CertificateAuthority, make_server_identity


@pytest.fixture
def ca():
    return CertificateAuthority("unit-root", seed=b"cert-ca")


def test_issue_and_verify(ca):
    key, cert = make_server_identity(ca, "a.example", seed=b"a")
    ca.verify(cert)
    assert cert.subject == "a.example"
    assert cert.issuer == "unit-root"
    assert cert.public_key == key.public_key()


def test_serials_are_unique(ca):
    certs = [make_server_identity(ca, f"s{i}", seed=bytes([i]))[1]
             for i in range(5)]
    assert len({c.serial for c in certs}) == 5


def test_encode_decode_roundtrip(ca):
    _, cert = make_server_identity(ca, "round.trip", seed=b"rt")
    decoded = Certificate.decode(cert.encode())
    assert decoded == cert
    ca.verify(decoded)


def test_foreign_issuer_rejected(ca):
    other = CertificateAuthority("other-root", seed=b"other")
    _, cert = make_server_identity(other, "x", seed=b"x")
    with pytest.raises(TLSError, match="issued by"):
        ca.verify(cert)


def test_tampered_subject_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    forged = Certificate(
        subject="attacker.example",
        issuer=cert.issuer,
        public_key=cert.public_key,
        serial=cert.serial,
        signature=cert.signature,
    )
    with pytest.raises(TLSError, match="signature"):
        ca.verify(forged)


def test_swapped_public_key_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    mallory = EcdsaPrivateKey.generate(HmacDrbg(seed=b"mallory"))
    forged = Certificate(
        subject=cert.subject,
        issuer=cert.issuer,
        public_key=mallory.public_key(),
        serial=cert.serial,
        signature=cert.signature,
    )
    with pytest.raises(TLSError):
        ca.verify(forged)


def test_forged_signature_rejected(ca):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    forged = Certificate(
        subject=cert.subject,
        issuer=cert.issuer,
        public_key=cert.public_key,
        serial=cert.serial,
        signature=EcdsaSignature(12345, 67890),
    )
    with pytest.raises(TLSError):
        ca.verify(forged)


def test_fingerprint_distinguishes_certs(ca):
    _, a = make_server_identity(ca, "a", seed=b"fa")
    _, b = make_server_identity(ca, "b", seed=b"fb")
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == Certificate.decode(a.encode()).fingerprint()


def test_decode_rejects_trailing_bytes(ca):
    _, cert = make_server_identity(ca, "t", seed=b"t")
    with pytest.raises(TLSError):
        Certificate.decode(cert.encode() + b"extra")


# ---------------------------------------------------------------------------
# The anchor's memory of certificates it has already verified
# ---------------------------------------------------------------------------


def _count_ecdsa_verifications(monkeypatch):
    from repro.crypto.ecdsa import EcdsaPublicKey

    calls = []
    original = EcdsaPublicKey.verify

    def counted(self, message, signature):
        calls.append(self)
        return original(self, message, signature)

    monkeypatch.setattr(EcdsaPublicKey, "verify", counted)
    return calls


def test_verified_certificate_is_not_verified_twice(ca, monkeypatch):
    _, cert = make_server_identity(ca, "again.example", seed=b"again")
    calls = _count_ecdsa_verifications(monkeypatch)
    ca.verify(cert)
    ca.verify(cert)
    ca.verify(Certificate.decode(cert.encode()))  # same bytes, new object
    assert len(calls) == 1


def _flip_last_bit(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


ONE_BIT_FLIPS = {
    "subject": lambda c: replace(c, subject=_flip_last_bit(c.subject.encode()).decode()),
    "evidence": lambda c: replace(c, evidence=_flip_last_bit(c.evidence)),
    "signature": lambda c: replace(
        c, signature=EcdsaSignature(c.signature.r, c.signature.s ^ 1)
    ),
}


@pytest.mark.parametrize("field", sorted(ONE_BIT_FLIPS))
def test_one_flipped_bit_is_rejected_after_the_original_was_accepted(ca, field):
    key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"flip"))
    cert = ca.issue("flip.example", key.public_key(), evidence=b"quote-bytes")
    ca.verify(cert)
    forged = ONE_BIT_FLIPS[field](cert)
    assert forged != cert
    for _ in range(2):  # and a failure is never remembered as a success
        with pytest.raises(TLSError, match="signature"):
            ca.verify(forged)
    ca.verify(cert)


def test_failures_are_not_remembered(ca, monkeypatch):
    _, cert = make_server_identity(ca, "victim.example", seed=b"v")
    forged = Certificate(
        cert.subject, cert.issuer, cert.public_key, cert.serial,
        EcdsaSignature(12345, 67890),
    )
    calls = _count_ecdsa_verifications(monkeypatch)
    for _ in range(3):
        with pytest.raises(TLSError):
            ca.verify(forged)
    assert len(calls) == 3


def test_memory_belongs_to_the_anchor_not_to_its_name():
    honest = CertificateAuthority("shared-name", seed=b"honest")
    impostor = CertificateAuthority("shared-name", seed=b"impostor")
    _, cert = make_server_identity(impostor, "svc.example", seed=b"svc")
    impostor.verify(cert)
    impostor.verify(cert)
    with pytest.raises(TLSError, match="signature"):
        honest.verify(cert)


def test_memory_is_bounded(ca, monkeypatch):
    monkeypatch.setattr(CertificateAuthority, "_VERIFIED_CAPACITY", 4)
    key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"bounded")).public_key()
    certs = [ca.issue(f"s{i}.example", key) for i in range(7)]
    for cert in certs:
        ca.verify(cert)
        assert len(ca._verified) <= 4
    assert list(ca._verified) == [c.fingerprint() for c in certs[-4:]]
    calls = _count_ecdsa_verifications(monkeypatch)
    ca.verify(certs[-1])  # still remembered
    ca.verify(certs[0])  # dropped: verified again, not refused
    assert len(calls) == 1


def test_forty_handshakes_verify_the_certificate_once(ca, monkeypatch):
    from tests.tls.conftest import connect_pair

    identity = make_server_identity(ca, "service.example", seed=b"server-id")
    calls = _count_ecdsa_verifications(monkeypatch)
    for _ in range(40):
        client, server = connect_pair(ca, identity)
        assert client.established and server.established
    # One key-exchange signature per handshake (fresh every time) plus the
    # certificate's own signature once, not 2 x 40.
    assert len(calls) == 41
