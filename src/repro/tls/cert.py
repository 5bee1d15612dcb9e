"""Certificates and certificate authorities.

A structural stand-in for X.509: a certificate binds a subject name to an
ECDSA public key and carries the issuer's signature over the TBS bytes.
Chains are depth-1 (root CA → leaf), which is all the evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, encode_parts
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import TLSError


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``subject`` to ``public_key``.

    ``evidence`` is the RA-TLS extension: an opaque attestation-evidence
    blob (a quote whose report data binds this certificate's public key,
    plus the issue time and key epoch). When present it is part of the
    TBS bytes, so the CA signature covers it and evidence can be neither
    stripped from nor grafted onto a certificate after issuance. Plain
    certificates omit the field entirely and keep their pre-RA-TLS wire
    encoding, so old certificates (and their signatures) stay valid.
    """

    subject: str
    issuer: str
    public_key: EcdsaPublicKey
    serial: int
    signature: EcdsaSignature
    evidence: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The to-be-signed portion."""
        parts = [
            self.subject.encode(),
            self.issuer.encode(),
            self.public_key.encode(),
            self.serial.to_bytes(8, "big"),
        ]
        if self.evidence:
            parts.append(self.evidence)
        return encode_parts(*parts)

    def encode(self) -> bytes:
        parts = [
            self.subject.encode(),
            self.issuer.encode(),
            self.public_key.encode(),
            self.serial.to_bytes(8, "big"),
        ]
        if self.evidence:
            parts.append(self.evidence)
        parts.append(self.signature.encode())
        return encode_parts(*parts)

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        reader = Reader(data)
        subject = reader.read_bytes().decode()
        issuer = reader.read_bytes().decode()
        public_key = EcdsaPublicKey.decode(reader.read_bytes())
        serial = int.from_bytes(reader.read_bytes(), "big")
        # Five parts is a plain certificate; six means the fifth part is
        # the RA-TLS evidence blob and the signature follows it.
        fifth = reader.read_bytes()
        if reader.remaining():
            evidence = fifth
            signature = EcdsaSignature.decode(reader.read_bytes())
        else:
            evidence = b""
            signature = EcdsaSignature.decode(fifth)
        reader.expect_end()
        return cls(subject, issuer, public_key, serial, signature, evidence)

    def fingerprint(self) -> bytes:
        return sha256(self.encode())


class CertificateAuthority:
    """A root CA that issues leaf certificates, and the trust anchor that
    verifies them.

    As an anchor it remembers the fingerprints of certificates whose
    signature it has verified, so a peer that presents the same
    certificate again costs a hash, not an ECDSA verification. That is
    sound because verification is a pure function of this anchor's key
    and the certificate's bytes — the fingerprint covers subject, issuer,
    key, serial, evidence and signature — and the model has no expiry or
    revocation that could turn an accepted certificate stale. Failures
    are never remembered, and the memory belongs to this object: another
    authority of the same name starts empty.
    """

    #: Fingerprints remembered per anchor; the oldest is dropped beyond it.
    _VERIFIED_CAPACITY = 256

    def __init__(self, name: str, seed: bytes | None = None):
        self.name = name
        drbg = HmacDrbg(seed=seed if seed is not None else sha256(b"ca" + name.encode()))
        self._key = EcdsaPrivateKey.generate(drbg)
        self._serial = 0
        self._verified: dict[bytes, None] = {}  # insertion-ordered set

    @property
    def public_key(self) -> EcdsaPublicKey:
        return self._key.public_key()

    def issue(
        self, subject: str, public_key: EcdsaPublicKey, evidence: bytes = b""
    ) -> Certificate:
        """Issue a certificate for ``subject``.

        ``evidence`` embeds an RA-TLS attestation blob under the CA
        signature; the CA does not interpret it (relying parties verify
        it during the handshake)."""
        self._serial += 1
        unsigned = Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            serial=self._serial,
            signature=EcdsaSignature(0, 0),
            evidence=evidence,
        )
        signature = self._key.sign(unsigned.tbs_bytes())
        return Certificate(
            subject, self.name, public_key, self._serial, signature, evidence
        )

    def verify(self, certificate: Certificate) -> None:
        """Check issuer and signature; raises :class:`TLSError` on failure."""
        if certificate.issuer != self.name:
            raise TLSError(
                f"certificate issued by {certificate.issuer!r}, expected {self.name!r}"
            )
        fingerprint = certificate.fingerprint()
        if fingerprint in self._verified:
            return
        if not self.public_key.verify(certificate.tbs_bytes(), certificate.signature):
            raise TLSError("certificate signature invalid")
        if len(self._verified) >= self._VERIFIED_CAPACITY:
            del self._verified[next(iter(self._verified))]
        self._verified[fingerprint] = None


def make_server_identity(
    ca: CertificateAuthority, subject: str, seed: bytes | None = None
) -> tuple[EcdsaPrivateKey, Certificate]:
    """Convenience: generate a key pair and a CA-issued certificate."""
    drbg = HmacDrbg(seed=seed if seed is not None else sha256(b"id" + subject.encode()))
    key = EcdsaPrivateKey.generate(drbg)
    return key, ca.issue(subject, key.public_key())
