"""Handshake message codec and key schedule.

Messages are ``type(1) || length-prefixed fields``; the key schedule derives
the master secret from the ECDHE shared secret and both randoms, then
independent per-direction write keys — the session keys that in LibSEAL
never leave the enclave (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, encode_parts
from repro.crypto.ecdsa import EcdsaSignature
from repro.crypto.hashing import hkdf, hmac_sha256, sha256
from repro.errors import TLSError
from repro.tls.cert import Certificate

# Handshake message types (TLS 1.2 numbering).
CLIENT_HELLO = 1
SERVER_HELLO = 2
CERTIFICATE = 11
SERVER_KEY_EXCHANGE = 12
CERTIFICATE_REQUEST = 13
SERVER_HELLO_DONE = 14
CERTIFICATE_VERIFY = 15
CLIENT_KEY_EXCHANGE = 16
FINISHED = 20

RANDOM_LEN = 32


@dataclass(frozen=True)
class HandshakeMessage:
    type: int
    body: bytes

    def encode(self) -> bytes:
        return bytes([self.type]) + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HandshakeMessage":
        if not data:
            raise TLSError("empty handshake message")
        return cls(data[0], data[1:])


def msg_client_hello(client_random: bytes) -> HandshakeMessage:
    return HandshakeMessage(CLIENT_HELLO, encode_parts(client_random))


def msg_server_hello(server_random: bytes) -> HandshakeMessage:
    return HandshakeMessage(SERVER_HELLO, encode_parts(server_random))


def msg_certificate(certificate: Certificate) -> HandshakeMessage:
    return HandshakeMessage(CERTIFICATE, encode_parts(certificate.encode()))


def msg_server_key_exchange(
    ephemeral_public: bytes, signature: EcdsaSignature
) -> HandshakeMessage:
    return HandshakeMessage(
        SERVER_KEY_EXCHANGE, encode_parts(ephemeral_public, signature.encode())
    )


def msg_certificate_request() -> HandshakeMessage:
    return HandshakeMessage(CERTIFICATE_REQUEST, b"")


def msg_server_hello_done() -> HandshakeMessage:
    return HandshakeMessage(SERVER_HELLO_DONE, b"")


def msg_client_key_exchange(ephemeral_public: bytes) -> HandshakeMessage:
    return HandshakeMessage(CLIENT_KEY_EXCHANGE, encode_parts(ephemeral_public))


def msg_certificate_verify(signature: EcdsaSignature) -> HandshakeMessage:
    return HandshakeMessage(CERTIFICATE_VERIFY, encode_parts(signature.encode()))


def msg_finished(verify_data: bytes) -> HandshakeMessage:
    return HandshakeMessage(FINISHED, encode_parts(verify_data))


def read_single_field(message: HandshakeMessage) -> bytes:
    reader = Reader(message.body)
    value = reader.read_bytes()
    reader.expect_end()
    return value


def read_two_fields(message: HandshakeMessage) -> tuple[bytes, bytes]:
    reader = Reader(message.body)
    first = reader.read_bytes()
    second = reader.read_bytes()
    reader.expect_end()
    return first, second


def signed_key_exchange_payload(
    client_random: bytes, server_random: bytes, ephemeral_public: bytes
) -> bytes:
    """The bytes a server signs to authenticate its ephemeral key."""
    return b"SKE\x00" + client_random + server_random + ephemeral_public


def ratls_key_binding(certificate: Certificate) -> bytes:
    """The payload an RA-TLS quote must bind: this certificate's key.

    The chain that authenticates the ECDHE handshake key: the quote's
    report data commits to the certificate public key (this payload),
    and that key signs :func:`signed_key_exchange_payload` over both
    randoms and the ephemeral share — so a verified quote transitively
    attests the ephemeral key, with the randoms preventing replay of a
    captured exchange."""
    return certificate.public_key.encode()


@dataclass(frozen=True)
class SessionKeys:
    """The derived key material for one session."""

    master_secret: bytes
    client_write: bytes
    server_write: bytes


def derive_session_keys(
    ecdh_secret: bytes, client_random: bytes, server_random: bytes
) -> SessionKeys:
    master = hkdf(
        ecdh_secret,
        salt=client_random + server_random,
        info=b"master secret",
        length=48,
    )
    return SessionKeys(
        master_secret=master,
        client_write=hkdf(master, info=b"client write", length=32),
        server_write=hkdf(master, info=b"server write", length=32),
    )


def finished_verify_data(master_secret: bytes, label: bytes, transcript: bytes) -> bytes:
    """Transcript-binding MAC carried in Finished messages."""
    return hmac_sha256(master_secret, label + sha256(transcript))
